"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import vertexkernel
from vertexkernel import coalgebra as co
from vertexkernel.enveloping import VacuumModule
from vertexkernel.lincomb import LinComb
from vertexkernel.vla import abelian

SRC = Path(vertexkernel.__file__).parent


def absolute_imports(path):
    """Top-level names of every absolute import in a module, function-local
    imports included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_from_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {(f.name, name) for f in files for name in absolute_imports(f)
               if name not in sys.stdlib_module_names}
    assert not foreign


def test_group_like_scan_runs_without_sympy(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)
    vm = VacuumModule(abelian(1))
    span = [vm.vacuum(), LinComb.single(vm.basis_words(1, 0)[0])]
    assert co.group_like_scan(vm, span) == [vm.vacuum()]
