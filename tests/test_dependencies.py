"""The package runs on the standard library alone, and holds no public name
that nothing reaches."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import vertexkernel
from vertexkernel import coalgebra as co
from vertexkernel.enveloping import VacuumModule
from vertexkernel.lincomb import LinComb
from vertexkernel.vla import abelian

SRC = Path(vertexkernel.__file__).parent
TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


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


def tracer_targets():
    """(module, qualified name) of every function the benchmark's tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    groups = [*tracer.SPANS.values(), *tracer.SUITES.values(), tracer.DELTA_METHODS,
              tracer.TO_JSON, [(mod, method) for mod, method, _ in tracer.MEMOS.values()]]
    return {target for group in groups for target in group}


def references(node):
    """How often each name is read as a name or an attribute inside node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def public_definitions(tree):
    """(name, defining node) of each public function, class and assigned name at
    the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def test_every_public_name_is_reached_exported_or_traced():
    """Each public name in src is read in src outside its own definition, listed in
    vertexkernel.__all__, or a target of perfbench/tracer.py."""
    trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in sorted(SRC.glob("*.py"))}
    read = sum(map(references, trees.values()), Counter())
    exported, traced = set(vertexkernel.__all__), tracer_targets()
    unreached = [(mod, name) for mod, tree in trees.items()
                 for name, node in public_definitions(tree)
                 if read[name] == references(node)[name]
                 and name not in exported and (mod, name) not in traced]
    assert not unreached
