"""Affine sl2 at level 1: a non-abelian table with distinct generators that do not
commute, so the bracket's operand order matters.

The fixture affine_sl2_level1.json writes both orders of each row of
[x_lambda y] = [x, y] + lambda k (x|y) c at level k = 1, with (e|f) = 1 and (h|h) = 2.
A bracket that reads the (b, a, j) row for distinct generators gives the opposite Lie
algebra, which is also a vertex Lie algebra, so the sweeps pass on it; the morphism
check refuses it.  The same checks run at the critical level k = -2 and at k = 1/2,
whose central terms are not integers (affine_sl2_level_m2.json and
affine_sl2_level_half.json), and at all three levels the vacuum/creation and
D-translation checks pass.
"""

import json
from pathlib import Path

import pytest

from vertexkernel import cli, enveloping
from vertexkernel.current import bracket
from vertexkernel.enveloping import VacuumModule
from vertexkernel.serialize import load_presentation, read_json_file

SL2 = str(Path(__file__).with_name("affine_sl2_level1.json"))
LEVELS = {"minus2": str(Path(__file__).with_name("affine_sl2_level_m2.json")),
          "half": str(Path(__file__).with_name("affine_sl2_level_half.json"))}


def check(capsys, *argv, path=SL2):
    """(exit code, {check id: details or witness}) of a check --format json run."""
    code = cli.main(["check", *argv, "--format", "json", "--input", path])
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    return code, {c["check"]: c.get("witness") or c.get("details") for c in checks}


def test_affine_sl2_validates_and_has_the_product_formula_dimensions():
    pres = load_presentation(read_json_file(SL2))
    assert pres.validate().passed
    # prod (1 - q^n)^-3 = 1 + 3q + 9q^2 + 22q^3 + ...
    vm = VacuumModule(pres)
    assert [len(vm.basis_words(d, 0)) for d in range(4)] == [1, 3, 9, 22]


@pytest.mark.parametrize("suite", ["skew", "commutator", "jacobi", "coalgebra"])
def test_affine_sl2_sweeps_pass(capsys, suite):
    code, checks = check(capsys, "--suite", suite, "--max-weight", "1", "--mode-window", "1")
    assert code == 0
    assert checks and all(d.endswith("instances checked") and not d.startswith("0 ")
                          for d in checks.values())


@pytest.mark.parametrize("level", LEVELS)
def test_affine_sl2_at_other_levels(capsys, level):
    """What the level-1 tests check, at level -2 and 1/2: validate, the graded
    dimensions, the four sweeps at small bounds and the morphism suite."""
    pres = load_presentation(read_json_file(LEVELS[level]))
    assert pres.validate().passed
    vm = VacuumModule(pres)
    assert [len(vm.basis_words(d, 0)) for d in range(4)] == [1, 3, 9, 22]
    for suite in ("skew", "commutator", "jacobi", "coalgebra"):
        code, checks = check(capsys, "--suite", suite, "--max-weight", "1", "--mode-window",
                             "1", path=LEVELS[level])
        assert code == 0, suite
        assert checks and all(d.endswith("instances checked") and not d.startswith("0 ")
                              for d in checks.values())
    assert check(capsys, "--suite", "morphism", path=LEVELS[level])[0] == 0


@pytest.mark.parametrize("path", [SL2, *LEVELS.values()], ids=["1", *LEVELS])
def test_affine_sl2_vacuum_and_translation_axioms(path):
    """The vacuum/creation laws and D u = u_{-2}|0>, (D u)_n v = -n u_{n-1} v hold at
    each level, over every basis state of weight <= 2 and n in [-2, 2]."""
    vm = VacuumModule(load_presentation(read_json_file(path)))
    for rep, details in ((vm.check_vacuum_creation(max_weight=2, window=2),
                          "234 instances checked"),
                         (vm.check_d_translation(max_weight=2, window=2),
                          "3406 instances checked")):
        (result,) = rep.checks
        assert result.passed and result.details == details


class _Swapped:
    """A presentation whose table reads the (b, a, j) row for (a, b, j)."""

    def __init__(self, pres):
        self._pres = pres

    def __getattr__(self, name):
        return getattr(self._pres, name)

    def table(self, a, b, j):
        return self._pres.table(b, a, j)


def test_the_morphism_check_refuses_a_swapped_bracket(capsys, monkeypatch):
    assert check(capsys, "--suite", "morphism")[0] == 0
    # for equal generators the swapped row is the same row
    monkeypatch.setattr(enveloping, "bracket", lambda pres, a, b: bracket(_Swapped(pres), a, b))
    code, checks = check(capsys, "--suite", "morphism")
    assert code == 1
    assert "e_0 f" in checks["morphism-induced-exists"]
