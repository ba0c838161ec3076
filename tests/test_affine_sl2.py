"""Affine sl2 at level 1: a non-abelian table with distinct generators that do not
commute, so the bracket's operand order matters.

The fixture affine_sl2_level1.json writes both orders of each row of
[x_lambda y] = [x, y] + lambda k (x|y) c at level k = 1, with (e|f) = 1 and (h|h) = 2.
A bracket that reads the (b, a) row for distinct generators gives the opposite Lie
algebra, which is also a vertex Lie algebra, so the sweeps pass on it; the morphism
check refuses it.  The same checks run at the critical level k = -2 and at k = 1/2,
whose central terms are not integers (affine_sl2_level_m2.json and
affine_sl2_level_half.json), and at all three levels the vacuum/creation and
D-translation checks pass.  A change of basis x_a = sum_i G_ai y_i on e, f, h gives
P^G, a dense table isomorphic to level 1, on which validate, the graded dimensions,
the bracket and the induced morphisms both ways pass.
"""

import json
from itertools import product as iproduct
from pathlib import Path

import pytest

from vertexkernel import cli, enveloping
from vertexkernel.constructions import induced_vertex_morphism
from vertexkernel.current import Mode, bracket, mode_normalize
from vertexkernel.enveloping import VacuumModule
from vertexkernel.lincomb import LinComb, binom
from vertexkernel.serialize import load_presentation, read_json_file
from vertexkernel.vla import Generator, Presentation

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
    """A presentation whose table reads the (b, a) row for (a, b)."""

    def __init__(self, pres):
        self._pres = pres

    def __getattr__(self, name):
        return getattr(self._pres, name)

    def table(self, a, b):
        return self._pres.table(b, a)


def test_the_morphism_check_refuses_a_swapped_bracket(capsys, monkeypatch):
    assert check(capsys, "--suite", "morphism")[0] == 0
    # for equal generators the swapped row is the same row
    monkeypatch.setattr(enveloping, "bracket", lambda pres, a, b: bracket(_Swapped(pres), a, b))
    code, checks = check(capsys, "--suite", "morphism")
    assert code == 1
    assert "e_0 f" in checks["morphism-induced-exists"]


# x_a = sum_i G[a][i] y_i on (e, f, h); G_INV is its inverse (det G = -1)
G = [[1, 1, 0], [0, 1, -2], [1, 0, 1]]
G_INV = [[-1, 1, 2], [2, -1, -2], [1, -1, -1]]
YS, XS = ["e", "f", "h"], ["x1", "x2", "x3"]


def changed_basis(pres):
    """P^G: generators x_a = sum_i G_ai y_i and c, with (x_a)_n x_b = sum_ij G_ai G_bj
    (y_i)_n y_j rewritten in the x basis through G^-1; D is untouched."""
    to_x = {y: {x: G_INV[i][a] for a, x in enumerate(XS)} for i, y in enumerate(YS)}
    to_x["c"] = {"c": 1}
    products = {}
    for (a, xa), (b, xb) in iproduct(enumerate(XS), repeat=2):
        for (i, yi), (j, yj) in iproduct(enumerate(YS), repeat=2):
            for n, res in pres.table(yi, yj).items():
                row = products.setdefault((xa, xb, n), {})
                for (y, d), coeff in res.items():
                    for x, t in to_x[y].items():
                        row[x, d] = row.get((x, d), 0) + G[a][i] * G[b][j] * coeff * t
    return Presentation([Generator(x, 1) for x in XS] + [Generator("c", 0, torsion=True)],
                        products)


def stepped_bracket(pres, a, b):
    """The bracket as a sum over j < wt a + wt b of the per-n products, a reference
    for the walk over the table's rows on a weight-homogeneous table."""
    out = LinComb()
    if pres.is_torsion(a.gen) or pres.is_torsion(b.gen):
        return out
    for j in range(0, pres.weight_of(a.gen) + pres.weight_of(b.gen)):
        tab, c = pres.table(a.gen, b.gen).get(j), binom(a.n, j)
        if tab and c:
            out.add_into(mode_normalize(pres, tab, a.n + b.n - j), c)
    return out


def test_a_dense_table_from_a_change_of_basis():
    """P^G for affine sl2 at level 1 is isomorphic to P: it validates, has P's graded
    dimensions and brackets, and the induced morphisms both ways pass."""
    pres = load_presentation(read_json_file(SL2))
    dense = changed_basis(pres)
    assert len(dense.to_json()["products"]) == 15
    assert dense.validate().passed
    vm, vm_dense = VacuumModule(pres), VacuumModule(dense)
    assert [len(vm_dense.basis_words(d, 0)) for d in range(4)] == [1, 3, 9, 22]
    modes = [Mode(g.name, n) for g in dense.generators for n in range(-3, 4)]
    assert all(bracket(dense, a, b) == stepped_bracket(dense, a, b)
               for a, b in iproduct(modes, repeat=2))
    for source, target, names, mat, images in ((dense, vm, XS, G, YS),
                                               (pres, vm_dense, YS, G_INV, XS)):
        embedding = {"c": target.word_state([Mode("c", -1)])}
        for name, coeffs in zip(names, mat):
            embedding[name] = LinComb()
            for coeff, image in zip(coeffs, images):
                embedding[name].add_into(target.word_state([Mode(image, -1)]), coeff)
        _, rep = induced_vertex_morphism(source, embedding, target, max_weight=2, window=1,
                                         torsion_bound=0)
        assert rep.passed, rep.summary()
        assert [c.details for c in rep.checks] == [
            "507 instances checked", "13 instances checked", "13 instances checked"]
