"""End-to-end battery: one test per guaranteed behavior, each with a
wall-clock budget.  All arithmetic is exact and every assert is
zero-tolerance; sweep bounds not forced by the mathematics are pinned
here explicitly so the battery is reproducible.
"""

import time
from fractions import Fraction

import pytest

from vertexkernel.coalgebra import (
    DividedPowerBialgebra,
    LieAlgebra,
    check_coalgebra,
    check_delta_morphism,
    check_psi_coalgebra,
    is_group_like,
    primitive_subspace,
)
from vertexkernel.constructions import (
    BL,
    PhiMap,
    SemigroupL,
    TensorPhiAlgebra,
    check_bl_bialgebra,
    check_bl_equals_tensor_phi,
    check_eminus_conjugation,
    check_group_like_semigroup,
    extend_universal_morphism,
    induced_vertex_morphism,
    tensor_phi_group_like_scan,
)
from vertexkernel.current import Mode
from vertexkernel.enveloping import VacuumModule
from vertexkernel.errors import MorphismError
from vertexkernel.vla import Generator, Presentation, abelian, heisenberg, virasoro


def _budget(t0, limit, label):
    took = time.monotonic() - t0
    assert took < limit, f"{label} took {took:.1f}s, budget {limit:.0f}s"


def _partitions_min_two(n, smallest=2):
    """Number of partitions of n into parts >= 2 (oracle for the L-word count)."""
    if n == 0:
        return 1
    return sum(_partitions_min_two(n - p, p) for p in range(smallest, n + 1))


def test_01_axiom_validation_and_perturbed_tables():
    t0 = time.monotonic()
    for pres in (virasoro(), heisenberg(1), heisenberg(2),
                 abelian(1), abelian(2), abelian(3)):
        rep = pres.validate()
        assert rep.passed, rep.summary()
    base = {
        ("L", "L", 0): {("L", 1): 1},
        ("L", "L", 1): {("L", 0): 2},
        ("L", "L", 3): {("c", 0): Fraction(1, 2)},
    }
    for key in base:
        prods = {k: dict(v) for k, v in base.items()}
        (ek, ec), = prods[key].items()
        prods[key][ek] = 2 * ec
        pres = Presentation([Generator("L", 2), Generator("c", 0, torsion=True)],
                            prods)
        rep = pres.validate()
        if key != ("L", "L", 3):
            assert not rep.passed, f"perturbed {key} not caught"
            assert any(c.witness for c in rep.failures()), f"no witness for {key}"
            continue
        # Doubling the central coefficient is the image of the builtin under
        # the vertex Lie isomorphism c -> 2c, so every axiom holds and the
        # validator must accept it.  The morphism builder checks the
        # isomorphism both ways; the identity on c breaks L_3 L, so the two
        # tables really differ.
        assert rep.passed, rep.summary()
        vir = VacuumModule(virasoro())
        L1 = vir.word_state([Mode("L", -1)])
        c1 = vir.word_state([Mode("c", -1)])
        perturbed = VacuumModule(pres)
        for src, target, scale in ((pres, vir, Fraction(1, 2)),
                                   (virasoro(), perturbed, 2)):
            _, mrep = induced_vertex_morphism(src, {"L": L1, "c": c1 * scale},
                                              target, max_weight=3, window=3)
            assert mrep.passed, mrep.summary()
        with pytest.raises(MorphismError):
            induced_vertex_morphism(pres, {"L": L1, "c": c1}, vir,
                                    max_weight=3, window=3)
    _budget(t0, 5.0, "axiom validation")


def test_02_graded_dimensions():
    t0 = time.monotonic()
    vm = VacuumModule(virasoro())
    dims = [vm.graded_dimension(w, torsion_bound=0) for w in range(9)]
    assert dims == [1, 0, 1, 1, 2, 2, 4, 4, 7]
    assert dims == [_partitions_min_two(w) for w in range(9)]
    _budget(t0, 5.0, "graded dimensions")


def test_03_primitive_dimensions():
    t0 = time.monotonic()
    vir = VacuumModule(virasoro())
    # weight 0: c itself; weight 1: nothing; weights 2..6: one D-power of L each
    assert [len(primitive_subspace(vir, w, torsion_bound=1)) for w in range(7)] \
        == [1, 0, 1, 1, 1, 1, 1]
    ab = VacuumModule(abelian(1))
    assert [len(primitive_subspace(ab, w, torsion_bound=1)) for w in range(1, 5)] \
        == [1, 1, 1, 1]
    _budget(t0, 10.0, "primitive dimensions")


def test_04_borcherds_commutator_formula():
    t0 = time.monotonic()
    for pres in (virasoro(), heisenberg(1)):
        rep = VacuumModule(pres).check_commutator(max_weight=4, window=3,
                                                  torsion_bound=1)
        assert rep.passed, rep.summary()
        assert any(c.check_id == "borcherds-commutator" for c in rep.checks)
    _budget(t0, 60.0, "commutator formula")


def test_05_skew_symmetry_and_jacobi():
    t0 = time.monotonic()
    vir = VacuumModule(virasoro())
    heis = VacuumModule(heisenberg(1))
    assert vir.check_skew_symmetry(max_weight=3, window=3, torsion_bound=1).passed
    assert heis.check_skew_symmetry(max_weight=3, window=3, torsion_bound=1).passed
    assert vir.check_jacobi(max_weight=3, window=3, torsion_bound=1).passed
    _budget(t0, 120.0, "skew-symmetry and Jacobi")


def test_06_coproduct_is_a_vertex_morphism():
    t0 = time.monotonic()
    vir = VacuumModule(virasoro())
    rep = check_delta_morphism(vir, vir.basis_states(3, 1), range(-3, 4))
    assert rep.passed, rep.summary()
    for vm in (vir, VacuumModule(heisenberg(1)), VacuumModule(abelian(1))):
        rep = check_coalgebra(vm, max_weight=5, torsion_bound=1)
        assert rep.passed, rep.summary()
        ids = {c.check_id for c in rep.checks}
        assert {"cocommutativity", "coassociativity"} <= ids
    _budget(t0, 60.0, "coproduct morphism")


def test_07_differential_bialgebra_equivalence():
    t0 = time.monotonic()
    L = SemigroupL(1)
    rep = check_bl_equals_tensor_phi(BL(L), max_weight=3, alpha_bound=2, window=6)
    assert rep.passed, rep.summary()
    rep2 = check_bl_bialgebra(BL(L), max_weight=3, alpha_bound=2)
    assert rep2.passed, rep2.summary()
    by_id = {c.check_id: c.passed for c in rep2.checks}
    assert by_id["d-coderivation"] and by_id["counit-kills-d"]
    _budget(t0, 30.0, "differential bialgebra comparison")


def test_08_half_exponential_conjugation():
    t0 = time.monotonic()
    vm = VacuumModule(abelian(1))
    rep = check_eminus_conjugation(vm, vm.pres.element("h"), max_weight=2,
                                   order=3, window=3)
    assert rep.passed, rep.summary()
    _budget(t0, 10.0, "half-exponential conjugation")


def test_09_group_like_structure():
    t0 = time.monotonic()
    vm = VacuumModule(abelian(1))
    tp = TensorPhiAlgebra(vm, SemigroupL(1), PhiMap(vm.pres, [vm.pres.element("h")]))
    for a in range(-2, 3):
        g, h = tp.group_like((a,)), tp.group_like((1 - a,))
        for n in range(0, 5):
            assert not tp.state_mode(g, n, h)
        assert is_group_like(tp, tp.state_mode(g, -1, h))
    rep = check_group_like_semigroup(tp, alpha_bound=3, window=4)
    assert rep.passed, rep.summary()
    alphas = [(a,) for a in range(-2, 4)]
    found = tensor_phi_group_like_scan(tp, alphas)
    assert sorted(tuple(s.items()) for s in found) == sorted(
        (((0, a), Fraction(1)),) for a in alphas)
    _budget(t0, 30.0, "group-like structure")


def test_10_divided_powers_and_psi():
    t0 = time.monotonic()
    rep = DividedPowerBialgebra(2).check_bialgebra(4)
    assert rep.passed, rep.summary()
    assert check_psi_coalgebra(LieAlgebra(["x", "y"]), 4).passed
    assert check_psi_coalgebra(LieAlgebra(["x", "y"], {(0, 1): {1: 1}}), 4).passed
    _budget(t0, 10.0, "divided powers")


def test_11_morphism_builders():
    t0 = time.monotonic()
    bl = BL(SemigroupL(1))
    psi, rep = induced_vertex_morphism(abelian(1), {"h": bl.monomial([("h", -1)])},
                                       bl, max_weight=3, window=4, torsion_bound=1)
    assert rep.passed, rep.summary()
    by_id = {c.check_id: c.passed for c in rep.checks}
    assert by_id["morphism-modes"] and by_id["morphism-delta"] and by_id["morphism-counit"]

    def phi_b(i):
        return bl.monomial([("h", -1)]) * 2

    with pytest.raises(MorphismError):
        extend_universal_morphism(bl, bl, lambda al: bl.group_like(al), phi_b,
                                  max_weight=3, alpha_bound=2)
    f, rep2 = extend_universal_morphism(bl, bl,
                                        lambda al: bl.group_like((2 * al[0],)),
                                        phi_b, max_weight=3, alpha_bound=2)
    assert rep2.passed, rep2.summary()
    _budget(t0, 10.0, "morphism builders")
