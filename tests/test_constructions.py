from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vertexkernel.constructions import (BL, PhiMap, SemigroupL,
                                        TensorPhiAlgebra, bl_phi,
                                        borcherds_mode,
                                        check_bl_bialgebra,
                                        check_bl_equals_tensor_phi,
                                        check_component_structure,
                                        check_eminus_conjugation,
                                        check_group_like_semigroup,
                                        check_phi_central,
                                        check_tensor_phi_axioms,
                                        eminus_apply,
                                        eminus_conjugation_defect,
                                        extend_universal_morphism,
                                        induced_vertex_morphism,
                                        tensor_phi_group_like_scan,
                                        tensor_phi_primitives)
from vertexkernel.coalgebra import check_delta_morphism, group_like_scan
from vertexkernel.current import Mode
from vertexkernel.enveloping import VacuumModule
from vertexkernel.errors import InputError, MorphismError, UnsupportedError
from vertexkernel.linalg import rank_of
from vertexkernel.lincomb import LinComb
from vertexkernel.vla import Generator, Presentation, abelian, heisenberg, virasoro


def W(*modes):
    return tuple(Mode(g, n) for g, n in modes)


def V(vm, word, coeff=1):
    """The state coeff·word of vm, built through its edge API."""
    return coeff * vm.word_state(word)


def K(alg, word, alpha):
    """The key (word, alpha) of a tensor or B_L algebra, its word as an id."""
    return alg.vm.word_id(word), alpha


def KS(alg, word, alpha, coeff=1):
    """The state coeff·(word, alpha) of alg."""
    return LinComb.single(K(alg, word, alpha), coeff)


def abelian_vm(rank=1):
    pres = abelian(rank)
    return pres, VacuumModule(pres)


def tensor_h(rank=1, group=True):
    pres, vm = abelian_vm(rank)
    phi = PhiMap(pres, [pres.element(g.name) for g in pres.generators])
    return TensorPhiAlgebra(vm, SemigroupL(rank, group), phi)


# -- semigroups ----------------------------------------------------------------


def test_semigroup_elements():
    L = SemigroupL(2)
    assert L.zero() == (0, 0)
    assert L.add((1, -2), (3, 5)) == (4, 3)
    assert L.neg((1, -2)) == (-1, 2)
    with pytest.raises(InputError):
        L.element((1,))


def test_semigroup_elements_refuse_non_integral_components():
    L = SemigroupL(1)
    with pytest.raises(InputError, match="non-integral"):
        L.element((1.5,))
    with pytest.raises(InputError):
        BL(L).group_like((1.5,))
    # an integral value of another type is still that integer
    assert L.element((Fraction(2),)) == (2,) and L.element([-4.0]) == (-4,)


def test_semigroup_without_inverses():
    N = SemigroupL(1, group=False)
    assert N.element((3,)) == (3,)
    with pytest.raises(InputError):
        N.element((-1,))
    with pytest.raises(InputError):
        N.neg((2,))
    assert N.neg((0,)) == (0,)
    assert N.window(2) == [(0,), (1,), (2,)]


def test_semigroup_window_sorted():
    assert SemigroupL(1).window(1) == [(-1,), (0,), (1,)]


# -- phi maps and centrality -----------------------------------------------------


def test_phi_linear():
    pres = abelian(2)
    phi = PhiMap(pres, [pres.element("h1"), pres.element("h2")])
    got = phi.of((2, -3))
    assert got == 2 * pres.element("h1") - 3 * pres.element("h2")
    assert not phi.of((0, 0))


def test_phi_rejects_mixed_weight():
    pres = virasoro()
    mixed = pres.element("L") + pres.element("c")
    with pytest.raises(UnsupportedError):
        PhiMap(pres, [mixed])


def test_phi_central_abelian():
    pres = abelian(1)
    assert check_phi_central(pres, PhiMap(pres, [pres.element("h")])).passed


def test_phi_central_torsion_element():
    pres = heisenberg(1)
    assert check_phi_central(pres, PhiMap(pres, [pres.element("c")])).passed


def test_phi_not_central_heisenberg():
    # h_1 h = c, so h is not central
    pres = heisenberg(1)
    rep = check_phi_central(pres, PhiMap(pres, [pres.element("h")]))
    assert not rep.passed
    assert rep.failures()[0].witness == "phi(e_1)_1 h = c != 0"


def test_phi_not_central_virasoro():
    pres = virasoro()
    assert not check_phi_central(pres, PhiMap(pres, [pres.element("L")])).passed


# -- the half exponential ---------------------------------------------------------


def test_eminus_on_vacuum():
    pres, vm = abelian_vm()
    out = eminus_apply(vm, pres.element("h"), vm.vacuum(), 2)
    assert out[0] == vm.vacuum()
    assert out[1] == V(vm, W(("h", -1)))
    assert out[2] == (V(vm, W(("h", -2)), Fraction(1, 2))
                      + V(vm, W(("h", -1), ("h", -1)), Fraction(1, 2)))


def test_eminus_on_state():
    pres, vm = abelian_vm()
    out = eminus_apply(vm, pres.element("h"), V(vm, W(("h", -1))), 1)
    assert out[0] == V(vm, W(("h", -1)))
    assert out[1] == V(vm, W(("h", -1), ("h", -1)))


def test_eminus_zero_element():
    pres, vm = abelian_vm()
    out = eminus_apply(vm, LinComb(), V(vm, W(("h", -2))), 3)
    assert out[0] == V(vm, W(("h", -2)))
    assert not out[1] and not out[2] and not out[3]


def test_eminus_torsion_is_plain_exponential():
    # c(-n) = 0 for n >= 2, so E^-(c, x)|0> = exp(c(-1) x)|0>
    pres = heisenberg(1)
    vm = VacuumModule(pres)
    out = eminus_apply(vm, pres.element("c"), vm.vacuum(), 3)
    assert out[2] == V(vm, W(("c", -1), ("c", -1)), Fraction(1, 2))
    assert out[3] == V(vm, W(("c", -1), ("c", -1), ("c", -1)), Fraction(1, 6))


def test_eminus_conjugation_defect_spot():
    pres, vm = abelian_vm()
    h = pres.element("h")
    v = V(vm, W(("h", -2)))
    assert not eminus_conjugation_defect(vm, h, V(vm, W(("h", -1))), 2, -3, v)
    assert not eminus_conjugation_defect(vm, h, v, 1, 1, V(vm, W(("h", -1))))


def test_eminus_conjugation_sweep_abelian():
    pres, vm = abelian_vm()
    rep = check_eminus_conjugation(vm, pres.element("h"), max_weight=2, order=2, window=2)
    assert rep.passed


def test_eminus_conjugation_sweep_heisenberg_center():
    pres = heisenberg(1)
    vm = VacuumModule(pres)
    rep = check_eminus_conjugation(vm, pres.element("c"), max_weight=2, order=2,
                                   window=2, torsion_bound=1)
    assert rep.passed


# -- the twisted tensor algebra ----------------------------------------------------


def test_tensor_phi_rejects_noncentral():
    pres = heisenberg(1)
    vm = VacuumModule(pres)
    with pytest.raises(InputError):
        TensorPhiAlgebra(vm, SemigroupL(1), PhiMap(pres, [pres.element("h")]))


def test_tensor_phi_rejects_rank_mismatch():
    pres, vm = abelian_vm()
    with pytest.raises(InputError):
        TensorPhiAlgebra(vm, SemigroupL(2), PhiMap(pres, [pres.element("h")]))


def test_tensor_phi_rejects_phi_of_another_presentation():
    # an equal presentation is not enough: phi's targets must be vm's own elements
    vm = VacuumModule(abelian(1))
    other = abelian(1)
    with pytest.raises(InputError, match="^phi targets live in a different presentation$"):
        TensorPhiAlgebra(vm, SemigroupL(1), PhiMap(other, [other.element("h")]))


def test_tensor_phi_translation_mode():
    # (|0> x e^a)_{-2} (|0> x e^0) picks up the twist phi(a)(-1)
    tp = tensor_h()
    got = tp.state_mode(tp.group_like((1,)), -2, tp.vacuum())
    assert got == KS(tp, W(("h", -1)), (1,))


def test_tensor_phi_mode_expansion():
    tp = tensor_h()
    u = KS(tp, W(("h", -1)), (1,))
    v = KS(tp, W(("h", -1)), (0,))
    assert tp.state_mode(u, -1, v) == KS(tp, W(("h", -1), ("h", -1)), (1,))
    got = tp.state_mode(u, -2, v)
    want = (KS(tp, W(("h", -2), ("h", -1)), (1,))
            + KS(tp, W(("h", -1), ("h", -1), ("h", -1)), (1,)))
    assert got == want


def test_tensor_phi_nonnegative_modes_vanish():
    tp = tensor_h()
    u = KS(tp, W(("h", -1)), (2,))
    for n in range(0, 4):
        assert not tp.state_mode(u, n, u)


def test_tensor_phi_d_twist():
    tp = tensor_h()
    assert tp.D(tp.group_like((3,))) == KS(tp, W(("h", -1)), (3,), 3)
    got = tp.D(KS(tp, W(("h", -1)), (1,)))
    assert got == KS(tp, W(("h", -2)), (1,)) + KS(tp, W(("h", -1), ("h", -1)), (1,))


def test_tensor_phi_delta_tags_both_legs():
    tp = tensor_h()
    s = KS(tp, W(("h", -1)), (2,))
    got = tp.delta(s)
    k = K(tp, W(("h", -1)), (2,))
    e = K(tp, (), (2,))
    assert got == LinComb.single((k, e)) + LinComb.single((e, k))


def test_tensor_phi_eps():
    tp = tensor_h()
    assert tp.eps(tp.group_like((5,))) == 1
    assert tp.eps(KS(tp, W(("h", -1)), (1,), 7)) == 0


def test_tensor_phi_embed():
    tp = tensor_h()
    s = V(tp.vm, W(("h", -2)), 3)
    assert tp.embed(s) == KS(tp, W(("h", -2)), (0,), 3)
    assert tp.embed(s, (1,)) == KS(tp, W(("h", -2)), (1,), 3)


def test_tensor_phi_basis_keys():
    tp = tensor_h()
    keys = tp.basis_keys(1, alpha_bound=1)
    assert keys == [K(tp, W(("h", -1)), (-1,)), K(tp, W(("h", -1)), (0,)),
                    K(tp, W(("h", -1)), (1,))]


def test_tensor_phi_axioms_sweep():
    rep = check_tensor_phi_axioms(tensor_h(), max_weight=1, window=2, alpha_bound=1)
    assert rep.passed


def test_tensor_phi_axioms_over_heisenberg_center():
    # phi into the torsion center keeps the twist alive on a nonabelian V
    pres = heisenberg(1)
    vm = VacuumModule(pres)
    tp = TensorPhiAlgebra(vm, SemigroupL(1), PhiMap(pres, [pres.element("c")]))
    rep = check_tensor_phi_axioms(tp, max_weight=1, window=2, alpha_bound=1,
                                  torsion_bound=1)
    assert rep.passed


def test_group_like_semigroup_sweep():
    rep = check_group_like_semigroup(tensor_h(), alpha_bound=2, window=3)
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert "group-like-semigroup-law" in ids and "group-like-mode-commutation" in ids


def test_group_like_semigroup_without_inverses():
    rep = check_group_like_semigroup(tensor_h(group=False), alpha_bound=2, window=3)
    assert rep.passed


def test_tensor_phi_primitives_sit_in_zero_component():
    tp = tensor_h()
    assert tensor_phi_primitives(tp, 0, alpha_bound=1) == []
    prims = tensor_phi_primitives(tp, 1, alpha_bound=1)
    assert prims == [KS(tp, W(("h", -1)), (0,))]
    prims2 = tensor_phi_primitives(tp, 2, alpha_bound=1)
    assert prims2 == [KS(tp, W(("h", -2)), (0,))]


def test_group_like_scan_finds_exactly_the_exponentials():
    tp = tensor_h()
    alphas = [(a,) for a in range(-2, 4)]
    found = tensor_phi_group_like_scan(tp, alphas)
    assert sorted(tuple(g.items()) for g in found) == sorted(
        ((K(tp, (), a), Fraction(1)),) for a in alphas)


def test_group_like_scan_has_no_dimension_cap():
    tp = tensor_h()
    alphas = [(a,) for a in range(-3, 4)]
    assert tensor_phi_group_like_scan(tp, alphas) == [tp.group_like(a) for a in alphas[::-1]]
    keys = [k for d in range(3) for k in tp.basis_keys(d, alpha_bound=2)]
    assert len(keys) == 20
    assert group_like_scan(tp, [LinComb.single(k) for k in keys]) == [
        tp.group_like((a,)) for a in range(2, -3, -1)]


def test_group_like_scan_order_on_a_non_basis_span():
    tp = tensor_h()
    e0, e1, e2 = (tp.group_like((a,)) for a in range(3))
    span = [e0 + e1, e0 - e1, e2 + KS(tp, W(("h", -1)), (0,)), e2]
    assert group_like_scan(tp, span) == [e2, e1, e0]


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.lists(_RATIONALS, min_size=4, max_size=4), min_size=4, max_size=4))
def test_group_like_scan_sees_through_a_change_of_basis(matrix):
    tp = tensor_h()
    exps = [tp.group_like((a,)) for a in (-1, 0, 1)]
    base = exps + [KS(tp, W(("h", -1)), (0,))]
    span = [LinComb() for _ in base]
    for row, state in zip(matrix, span):
        for c, b in zip(row, base):
            state.add_into(b, c)
    assume(rank_of(span) == 4)
    found = group_like_scan(tp, span)
    assert len(found) == 3 and all(g in found for g in exps)


def test_component_of_and_structure():
    rep = check_component_structure(tensor_h(), max_weight=2, alpha_bound=2, window=3)
    assert rep.passed


# -- the differential bialgebra B_L -------------------------------------------------


def test_bl_monomial_sorting_and_guard():
    bl = BL(SemigroupL(1))
    m = bl.monomial([("h", -1), ("h", -3), ("h", -2)], (1,))
    assert m == KS(bl, W(("h", -3), ("h", -2), ("h", -1)), (1,))
    with pytest.raises(InputError):
        bl.monomial([("h", 0)])


def test_bl_product_merges_sorted():
    bl = BL(SemigroupL(1))
    u = bl.monomial([("h", -1)], (1,))
    v = bl.monomial([("h", -2)], (1,))
    assert bl.product(u, v) == KS(bl, W(("h", -2), ("h", -1)), (2,))


def test_bl_derivation_values():
    bl = BL(SemigroupL(1))
    assert bl.D(bl.monomial([("h", -2)])) == KS(bl, W(("h", -3)), (0,), 2)
    got = bl.D(bl.monomial([("h", -1)], (1,)))
    assert got == KS(bl, W(("h", -2)), (1,)) + KS(bl, W(("h", -1), ("h", -1)), (1,))
    # second power through the derivation, not a shortcut
    assert bl.D(bl.monomial([("h", -1)]), 2) == KS(bl, W(("h", -3)), (0,), 2)


def tuple_sorting_product(bl, u, v):
    """B_L's product as computed before it was memoised: each pair of keys
    concatenates and sorts its two words."""
    word = bl.vm.word

    def of_pair(key):
        (w1, a), (w2, b) = key
        return LinComb.single((bl._sorted_id(word(w1) + word(w2)), bl.semigroup.add(a, b)))
    return u.tensor(v).bind(of_pair)


def tuple_sorting_d(bl, state, power=1):
    """B_L's del as computed before it was memoised: each key's word is bumped
    letter by letter and sorted, on every call."""
    for _ in range(power):
        out = LinComb()
        for (w, al), c in state.items():
            w = bl.vm.word(w)
            for i, m in enumerate(w):
                bumped = bl._sorted_id(w[:i] + (Mode(m.gen, m.n - 1),) + w[i + 1:])
                out.add_into(LinComb.single((bumped, al)), -m.n * c)
            for j, a in enumerate(al):
                if a:
                    w2 = bl._sorted_id(w + (Mode(bl.names[j], -1),))
                    out.add_into(LinComb.single((w2, al)), a * c)
        state = out
    return state


@pytest.fixture(scope="module")
def bls():
    """B_L of rank 1 and 2, each with its keys of weight <= 3 and |alpha| <= 2,
    shared by all examples so that the memos are reused."""
    algebras = [BL(SemigroupL(1)), BL(SemigroupL(2))]
    return [(bl, [k for d in range(4) for k in bl.basis_keys(d, alpha_bound=2)])
            for bl in algebras]


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 1), data=st.data(), power=st.integers(1, 3))
def test_bl_memos_match_the_tuple_sorting_maps(bls, which, data, power):
    """The memoised del (at powers 1-3) and product agree with the maps that sort
    the words of every key on every call."""
    bl, keys = bls[which]
    u, v = (LinComb.single(data.draw(st.sampled_from(keys)), data.draw(_RATIONALS))
            for _ in range(2))
    assert bl.D(u, power) == tuple_sorting_d(bl, u, power)
    assert bl.product(u, v) == tuple_sorting_product(bl, u, v)
    w = u + v
    assert bl.D(w, power) == tuple_sorting_d(bl, w, power)
    assert bl.product(w, u) == tuple_sorting_product(bl, w, u)


def test_bl_bar_state_rank_two():
    bl = BL(SemigroupL(2))
    got = bl.bar_state((1, 2))
    assert got == (KS(bl, W(("h1", -1)), (0, 0)) + KS(bl, W(("h2", -1)), (0, 0), 2))


def test_bl_delta_binomials():
    bl = BL(SemigroupL(1))
    s = bl.monomial([("h", -1), ("h", -1)], (1,))
    k = K(bl, W(("h", -1), ("h", -1)), (1,))
    m = K(bl, W(("h", -1)), (1,))
    e = K(bl, (), (1,))
    want = (LinComb.single((k, e)) + LinComb.single((m, m), 2)
            + LinComb.single((e, k)))
    assert bl.delta(s) == want


def test_borcherds_modes():
    bl = BL(SemigroupL(1))
    u = bl.monomial([("h", -1)])
    assert not borcherds_mode(bl, u, 0, u)
    assert borcherds_mode(bl, u, -1, u) == bl.product(u, u)
    # a_{-2} b = (del a) b
    got = borcherds_mode(bl, bl.vacuum(), -2, bl.group_like((1,)))
    assert not got
    got = borcherds_mode(bl, bl.group_like((1,)), -2, bl.vacuum())
    assert got == KS(bl, W(("h", -1)), (1,))


def test_bl_phi_values():
    bl = BL(SemigroupL(2))
    got = bl_phi(bl, bl.group_like((1, 2)))
    assert got == bl.bar_state((1, 2))
    assert not bl_phi(bl, bl.vacuum())


def test_bl_phi_rejects_non_group_like():
    bl = BL(SemigroupL(1))
    with pytest.raises(InputError):
        bl_phi(bl, bl.group_like((1,)) * 2)
    with pytest.raises(InputError):
        bl_phi(bl, bl.monomial([("h", -1)], (1,)))
    with pytest.raises(InputError):
        bl_phi(bl, bl.group_like((1,)) + bl.group_like((2,)))


def test_bl_monomial_refuses_an_unknown_generator():
    bl = BL(SemigroupL(1))
    with pytest.raises(InputError, match="^unknown generator 'zz'$"):
        bl.monomial([("zz", -1)])
    assert bl.monomial([("h", -1)]) == bl.bar_state((1,))


def test_bl_phi_needs_inverses():
    bl = BL(SemigroupL(1, group=False))
    with pytest.raises(InputError):
        bl_phi(bl, bl.group_like((2,)))


def test_bl_bialgebra_sweep():
    rep = check_bl_bialgebra(BL(SemigroupL(1)), max_weight=3, alpha_bound=2)
    assert rep.passed
    assert "bl-phi-additivity" in {c.check_id for c in rep.checks}


def test_bl_bialgebra_semigroup_case():
    rep = check_bl_bialgebra(BL(SemigroupL(1, group=False)),
                             max_weight=2, alpha_bound=2)
    assert rep.passed
    assert "bl-phi-additivity" not in {c.check_id for c in rep.checks}


def test_bl_bialgebra_rank_two():
    rep = check_bl_bialgebra(BL(SemigroupL(2)), max_weight=2, alpha_bound=1)
    assert rep.passed


# -- B_L against the twisted tensor algebra -----------------------------------------


def test_bl_equals_tensor_phi_group():
    rep = check_bl_equals_tensor_phi(BL(SemigroupL(1)), max_weight=2,
                                     alpha_bound=1, window=3)
    assert rep.passed


def test_bl_equals_tensor_phi_semigroup():
    rep = check_bl_equals_tensor_phi(BL(SemigroupL(1, group=False)), max_weight=2,
                                     alpha_bound=2, window=4)
    assert rep.passed


def test_bl_equals_tensor_phi_rank_two():
    rep = check_bl_equals_tensor_phi(BL(SemigroupL(2)), max_weight=1,
                                     alpha_bound=1, window=3)
    assert rep.passed


def test_bl_equals_tensor_phi_compares_two_coproducts(monkeypatch):
    # B_L's Delta is multiplied out through its own product, so a product that
    # drops every word of length >= 2 no longer matches the split of V (x)_phi C[L]
    product = BL.product

    def truncated(self, u, v):
        return LinComb({k: c for k, c in product(self, u, v).items()
                        if len(self.vm.word(k[0])) < 2})
    monkeypatch.setattr(BL, "product", truncated)
    rep = check_bl_equals_tensor_phi(BL(SemigroupL(1)), max_weight=2, alpha_bound=1, window=2)
    assert "bl-equals-tensor-phi-coalgebra" in {c.check_id for c in rep.failures()}


# -- Delta and eps as vertex-algebra morphisms on V (x)_phi C[L] and B_L ------------


def heisenberg_centre():
    pres = heisenberg(1)
    return TensorPhiAlgebra(VacuumModule(pres), SemigroupL(1), PhiMap(pres, [pres.element("c")]))


def test_delta_morphism_on_tensor_phi_heisenberg_centre():
    tp = heisenberg_centre()
    rep = check_delta_morphism(tp, tp.basis_states(1, torsion_bound=1, alpha_bound=1),
                               range(-2, 3))
    assert rep.passed, rep.summary()
    assert {c.details for c in rep.checks} == {"720 instances checked"}


def test_delta_morphism_on_bl():
    bl = BL(SemigroupL(1))
    rep = check_delta_morphism(bl, bl.basis_states(2, alpha_bound=1), range(-2, 3))
    assert rep.passed, rep.summary()
    assert {c.details for c in rep.checks} == {"720 instances checked"}


class RightLegUntagged(TensorPhiAlgebra):
    """V (x)_phi C[L] whose Delta tags the right leg e^0 instead of e^alpha: still
    coassociative, but not a morphism for the twisted modes."""

    def delta(self, state):
        zero = self.semigroup.zero()
        return super().delta(state).map_keys(lambda k: (k[0], (k[1][0], zero)))


def test_delta_morphism_fails_when_delta_drops_a_tag():
    tp = heisenberg_centre()
    bad = RightLegUntagged(tp.vm, tp.semigroup, tp.phi)
    rep = check_delta_morphism(bad, bad.basis_states(1, torsion_bound=1, alpha_bound=1),
                               range(-2, 3))
    failed = {c.check_id: c.witness for c in rep.failures()}
    assert failed == {"delta-mode-morphism": "Delta not multiplicative at "
                      "(|0⟩⊗e^{(-1)})_-2(|0⟩⊗e^{(-1)}) (+143 more)"}


# -- universal extension from B_L ----------------------------------------------------


def test_extend_universal_morphism_doubling():
    bl = BL(SemigroupL(1))

    def psi(al):
        return bl.group_like((2 * al[0],))

    def phi_b(i):
        return bl.monomial([("h", -1)]) * 2

    f, rep = extend_universal_morphism(bl, bl, psi, phi_b, max_weight=2, alpha_bound=1)
    assert rep.passed
    assert f(bl.monomial([("h", -1)], (1,))) == KS(bl, W(("h", -1)), (2,), 2)
    # h(-2) = del h(-1), so its image is del(2 h(-1)) = 2 h(-2)
    assert f(bl.monomial([("h", -2)], (1,))) == KS(bl, W(("h", -2)), (2,), 2)


def test_extend_universal_morphism_rejects_incompatible_derivative():
    bl = BL(SemigroupL(1))

    def phi_b(i):
        return bl.monomial([("h", -1)]) * 2

    with pytest.raises(MorphismError) as err:
        extend_universal_morphism(bl, bl, lambda al: bl.group_like(al), phi_b,
                                  max_weight=1, alpha_bound=1)
    assert err.value.witness == "(-1,)"


def test_extend_universal_morphism_rejects_non_group_like():
    bl = BL(SemigroupL(1))

    def psi(al):
        if al == (0,):
            return bl.vacuum()
        return bl.group_like(al) + bl.monomial([("h", -1)], al)

    with pytest.raises(MorphismError):
        extend_universal_morphism(bl, bl, psi, lambda i: bl.monomial([("h", -1)]),
                                  max_weight=1, alpha_bound=1)


def test_extend_universal_morphism_into_tensor_phi():
    bl = BL(SemigroupL(1))
    tp = tensor_h()

    def psi(al):
        return tp.group_like(al)

    def phi_b(i):
        return tp.embed(V(tp.vm, W(("h", -1))))

    f, rep = extend_universal_morphism(bl, tp, psi, phi_b, max_weight=2, alpha_bound=1)
    assert rep.passed
    assert f(bl.monomial([("h", -1), ("h", -1)])) == KS(tp, W(("h", -1), ("h", -1)), (0,))


def unit_refusal(bl):
    """(target, psi, phi_B) with psi(e^0) = h(-1)."""
    return bl, lambda al: bl.monomial([("h", -1)]), lambda i: bl.monomial([("h", -1)])


def group_like_refusal(bl):
    """psi(e^al) = e^al + h(-1)e^al off e^0, as in the non-group-like test above."""
    def psi(al):
        return bl.vacuum() if al == (0,) else bl.group_like(al) + bl.monomial([("h", -1)], al)
    return bl, psi, lambda i: bl.monomial([("h", -1)])


def multiplicative_refusal(bl):
    """psi(e^al) = e^(al0^2) in V (x)_phi C[L] with phi = 0, and phi_B = 0: each
    psi(e^al) is group-like with del psi(e^al) = 0, but psi(e^-1) psi(e^1) = e^2."""
    pres = abelian(1)
    tp = TensorPhiAlgebra(VacuumModule(pres), SemigroupL(1), PhiMap(pres, [LinComb()]))
    return tp, lambda al: tp.group_like((al[0] ** 2,)), lambda i: LinComb()


@pytest.mark.parametrize("refusal, message, witness", [
    (unit_refusal, "psi(e^0) is not the unit", "(0,)"),
    (group_like_refusal, "psi(e^(-1,)) is not group-like", "(-1,)"),
    (multiplicative_refusal, "psi is not multiplicative", "(-1,),(1,)"),
], ids=["unit", "group-like", "multiplicative"])
def test_extend_universal_morphism_refusal_texts(refusal, message, witness):
    bl = BL(SemigroupL(1))
    target, psi, phi_b = refusal(bl)
    with pytest.raises(MorphismError) as err:
        extend_universal_morphism(bl, target, psi, phi_b, max_weight=1, alpha_bound=1)
    assert (str(err.value), err.value.witness) == (message, witness)


# -- induced morphisms out of a vacuum module ----------------------------------------


def test_induced_morphism_into_bl():
    pres, vm = abelian_vm()
    bl = BL(SemigroupL(1))
    psi, rep = induced_vertex_morphism(pres, {"h": bl.monomial([("h", -1)])}, bl,
                                       max_weight=2, window=3, torsion_bound=0)
    assert rep.passed
    for n in range(4):
        assert psi(V(vm, W(*[("h", -1)] * n))) == KS(bl, W(*[("h", -1)] * n), (0,))
    assert psi(V(vm, W(("h", -2)))) == KS(bl, W(("h", -2)), (0,))


def test_induced_morphism_keeps_the_embedding_it_checked():
    # an edit to the caller's dict after the build must not reach psi
    pres, vm = abelian_vm()
    h = V(vm, W(("h", -1)))
    embedding = {"h": h}
    psi, rep = induced_vertex_morphism(pres, embedding, vm, max_weight=1, window=1)
    embedding["h"] = 5 * h
    assert rep.passed
    assert psi(h) == h


def test_induced_morphism_group_like_image_breaks_delta_only():
    # h -> e^1 is a legal vertex-algebra map out of a free commutative V,
    # but e^1 is not primitive, so only the coalgebra checks fail
    pres, vm = abelian_vm()
    bl = BL(SemigroupL(1))
    psi, rep = induced_vertex_morphism(pres, {"h": bl.group_like((1,))}, bl,
                                       max_weight=2, window=3, torsion_bound=0)
    by_id = {c.check_id: c.passed for c in rep.checks}
    assert by_id["morphism-modes"]
    assert not by_id["morphism-delta"]
    assert not by_id["morphism-counit"]


def test_induced_morphism_rejects_broken_products():
    pres = virasoro()
    bl = BL(SemigroupL(1))
    img = {"L": bl.monomial([("h", -1), ("h", -1)], ) * Fraction(1, 2),
           "c": bl.vacuum() * 0}
    with pytest.raises(MorphismError):
        induced_vertex_morphism(pres, img, bl, max_weight=2, window=2)


def test_induced_morphism_rejects_moving_torsion():
    pres = Presentation([Generator("h", 1), Generator("t", 0, torsion=True)], {})
    target_pres, target = abelian_vm()
    img = {"h": V(target, W(("h", -1))), "t": V(target, W(("h", -2)))}
    with pytest.raises(MorphismError) as err:
        induced_vertex_morphism(pres, img, target, max_weight=1, window=2)
    assert err.value.witness == "t"


def test_induced_morphism_missing_generator():
    pres = heisenberg(1)
    target = VacuumModule(pres)
    with pytest.raises(MorphismError):
        induced_vertex_morphism(pres, {"h": V(target, W(("h", -1)))}, target)


def test_induced_morphism_missing_generator_names_it():
    pres = heisenberg(1)
    target = VacuumModule(pres)
    with pytest.raises(MorphismError) as err:
        induced_vertex_morphism(pres, {"h": V(target, W(("h", -1)))}, target)
    assert (str(err.value), err.value.witness) == ("no image for generator c", "c")


def test_induced_morphism_identity_on_heisenberg():
    pres = heisenberg(1)
    vm = VacuumModule(pres)
    img = {"h": V(vm, W(("h", -1))), "c": V(vm, W(("c", -1)))}
    psi, rep = induced_vertex_morphism(pres, img, vm, max_weight=2, window=3)
    assert rep.passed
    s = V(vm, W(("h", -2), ("h", -1)))
    assert psi(s) == s


# -- fresh results, a counit of B_L's own, and the unsampled mode commutation ---------------


def test_tensor_phi_public_results_are_fresh_states():
    # mutating a returned state leaves the memo entries behind it whole
    tp = heisenberg_centre()
    u, v = KS(tp, W(("h", -1)), (1,)), KS(tp, W(("h", -2)), (-1,))
    calls = {"state_mode": lambda: tp.state_mode(u, -1, v), "D": lambda: tp.D(u),
             "delta": lambda: tp.delta(u), "product": lambda: tp.product(v, u)}
    for name, call in calls.items():
        got = call()
        want = LinComb(got.terms)
        assert got, name
        got.add_into(want, -1)
        got.add_into(LinComb.single(next(iter(want.keys()))), 7)
        assert call() == want, name


def test_bl_counit_is_its_own_algebra_map(monkeypatch):
    bl = BL(SemigroupL(1))
    assert bl.eps(bl.group_like((3,)) * 2) == 2
    assert bl.eps(bl.monomial([("h", -1)], (1,)) + bl.vacuum()) == 1
    eps = BL.eps
    monkeypatch.setattr(BL, "eps", lambda self, state: eps(self, state) + 1)
    rep = check_bl_equals_tensor_phi(BL(SemigroupL(1)), max_weight=2, alpha_bound=1, window=2)
    assert {c.check_id for c in rep.failures()} == {"bl-equals-tensor-phi-coalgebra"}


def test_group_like_mode_commutation_runs_on_every_weight_one_key():
    # rank 2: 9 alphas, 2 weight-1 words x 9 tags = 18 keys (4 when sampled)
    rep = check_group_like_semigroup(tensor_h(rank=2), alpha_bound=1)
    (check,) = [c for c in rep.checks if c.check_id == "group-like-mode-commutation"]
    assert check.passed and check.details == "36450 instances checked"
