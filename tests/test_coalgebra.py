from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel import coalgebra as co
from vertexkernel.constructions import BL, SemigroupL, check_bl_bialgebra
from vertexkernel.current import Mode
from vertexkernel.enveloping import VacuumModule
from vertexkernel.errors import UnsupportedError
from vertexkernel.lincomb import LinComb
from vertexkernel.vla import abelian, heisenberg, virasoro


def W(*modes):
    return tuple(Mode(g, n) for g, n in modes)


def S(word, coeff=1):
    return LinComb.single(word, coeff)


def T(w1, w2, coeff=1):
    return LinComb.single((w1, w2), coeff)


def V(vm, word, coeff=1):
    """The state coeff·word of vm, built through its edge API."""
    return coeff * vm.word_state(word)


def VT(vm, w1, w2, coeff=1):
    """The tensor coeff·w1 (x) w2 of two words of vm."""
    return LinComb.single((vm.word_id(w1), vm.word_id(w2)), coeff)


def outcomes(rep):
    """check id -> witness of a failed check, or the details of a passed one."""
    return {c.check_id: c.witness or c.details for c in rep.checks}


# -- Delta and eps on the vacuum module ----------------------------------------------


def test_delta_of_vacuum():
    vm = VacuumModule(virasoro())
    assert co.delta_state(vm, vm.vacuum()) == VT(vm, (), ())


def test_delta_single_mode_is_primitive():
    vm = VacuumModule(virasoro())
    w = W(("L", -1))
    assert co.delta_state(vm, V(vm, w)) == VT(vm, w, ()) + VT(vm, (), w)


def test_delta_square_has_binomial_cross_term():
    vm = VacuumModule(abelian(1))
    hh = W(("h", -1), ("h", -1))
    h = W(("h", -1))
    got = co.delta_state(vm, V(vm, hh))
    assert got == VT(vm, hh, ()) + VT(vm, h, h, 2) + VT(vm, (), hh)


def test_counit_values():
    vm = VacuumModule(virasoro())
    assert vm.eps(vm.vacuum()) == 1
    assert vm.eps(V(vm, W(("L", -1)))) == 0
    assert vm.eps(3 * vm.vacuum() + V(vm, W(("L", -2)))) == 3


# -- primitives -----------------------------------------------------------------------


def test_primitive_subspace_virasoro_weight4():
    vm = VacuumModule(virasoro())
    # the weight-4 piece is {L(-3)|0>, L(-1)^2|0>}; only the first is primitive
    basis = co.primitive_subspace(vm, 4, 0)
    assert basis == [V(vm, W(("L", -3)))]


def test_primitive_subspace_virasoro_free_dims():
    vm = VacuumModule(virasoro())
    assert len(co.primitive_subspace(vm, 1, 0)) == 0
    for d in range(2, 7):
        assert len(co.primitive_subspace(vm, d, 0)) == 1


def test_primitive_subspace_torsion_degree():
    vm = VacuumModule(virasoro())
    assert co.primitive_subspace(vm, 0, 0) == []
    assert co.primitive_subspace(vm, 0, 2) == [V(vm, W(("c", -1)))]


def test_primitive_subspace_abelian():
    vm = VacuumModule(abelian(1))
    assert co.primitive_subspace(vm, 2, 0) == [V(vm, W(("h", -2)))]
    for d in range(1, 5):
        assert len(co.primitive_subspace(vm, d, 0)) == 1


def test_is_primitive_spot():
    vm = VacuumModule(heisenberg(1))
    assert co.is_primitive(vm, V(vm, W(("h", -4))))
    assert co.is_primitive(vm, V(vm, W(("c", -1))))
    assert not co.is_primitive(vm, vm.vacuum())
    assert not co.is_primitive(vm, V(vm, W(("h", -1), ("h", -1))))


# -- group-likes ----------------------------------------------------------------------


def test_is_group_like_spot():
    vm = VacuumModule(abelian(1))
    assert co.is_group_like(vm, vm.vacuum())
    assert not co.is_group_like(vm, V(vm, W(("h", -1))))  # eps = 0
    assert not co.is_group_like(vm, vm.vacuum() + V(vm, W(("h", -1))))


def test_group_like_scan_finds_only_vacuum():
    vm = VacuumModule(virasoro())
    span = [LinComb.single(w) for k in (0, 1, 2)
            for w in vm.basis_words(0, k) if len(vm.word(w)) == k]
    assert span[0] == vm.vacuum() and len(span) == 3
    assert co.group_like_scan(vm, span) == [vm.vacuum()]


def test_group_like_scan_abelian_span():
    vm = VacuumModule(abelian(1))
    span = [vm.vacuum(), V(vm, W(("h", -1)))]
    assert co.group_like_scan(vm, span) == [vm.vacuum()]


def test_group_like_scan_has_no_dimension_cap():
    vm = VacuumModule(abelian(3))
    span = [vm.vacuum()] + [LinComb.single(w) for w in vm.basis_words(1, 0)]
    span += [LinComb.single(w) for w in vm.basis_words(2, 0)]
    assert len(span) == 13
    assert co.group_like_scan(vm, span) == [vm.vacuum()]


def test_group_like_scan_refuses_a_dependent_span():
    vm = VacuumModule(abelian(1))
    with pytest.raises(UnsupportedError):
        co.group_like_scan(vm, [vm.vacuum(), 2 * vm.vacuum()])


class SqrtTwoCoalgebra:
    """Keys "1" and "s" with Delta 1 = 1(x)1 + 2 s(x)s, Delta s = 1(x)s + s(x)1
    and eps(1) = 1: cocommutative, with group-likes 1 +- sqrt(2) s, which are not
    rational."""

    _delta = {"1": T("1", "1") + T("s", "s", 2), "s": T("1", "s") + T("s", "1")}

    def delta(self, state):
        return state.bind(self._delta.__getitem__)

    def eps(self, state):
        return state.get("1")


def test_group_like_scan_refuses_irrational_group_likes():
    toy = SqrtTwoCoalgebra()
    assert not co.coassociativity_defect(toy, S("1") + S("s"))
    with pytest.raises(UnsupportedError):
        co.group_like_scan(toy, [S("1"), S("s")])


def test_group_like_scan_finds_only_the_unit_of_dp_and_ue():
    dp = co.DividedPowerBialgebra(2)
    span = [S(f) for d in range(3) for f in dp.basis(d)]
    assert co.group_like_scan(dp, span) == [dp.vacuum()]
    ue = co.UniversalEnveloping(co.LieAlgebra(["x", "y"], {(0, 1): {1: 1}}))
    span = [S(w) for d in range(3) for w in ue.basis_words(d)]
    assert co.group_like_scan(ue, span) == [ue.vacuum()]


# -- coalgebra axioms -----------------------------------------------------------------


def test_coassociativity_spot():
    vm = VacuumModule(virasoro())
    assert not co.coassociativity_defect(vm, V(vm, W(("L", -2), ("L", -1))))


def test_d_coderivation_spot():
    vm = VacuumModule(heisenberg(1))
    assert not co.d_coderivation_defect(vm, V(vm, W(("h", -2), ("h", -1))))


def test_check_coalgebra_fixtures():
    for pres in (virasoro(), heisenberg(1), abelian(1)):
        rep = co.check_coalgebra(VacuumModule(pres), max_weight=4, torsion_bound=1)
        assert rep.passed, rep.summary()


def test_check_delta_morphism_sweep():
    vm = VacuumModule(virasoro())
    rep = co.check_delta_morphism(vm, vm.basis_states(2, 1), range(-2, 3))
    assert rep.passed, rep.summary()


def test_check_delta_morphism_cases():
    vm = VacuumModule(virasoro())
    L = vm.embed(vm.pres.element("L"))
    cases = [
        (L, 1, V(vm, W(("L", -1)))),
        (vm.vacuum(), -1, V(vm, W(("L", -2), ("L", -1)))),
        (L, -2, vm.vacuum()),
    ]
    for u, n, v in cases:
        assert not co.delta_morphism_defect(vm, u, n, v)
        assert not co.counit_mode_defect(vm, u, n, v)


def test_delta_morphism_defect_sees_wrong_coproduct():
    # sanity: the defect is not identically zero as a formula
    vm = VacuumModule(virasoro())
    L = vm.embed(vm.pres.element("L"))
    bad = co.delta_morphism_defect(vm, L, -1, V(vm, W(("L", -1))) + vm.vacuum())
    assert not bad  # the true coproduct leaves no defect
    lhs = vm.delta(vm.state_mode(L, -3, L))
    assert lhs != vm.state_mode(L, -3, L).tensor(vm.vacuum())


def test_counit_mode_rule():
    vm = VacuumModule(heisenberg(1))
    h = vm.embed(vm.pres.element("h"))
    for n in range(-3, 3):
        assert not co.counit_mode_defect(vm, h, n, h)
    assert not co.counit_mode_defect(vm, vm.vacuum(), -1, vm.vacuum())


# -- divided powers -------------------------------------------------------------------


def test_dp_product_values():
    assert co.dp_product((1,), (1,)) == (Fraction(2), (2,))
    assert co.dp_product((0, 0), (2, 1)) == (Fraction(1), (2, 1))
    assert co.dp_product((2,), (3,)) == (Fraction(10), (5,))


def test_dp_delta_values():
    assert co.dp_delta((2,)) == (LinComb.single(((2,), (0,))) +
                                 LinComb.single(((1,), (1,))) +
                                 LinComb.single(((0,), (2,))))
    assert co.dp_delta(()) == LinComb.single(((), ()))
    assert len(co.dp_delta((1, 1))) == 4


def test_dp_bialgebra_axioms():
    rep = co.DividedPowerBialgebra(2).check_bialgebra(max_degree=4)
    assert rep.passed, rep.summary()


def test_dp_associativity_counts_the_triples_run():
    # rank 1, degree <= 3: 4 states, 10 pairs, each against all 4 states
    rep = co.DividedPowerBialgebra(1).check_bialgebra(3)
    assert outcomes(rep)["associativity"] == "40 instances checked"
    # rank 2, degree <= 4: 70 pairs, each against all 15 states, not only the
    # 6 of degree <= 2
    rep = co.DividedPowerBialgebra(2).check_bialgebra(4)
    assert outcomes(rep)["associativity"] == "1050 instances checked"


def test_dp_product_linearized():
    dp = co.DividedPowerBialgebra(1)
    x2 = LinComb.single((2,))
    x3 = LinComb.single((3,))
    assert dp.product(x2, x3) == LinComb.single((5,), 10)
    assert dp.eps(dp.vacuum()) == 1


def test_dp_primitive_basis_is_degree_one():
    dp = co.DividedPowerBialgebra(2)
    states = [LinComb.single(f) for d in range(4) for f in dp.basis(d)]
    got = co.primitive_basis(dp, states)
    assert sorted(tuple(s.items()) for s in got) == [(((0, 1), 1),), (((1, 0), 1),)]
    assert all(co.is_primitive(dp, s) for s in got)


# -- Lie algebras and U(g) ------------------------------------------------------------


def two_dim_nonabelian():
    # [x, y] = y
    return co.LieAlgebra(["x", "y"], {(0, 1): {1: 1}})


def sl2():
    # ordered basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return co.LieAlgebra(["h", "e", "f"],
                         {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def test_lie_validate_passes():
    assert two_dim_nonabelian().validate().passed
    assert sl2().validate().passed
    assert co.LieAlgebra(["x", "y", "z"]).validate().passed


def test_lie_bracket_returns_a_value_the_caller_owns():
    lie = two_dim_nonabelian()
    lie.bracket(0, 0).add_into(LinComb.single(1))
    lie.bracket(0, 1).add_into(LinComb.single(0))
    lie.bracket(1, 0).add_into(LinComb.single(0))
    assert lie.bracket(1, 1) == LinComb()
    assert lie.bracket(0, 1) == LinComb.single(1)
    assert lie.bracket(1, 0) == LinComb.single(1, -1)


def test_lie_validate_catches_jacobi_failure():
    bad = co.LieAlgebra(["x", "y", "z"],
                        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: -1}})
    assert not bad.validate().passed


def test_ue_straighten_two_dim():
    ue = co.UniversalEnveloping(two_dim_nonabelian())
    # y·x = x·y - y
    assert ue.straighten((1, 0)) == S((0, 1)) - S((1,))


def bubble_sort_straighten(lie, word):
    """Reference PBW normal form: swap the first out-of-order neighbours and add
    the bracket as a correction, until every word is sorted."""
    out, todo = LinComb(), LinComb.single(tuple(word))
    while todo:
        nxt = LinComb()
        for w, c in todo.items():
            i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
            if i is None:
                out.add_into(LinComb.single(w, c))
                continue
            nxt.add_into(LinComb.single(w[:i] + (w[i + 1], w[i]) + w[i + 2:], c))
            for k, ck in lie.bracket(w[i], w[i + 1]).items():
                nxt.add_into(LinComb.single(w[:i] + (k,) + w[i + 2:], c * ck))
        todo = nxt
    return out


@settings(deadline=None)
@given(st.sampled_from([two_dim_nonabelian(), sl2()]), st.data())
def test_ue_straighten_equals_bubble_sort(lie, data):
    word = data.draw(st.lists(st.integers(0, len(lie.names) - 1), max_size=6))
    assert co.UniversalEnveloping(lie).straighten(tuple(word)) == bubble_sort_straighten(lie, word)


def test_ue_straighten_long_unsorted_word():
    # the bubble sort recursed once per inversion: 1600 of them here
    got = co.UniversalEnveloping(two_dim_nonabelian()).straighten((1,) * 40 + (0,) * 40)
    assert len(got) == 41
    assert got.get((0,) * 40 + (1,) * 40) == 1


def recursive_apply_letter(ue, i, word):
    """x_i on a sorted word, recursing once per letter it moves past."""
    if not word or i <= word[0]:
        return LinComb.single((i,) + word)
    head, rest = word[0], word[1:]
    out = recursive_apply_letter(ue, i, rest).bind(lambda x: recursive_apply_letter(ue, head, x))
    out.add_into(ue.lie.bracket(i, head).bind(lambda k: recursive_apply_letter(ue, k, rest)))
    return out


@settings(deadline=None)
@given(st.sampled_from([two_dim_nonabelian(), sl2()]), st.data())
def test_ue_apply_letter_matches_the_recursion(lie, data):
    n = len(lie.names)
    word = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), max_size=7))))
    i = data.draw(st.integers(0, n - 1))
    ue = co.UniversalEnveloping(lie)
    assert ue._apply_letter(i, word) == recursive_apply_letter(ue, i, word)


def test_ue_straighten_walks_a_deep_word():
    # y moved past 1500 letters x, [x, y] = z central: y x^k = x^k y - k x^(k-1) z.
    # Recursing once per letter raised RecursionError here.
    ue = co.UniversalEnveloping(co.LieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}}))
    got = ue.straighten((1,) + (0,) * 1500)
    assert got == S((0,) * 1500 + (1,)) - S((0,) * 1499 + (2,), 1500)


def test_ue_primitive_basis_is_degree_one():
    ue = co.UniversalEnveloping(two_dim_nonabelian())
    words = [(), (0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 1)]
    got = co.primitive_basis(ue, [LinComb.single(w) for w in words])
    assert sorted(tuple(s.items()) for s in got) == [(((0,), 1),), (((1,), 1),)]


def test_ue_product_commutator():
    ue = co.UniversalEnveloping(sl2())
    e, f, h = S((1,)), S((2,)), S((0,))
    assert ue.product(e, f) - ue.product(f, e) == h


def test_ue_delta_of_ordered_pair():
    ue = co.UniversalEnveloping(two_dim_nonabelian())
    got = ue.delta(S((0, 1)))
    want = T((0, 1), ()) + T((0,), (1,)) + T((1,), (0,)) + T((), (0, 1))
    assert got == want


def test_ue_delta_straightens_first():
    ue = co.UniversalEnveloping(two_dim_nonabelian())
    got = ue.delta(S((1, 0)))
    xy = T((0, 1), ()) + T((0,), (1,)) + T((1,), (0,)) + T((), (0, 1))
    y = T((1,), ()) + T((), (1,))
    assert got == xy - y


def test_ue_bialgebra_axioms():
    assert co.UniversalEnveloping(two_dim_nonabelian()).check_bialgebra(3).passed
    assert co.UniversalEnveloping(sl2()).check_bialgebra(3).passed


def test_ue_multiplicativity_counts_delta_and_eps_per_pair():
    # sl2 up to degree 3: 84 pairs of PBW words, each checked for Delta and eps
    rep = co.UniversalEnveloping(sl2()).check_bialgebra(3)
    assert outcomes(rep)["delta-multiplicative"] == "168 instances checked"


def test_psi_values():
    ue = co.UniversalEnveloping(two_dim_nonabelian())
    assert ue.psi((1, 1)) == S((0, 1))
    assert ue.psi((2, 0)) == S((0, 0), Fraction(1, 2))
    assert ue.psi((0, 0)) == ue.vacuum()
    abel = co.LieAlgebra(["x"])
    assert co.psi_g((3,), abel) == S((0, 0, 0), Fraction(1, 6))


def test_psi_coalgebra_morphism():
    assert co.check_psi_coalgebra(co.LieAlgebra(["x", "y"]), 4).passed
    assert co.check_psi_coalgebra(two_dim_nonabelian(), 4).passed
    assert co.check_psi_coalgebra(sl2(), 3).passed


# -- failure paths of the shared coalgebra checkers -----------------------------------


def lopsided(cls, degree):
    """cls with the x (x) 1 term of Delta(x) doubled for every basis key of degree
    1; degree(obj, key) reads the degree of a key of obj."""
    class Lopsided(cls):
        def delta(self, state):
            out = LinComb().add_into(super().delta(state))
            for key, c in state.items():
                if degree(self, key) == 1:
                    for (k1, k2), c2 in super().delta(LinComb.single(key)).items():
                        if k1 == key:
                            out.add_into(LinComb.single((k1, k2)), c * c2)
            return out
    return Lopsided


def test_lopsided_dp_coassociativity_uses_its_own_delta_on_both_legs():
    rep = lopsided(co.DividedPowerBialgebra, lambda dp, key: sum(key))(2).check_bialgebra(3)
    got = outcomes(rep)
    # degree 1, 2 and 3: 2 + 3 + 4 states, every inner Delta lopsided too
    assert got["coassociativity"] == "coassociativity fails at (0, 1) (+8 more)"
    assert got["counit-law"] == "counit law fails at (0, 1) (+1 more)"
    assert got["cocommutativity"] == "cocommutativity fails at (0, 1) (+1 more)"
    assert got["bialgebra-compatibility"] == "Delta not multiplicative (+15 more)"
    assert got["associativity"] == "350 instances checked"


def test_lopsided_vacuum_module_coalgebra_report():
    vm = lopsided(VacuumModule, lambda vm, w: len(vm.word(w)))(heisenberg(1))
    rep = co.check_coalgebra(vm, max_weight=3)
    assert outcomes(rep) == {
        "coassociativity": "coassociativity fails at c(-1)|0⟩ (+12 more)",
        "counit-law": "counit law fails at c(-1)|0⟩ (+3 more)",
        "cocommutativity": "cocommutativity fails at c(-1)|0⟩ (+3 more)",
        "d-coderivation": "14 instances checked",
    }


def test_lopsided_bl_bialgebra_report():
    bl = lopsided(BL, lambda bl, key: len(bl.vm.word(key[0])))(SemigroupL(1))
    rep = check_bl_bialgebra(bl, 2, 1)
    assert outcomes(rep) == {
        "coassociativity": "coassociativity fails at h(-1)|0⟩⊗e^{(-1)} (+8 more)",
        "counit-law": "counit law fails at h(-1)|0⟩⊗e^{(-1)} (+5 more)",
        "cocommutativity": "cocommutativity fails at h(-1)|0⟩⊗e^{(-1)} (+5 more)",
        "d-coderivation": "Delta(del u) != (del(x)1 + 1(x)del)Delta(u) at |0⟩⊗e^{(-1)} (+5 more)",
        "counit-kills-d": "12 instances checked",
        "delta-multiplicative": "Delta not multiplicative (+8 more)",
        "counit-multiplicative": "72 instances checked",
        "d-derivation": "72 instances checked",
        "bl-phi-additivity": "9 instances checked",
    }
