from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel.constructions import BL, SemigroupL
from vertexkernel.current import Mode, bracket, mode_normalize
from vertexkernel.enveloping import VacuumModule
from vertexkernel.errors import InputError
from vertexkernel.lincomb import LinComb, inv_factorial
from vertexkernel.serialize import load_presentation, read_json_file
from vertexkernel.vla import abelian, heisenberg, virasoro

SL2 = Path(__file__).with_name("affine_sl2_level1.json")


def W(*modes):
    return tuple(Mode(g, n) for g, n in modes)


def S(vm, word, coeff=1):
    """The state coeff·word of vm, built through its edge API."""
    return coeff * vm.word_state(word)


def partitions_with_parts(total, parts):
    """Brute-force count of multisets from `parts` (with repetition) summing to total."""
    parts = sorted(parts)

    def rec(left, idx):
        if left == 0:
            return 1
        if idx == len(parts) or parts[idx] > left:
            return 0
        return rec(left - parts[idx], idx) + rec(left, idx + 1)

    return rec(total, 0)


def test_pbw_sort_order():
    vm = VacuumModule(heisenberg(2))
    # |n| descending, generator index on ties, torsion last
    modes = [Mode("c", -1), Mode("h1", -1), Mode("h2", -3), Mode("h1", -3), Mode("h2", -1)]
    modes.sort(key=vm.sort_key)
    assert modes == [Mode("h1", -3), Mode("h2", -3), Mode("h1", -1), Mode("h2", -1), Mode("c", -1)]


def test_straighten_sorted_word_fixed():
    vm = VacuumModule(virasoro())
    w = W(("L", -2), ("L", -1))
    assert vm.straighten(vm.word_id(w)) == S(vm, w)


def test_straighten_virasoro_swap():
    vm = VacuumModule(virasoro())
    got = vm.straighten(vm.word_id(W(("L", -1), ("L", -2))))
    want = S(vm, W(("L", -2), ("L", -1))) + S(vm, W(("L", -4),))
    assert got == want


def test_straighten_heisenberg_commutes():
    vm = VacuumModule(heisenberg(1))
    got = vm.straighten(vm.word_id(W(("h", -1), ("h", -3), ("h", -2))))
    assert got == S(vm, W(("h", -3), ("h", -2), ("h", -1)))


def straighten_reference(vm, word):
    """Independent straightener: pivots on the LAST out-of-order pair."""
    word = tuple(word)
    pos = -1
    for i in range(len(word) - 1):
        if vm.sort_key(word[i]) > vm.sort_key(word[i + 1]):
            pos = i
    if pos < 0:
        return S(vm, word)
    a, b = word[pos], word[pos + 1]
    out = LinComb()
    out.add_into(straighten_reference(vm, word[:pos] + (b, a) + word[pos + 2:]))
    for m, c in bracket(vm.pres, a, b).items():
        out.add_into(straighten_reference(vm, word[:pos] + (m,) + word[pos + 2:]), c)
    return out


def test_straighten_confluent():
    # the normal form does not depend on the rewriting strategy
    import itertools
    for pres in [virasoro(), heisenberg(1)]:
        vm = VacuumModule(pres)
        g = pres.generators[0].name
        base = W((g, -3), (g, -2), (g, -1), (g, -1))
        for p in itertools.permutations(base):
            assert vm.straighten(vm.word_id(p)) == straighten_reference(vm, p), p


def _word_modes(pres):
    """Every mode of a generator with index in [-4, -1]; torsion generators at -1 only."""
    return [Mode(g.name, n) for g in pres.generators
            for n in ([-1] if g.torsion else range(-4, 0))]


@settings(deadline=None)
@given(st.data())
def test_straighten_matches_reference_and_mode_action(data):
    pres = data.draw(st.sampled_from([virasoro(), heisenberg(2)]))
    word = tuple(data.draw(st.lists(st.sampled_from(_word_modes(pres)), max_size=6)))
    vm = VacuumModule(pres)
    got = vm.straighten(vm.word_id(word))
    assert got == straighten_reference(vm, word)
    state = vm.vacuum()
    for m in reversed(word):
        state = vm.mode_apply(m.gen, m.n, state)
    assert state == got


def test_straighten_long_reversed_word():
    # h(-1)h(-2)...h(-150): 11175 inversions, one sorted word, no recursion limit
    vm = VacuumModule(heisenberg(1))
    word = W(*[("h", -n) for n in range(1, 151)])
    assert vm.straighten(vm.word_id(word)) == S(vm, word[::-1])


def test_mode_action_walks_a_long_word_in_a_loop():
    # h(1) moves past all 1500 letters of h(-1)^1500|0>; a walk that recursed once
    # per letter reached Python's default recursion limit near 985
    vm = VacuumModule(heisenberg(1))
    h = Mode("h", -1)
    got = vm.mode_apply("h", 1, vm.word_state((h,) * 1500))
    assert got == S(vm, (h,) * 1499 + (Mode("c", -1),), 1500)


def test_straighten_is_multiplicative():
    # straighten(u ++ v) equals acting with u's modes on straighten(v)
    vm = VacuumModule(virasoro())
    u = W(("L", -1), ("L", -3))
    v = W(("L", -2), ("L", -1))
    lhs = vm.straighten(vm.word_id(u + v))
    rhs = vm.straighten(vm.word_id(v))
    for m in reversed(u):
        rhs = vm.mode_apply(m.gen, m.n, rhs)
    assert lhs == rhs


def test_mode_apply_annihilation():
    vm = VacuumModule(virasoro())
    vac = vm.vacuum()
    for n in range(0, 5):
        assert not vm.mode_apply("L", n, vac)
    assert vm.mode_apply("L", -2, vac) == S(vm, W(("L", -2)))


def test_mode_apply_classical_virasoro_actions():
    vm = VacuumModule(virasoro())
    # L(1) h = [L(1), L(-1)] |0> = 2 L(-1)|0>
    got = vm.mode_apply("L", 1, S(vm, W(("L", -1))))
    assert got == S(vm, W(("L", -1)), 2)
    # L(2) L(-2)|0> = 4 L(-1)|0>
    got = vm.mode_apply("L", 2, S(vm, W(("L", -2))))
    assert got == S(vm, W(("L", -1)), 4)
    # L(3) L(-1)|0> = (1/2) c(-1)|0>
    got = vm.mode_apply("L", 3, S(vm, W(("L", -1))))
    assert got == S(vm, W(("c", -1)), Fraction(1, 2))


def test_mode_apply_heisenberg_number_operator():
    vm = VacuumModule(heisenberg(1))
    # h(n) h(-n)^k |0> = k*n * h(-n)^(k-1) c(-1)|0>: the central element stays
    # a PBW generator here, it is not the scalar 1
    for n in range(1, 4):
        for k in range(1, 4):
            word = W(*[("h", -n)] * k)
            got = vm.mode_apply("h", n, S(vm, word))
            assert got == S(vm, word[1:] + W(("c", -1)), k * n)


def test_mode_apply_refuses_an_unknown_generator():
    vm = VacuumModule(virasoro())
    with pytest.raises(InputError, match="^unknown generator 'zz'$"):
        vm.mode_apply("zz", -1, vm.vacuum())
    # the refused mode left no id behind
    with pytest.raises(InputError):
        vm.mode_id(("zz", -1))
    assert vm.mode_apply("L", -2, vm.vacuum()) == S(vm, W(("L", -2)))


@pytest.mark.parametrize("n", [-1.5, Fraction(-3, 2), -2.0, True],
                         ids=["-1.5", "-3/2", "-2.0", "True"])
def test_mode_indices_must_be_integral(n):
    vm = VacuumModule(virasoro())
    if n != int(n):
        with pytest.raises(InputError, match=r"^L\(.*\): a mode index must be an integer$"):
            vm.mode_apply("L", n, vm.vacuum())
        with pytest.raises(InputError, match=r"^h\(.*\): a mode index must be an integer$"):
            BL(SemigroupL(1)).monomial([("h", n)])
    else:
        for _ in range(2):  # the mode id is new, then known
            (mode,) = vm.word(vm.word_id([("L", n)]))
            assert type(mode.n) is int and str(mode) == f"L({int(n)})"


@pytest.mark.parametrize("n", ["x", float("nan"), None, "-1"],
                         ids=["x", "nan", "None", "str-1"])
def test_non_numeric_mode_indices_are_input_errors(n):
    # one rule for the vacuum module's modes and B_L's monomials, before any sign test
    vm = VacuumModule(virasoro())
    with pytest.raises(InputError, match=r"^L\(.*\): a mode index must be an integer$"):
        vm.mode_apply("L", n, vm.vacuum())
    with pytest.raises(InputError, match=r"^h\(.*\): a mode index must be an integer$"):
        BL(SemigroupL(1)).monomial([("h", n)])


def test_torsion_mode_guard():
    vm = VacuumModule(virasoro())
    assert not vm.mode_apply("c", 0, vm.vacuum())
    assert not vm.mode_apply("c", -2, S(vm, W(("L", -1))))
    got = vm.mode_apply("c", -1, S(vm, W(("L", -1))))
    assert got == S(vm, W(("L", -1), ("c", -1)))


def test_D_operator():
    vm = VacuumModule(virasoro())
    assert not vm.D(vm.vacuum())
    assert vm.D(S(vm, W(("L", -2)))) == S(vm, W(("L", -3)), 2)
    assert not vm.D(S(vm, W(("c", -1))))
    # Leibniz on a length-2 word
    got = vm.D(S(vm, W(("L", -2), ("L", -1))))
    want = 2 * S(vm, W(("L", -3), ("L", -1))) + vm.mode_apply("L", -2, S(vm, W(("L", -2))))
    assert got == want


def test_D_equals_minus_two_mode_of_vacuum():
    for pres in [virasoro(), heisenberg(1)]:
        vm = VacuumModule(pres)
        for d in range(0, 5):
            for w in vm.basis_words(d, torsion_bound=1):
                s = LinComb.single(w)
                assert vm.D(s) == vm.state_mode(s, -2, vm.vacuum())


def test_embed():
    vm = VacuumModule(virasoro())
    L = vm.pres.element("L")
    assert vm.embed(L) == S(vm, W(("L", -1)))
    # (D^2 L)(-1) = 2 L(-3)
    assert vm.embed(vm.pres.apply_D(L, 2)) == S(vm, W(("L", -3)), 2)
    assert vm.embed(vm.pres.element("c")) == S(vm, W(("c", -1)))


def test_state_mode_creation_from_vacuum():
    vm = VacuumModule(virasoro())
    u = S(vm, W(("L", -2), ("L", -1)))
    vac = vm.vacuum()
    assert vm.state_mode(u, -1, vac) == u
    for n in range(0, 6):
        assert not vm.state_mode(u, n, vac)
    # u_{-k-1}|0> = D^k u / k!
    assert vm.state_mode(u, -2, vac) == vm.D(u)
    assert vm.state_mode(u, -3, vac) == Fraction(1, 2) * vm.D(u, 2)


def test_state_mode_generators_reproduce_table():
    vir = virasoro()
    vm = VacuumModule(vir)
    L = vir.element("L")
    eL = vm.embed(L)
    for n in range(0, 6):
        want = vm.embed(vir.nth_product(L, n, L))
        assert vm.state_mode(eL, n, eL) == want, n


def test_state_mode_spec_zero_example():
    vm = VacuumModule(virasoro())
    got = vm.state_mode(S(vm, W(("L", -3))), 1, S(vm, W(("L", -1))))
    assert not got


def test_state_mode_negative_index_is_normally_ordered_product():
    vm = VacuumModule(heisenberg(1))
    h = S(vm, W(("h", -1)))
    assert vm.state_mode(h, -1, h) == S(vm, W(("h", -1), ("h", -1)))
    assert vm.state_mode(h, -2, h) == S(vm, W(("h", -2), ("h", -1)))
    # h_0 h = 0, h_1 h = c(-1)|0>
    assert not vm.state_mode(h, 0, h)
    assert vm.state_mode(h, 1, h) == S(vm, W(("c", -1)))


@pytest.mark.parametrize("pres", [virasoro(), heisenberg(2),
                                  load_presentation(read_json_file(SL2))],
                         ids=["virasoro", "heisenberg-2", "sl2-level1"])
def test_one_letter_modes_are_the_loop_modes_of_divided_powers(pres):
    """g(-1-k)|0> is D^(k)g = D^k g / k!, so its n-th mode is the current-algebra mode
    (D^(k)g)(n) that mode_normalize writes: for every generator, k <= 3 (k = 0 for a
    torsion one), n in [-6, 6] and every basis v of weight <= 3."""
    vm = VacuumModule(pres)
    basis = [LinComb.single(w) for d in range(4) for w in vm.basis_words(d, torsion_bound=1)]
    for g in pres.generators:
        for k in range(1 if g.torsion else 4):
            u = vm.word_state([(g.name, -1 - k)])
            dg = LinComb.single((g.name, k), inv_factorial(k))
            for n in range(-6, 7):
                combo = mode_normalize(pres, dg, n)
                for v in basis:
                    assert vm.state_mode(u, n, v) == vm.combo_apply(combo, v)


def test_graded_dimensions_match_partition_oracle():
    vm = VacuumModule(virasoro())
    for d in range(0, 9):
        assert vm.graded_dimension(d) == partitions_with_parts(d, list(range(2, 10)))
    vm = VacuumModule(abelian(1))
    for d in range(0, 8):
        assert vm.graded_dimension(d) == partitions_with_parts(d, list(range(1, 9)))
    vm = VacuumModule(heisenberg(1))
    for d in range(0, 7):
        k0 = partitions_with_parts(d, list(range(1, 8)))
        assert vm.graded_dimension(d, 0) == k0
        assert vm.graded_dimension(d, 1) == 2 * k0
        assert vm.graded_dimension(d, 2) == 3 * k0


def test_graded_dimension_frozen_virasoro_row():
    vm = VacuumModule(virasoro())
    assert [vm.graded_dimension(d) for d in range(9)] == [1, 0, 1, 1, 2, 2, 4, 4, 7]


def test_basis_words_canonical_and_weighted():
    vm = VacuumModule(virasoro())
    for d in range(0, 7):
        for w in vm.basis_words(d, torsion_bound=2):
            assert vm.word_weight(w) == d
            assert list(vm.word(w)) == sorted(vm.word(w), key=vm.sort_key)
    assert [vm.word(w) for w in vm.basis_words(0, 2)] == sorted([
        (), W(("c", -1)), W(("c", -1), ("c", -1))])


def test_skew_symmetry_sweep():
    for pres in [virasoro(), heisenberg(1)]:
        vm = VacuumModule(pres)
        rep = vm.check_skew_symmetry(max_weight=3, window=3, torsion_bound=1)
        assert rep.passed, rep.summary()


def test_commutator_sweep_small():
    for pres in [virasoro(), heisenberg(1), abelian(1)]:
        vm = VacuumModule(pres)
        rep = vm.check_commutator(max_weight=2, window=2, torsion_bound=1)
        assert rep.passed, rep.summary()


def test_jacobi_sweep_small():
    for pres in [virasoro(), heisenberg(1)]:
        vm = VacuumModule(pres)
        rep = vm.check_jacobi(max_weight=2, window=2, torsion_bound=1)
        assert rep.passed, rep.summary()


def test_vacuum_creation_and_d_translation_sweeps():
    for pres in [virasoro(), heisenberg(1)]:
        vm = VacuumModule(pres)
        assert vm.check_vacuum_creation(max_weight=3, torsion_bound=1, window=3).passed
        assert vm.check_d_translation(max_weight=3, torsion_bound=1, window=3).passed


class DoubledTranslation(VacuumModule):
    """A vacuum module whose D is twice the true one."""

    def D(self, state, power=1):
        return super().D(state, power) * 2 ** power


def test_d_translation_is_exhaustive_and_fails_on_a_doubled_d():
    # every (u, v, n) with v over all basis states, not a sample of them
    rep = VacuumModule(virasoro()).check_d_translation()
    assert rep.checks[0].details == "910 instances checked"
    rep = DoubledTranslation(virasoro()).check_d_translation(max_weight=3, torsion_bound=1,
                                                             window=2)
    (check,) = rep.checks
    assert check.check_id == "d-translation" and not check.passed
    assert check.witness == "Du != u(-2)|0> at L(-1)|0⟩ (+75 more)"


def test_format_state():
    vm = VacuumModule(virasoro())
    s = 2 * S(vm, W(("L", -2), ("L", -1))) + S(vm, W(("c", -1)), Fraction(-1, 2))
    assert vm.format_state(s) == "2·L(-2)L(-1)|0⟩ - 1/2·c(-1)|0⟩"
    assert vm.format_state(vm.vacuum()) == "|0⟩"
    assert vm.format_state(LinComb()) == "0"


# -- ids inside, words at the edges ------------------------------------------------------


def test_public_results_are_fresh_states():
    # callers such as skew_defect_on add into what these return, so a result
    # must never be a shared memo entry: mutating one leaves the next call whole
    vm = VacuumModule(virasoro())
    u, v = S(vm, W(("L", -2))), S(vm, W(("L", -1)))
    calls = {
        "state_mode": lambda: vm.state_mode(u, 1, v),
        "state_mode at the vacuum": lambda: vm.state_mode(vm.vacuum(), -1, v),
        "D": lambda: vm.D(u),
        "delta": lambda: vm.delta(u),
        "straighten": lambda: vm.straighten(vm.word_id(W(("L", -1), ("L", -2)))),
        "mode_apply": lambda: vm.mode_apply("L", -2, v),
    }
    for name, call in calls.items():
        got = call()
        want = LinComb(got.terms)
        assert got, name
        got.add_into(want, -1)
        got.add_into(LinComb.single(next(iter(want.keys()))), 7)
        assert call() == want, name


def _sorted_words(vm, modes):
    return st.lists(st.sampled_from(modes), max_size=5).map(
        lambda ms: tuple(sorted(ms, key=vm.sort_key)))


@settings(deadline=None)
@given(st.data())
def test_word_ids_round_trip_and_render_like_words(data):
    pres = data.draw(st.sampled_from([virasoro(), heisenberg(2)]))
    vm = VacuumModule(pres)
    words = _sorted_words(vm, _word_modes(pres))
    for w in data.draw(st.lists(words, max_size=8)):
        i = vm.word_id(w)
        assert vm.word(i) == w and vm.word_id(vm.word(i)) == i
    # terms interned in a random order, so ids do not sort like their words
    terms = data.draw(st.dictionaries(words, st.fractions(-3, 3).filter(bool), max_size=6))
    state = LinComb()
    for w, c in terms.items():
        state.add_into(vm.word_state(w), c)
    by_word = LinComb(terms).format(lambda w: "".join(f"{m.gen}({m.n})" for m in w) + "|0⟩")
    assert vm.format_state(state) == by_word


def test_a_state_means_the_same_words_in_every_module():
    # a state built in one module is read as the same words by another module
    # of any presentation with its generators, whatever each has interned
    heis = VacuumModule(heisenberg(1))
    heis.word_id(W(("h", -4), ("h", -3), ("c", -1)))
    ab = VacuumModule(abelian(1))
    u, v = S(ab, W(("h", -2))), S(ab, W(("h", -3), ("h", -1)))
    other = VacuumModule(heisenberg(1))
    u2, v2 = S(other, W(("h", -2))), S(other, W(("h", -3), ("h", -1)))
    assert heis.format_state(v) == other.format_state(v2) == "h(-3)h(-1)|0⟩"
    for n in range(-2, 3):
        assert heis.state_mode(u, n, v) == other.state_mode(u2, n, v2)
    assert heis.D(v) == other.D(v2) and heis.delta(v) == other.delta(v2)
    assert heis.state_weight(v) == ab.state_weight(v2) == 4
