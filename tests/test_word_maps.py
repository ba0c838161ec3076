"""The per-word maps straighten, D and Delta against the formulas they replaced.

VacuumModule fills each of them over the suffixes of a word, from the shortest up.
The references here are the earlier routes: D shifts one letter at a time and
straightens the shifted word, Delta splits a sorted word over position subsets,
and a word straightens as its modes' product acting on the vacuum from right to
left.  U(g)'s Delta, the algebra map with primitive generators, is checked against
the same subset split of the straightened word.
"""

from itertools import groupby
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel import coalgebra as co
from vertexkernel.current import Mode
from vertexkernel.enveloping import _WORDS, VacuumModule
from vertexkernel.lincomb import LinComb, binom
from vertexkernel.serialize import load_presentation, read_json_file
from vertexkernel.vla import heisenberg, virasoro

SL2 = load_presentation(read_json_file(Path(__file__).with_name("affine_sl2_level1.json")))
PRESENTATIONS = [virasoro(), heisenberg(2), SL2]


def split_sorted_word(word):
    """Subset splittings of a sorted word, as a LinComb over (left, right) pairs.
    Runs of equal letters give binomials; subwords of a sorted word are sorted."""
    out = LinComb.single(((), ()))
    for run, letters in groupby(word):
        count = len(tuple(letters))
        out = out.bind(lambda k: LinComb({(k[0] + (run,) * a, k[1] + (run,) * (count - a)):
                                          binom(count, a) for a in range(count + 1)}))
    return out


def straighten_by_action(vm, word):
    """A word's modes acting on the vacuum from right to left."""
    state = vm.vacuum()
    for m in reversed(word):
        state = vm.mode_apply(m.gen, m.n, state)
    return state


def d_reference(vm, state):
    """D as a sum over letters: -n times the word with g(n) shifted to g(n-1),
    straightened; torsion letters commute with D."""
    def of_word(word_id):
        w, out = vm.word(word_id), LinComb()
        for i, m in enumerate(w):
            if not vm.pres.is_torsion(m.gen):
                shifted = w[:i] + (Mode(m.gen, m.n - 1),) + w[i + 1:]
                out.add_into(straighten_by_action(vm, shifted), -m.n)
        return out
    return state.bind(of_word)


def delta_reference(vm, state):
    return state.bind(lambda w: split_sorted_word(vm.word(w)).map_keys(
        lambda k: (vm.word_id(k[0]), vm.word_id(k[1]))))


def _word_modes(pres):
    """Every mode of a generator with index in [-4, -1]; torsion generators at -1 only."""
    return [Mode(g.name, n) for g in pres.generators
            for n in ([-1] if g.torsion else range(-4, 0))]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_straighten_d_and_delta_match_the_references(data):
    pres = data.draw(st.sampled_from(PRESENTATIONS))
    vm = VacuumModule(pres)
    # a random PBW state of weight <= 4, torsion letters included
    basis = [w for d in range(5) for w in vm.basis_words(d, torsion_bound=2)]
    words = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=4, unique=True))
    state = LinComb({w: data.draw(st.integers(-3, 3)) for w in words})
    assert vm.D(state) == d_reference(vm, state)
    assert vm.delta(state) == delta_reference(vm, state)
    # and a random unsorted word
    word = tuple(data.draw(st.lists(st.sampled_from(_word_modes(pres)), max_size=6)))
    assert vm.straighten(vm.word_id(word)) == straighten_by_action(vm, word)


def two_dim_nonabelian():
    # [x, y] = y
    return co.LieAlgebra(["x", "y"], {(0, 1): {1: 1}})


def sl2():
    # ordered basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return co.LieAlgebra(["h", "e", "f"],
                         {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


@settings(deadline=None)
@given(st.sampled_from([two_dim_nonabelian(), sl2()]), st.data())
def test_ue_delta_is_the_subset_split_of_the_straightened_word(lie, data):
    ue = co.UniversalEnveloping(lie)
    word = tuple(data.draw(st.lists(st.integers(0, len(lie.names) - 1), max_size=5)))
    assert ue.delta(LinComb.single(word)) == ue.straighten(word).bind(split_sorted_word)


def test_d_and_delta_of_a_long_word_intern_what_they_need():
    vm = VacuumModule(heisenberg(1))
    h1 = Mode("h", -1)
    # D h(-1)^L|0> = L h(-2)h(-1)^(L-1)|0>: the word and its suffixes, then one new
    # word per suffix length
    before = len(_WORDS.words)
    got = vm.D(vm.word_state((h1,) * 400))
    assert got == vm.word_state((Mode("h", -2),) + (h1,) * 399) * 400
    assert len(_WORDS.words) - before <= 802
    # no recursion over the word's length
    word = vm.word_state((h1,) * 1500)
    assert len(vm.D(word)) == 1
    delta = vm.delta(word)
    assert len(delta) == 1501
    assert delta.get((vm.word_id((h1,) * 750), vm.word_id((h1,) * 750))) == binom(1500, 750)
