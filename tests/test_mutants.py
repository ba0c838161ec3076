"""Mutation rows: each row replaces one function of the kernel with a broken copy
and names the smallest suite and bounds that kill it, that is, make
`vertexkernel check` exit 1 with a witness.  A row that stops failing means the
checks no longer see that fault.  Rows run on the Heisenberg-centre construction
unless their arguments name another --input (the last --input given wins)."""

import json
import os
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vertexkernel import cli, constructions, enveloping
from vertexkernel.constructions import BL, TensorPhiAlgebra
from vertexkernel.current import mode_normalize
from vertexkernel.enveloping import (_ZERO, PackedSum, VacuumModule, _packed_mode,
                                     jacobi_defect_on)
from vertexkernel.lincomb import LinComb, binom, sign_pow
from vertexkernel.report import CaseBlocks
from vertexkernel.serialize import load_presentation, read_json_file
from vertexkernel.vla import heisenberg, virasoro

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")
CENTRE = os.path.join(INPUTS, "heisenberg_centre.json")
HEISENBERG = os.path.join(INPUTS, "heisenberg.json")
SL2 = os.path.join(os.path.dirname(__file__), "affine_sl2_level1.json")


def eminus_over_k_plus_1(vm, a, v, order):
    """eminus_apply with k T_k = ... read as (k+1) T_k = ... from T_2 on."""
    out = [v]
    combos = [mode_normalize(vm.pres, a, -n) for n in range(1, order + 1)]
    for k in range(1, order + 1):
        acc = LinComb()
        for n in range(1, k + 1):
            acc.add_into(vm.combo_apply(combos[n - 1], out[k - n]))
        out.append(acc if k == 1 else Fraction(1, k + 1) * acc)
    return out


def eminus_fill_seeded_at_vacuum(self, al, word, k):
    """TensorPhiAlgebra._eminus_word with its fill seeded at |0> for every k."""
    memo = self._eminus.get((al, k))
    if memo is None:
        memo = self._eminus[al, k] = {0: self.vm.vacuum()}
    return self.vm._fill(memo, word, lambda h, w, s: self.vm._act(h, s))


def d_key_without_phi(self, key):
    """TensorPhiAlgebra._d_key without its phi(al)(-1) term."""
    w, al = key
    return self.vm.D(LinComb.single(w)).map_keys(lambda w2: (w2, al))


_BL_D = BL.D


def bl_d_sign_flipped(self, state, power=1):
    """BL.D as -del."""
    return _BL_D(self, state, power) * (-1) ** power


def state_mode_word_with(first_cut=0, second_sign=-1, letter_first=-1, letter_second=True,
                         single_letter=True):
    """VacuumModule._state_mode_word with one mutation: its first i-sum cut short by
    first_cut terms; -(-1)^m on its second i-sum (and on the single-letter step's
    second term) read as second_sign * (-1)^m; or, in the single-letter step, the
    first term's index i = -1-n read as letter_first - n, or its second term dropped.
    At the defaults it is _state_mode_word.  With single_letter=False a one-letter
    word goes through the two i-sums as every other word does: the recursion before
    the single-letter step, kept as the reference of
    test_single_letter_step_matches_the_two_sums."""
    def mutant(self, uw, n, vw):
        if not uw:
            return LinComb.single(vw) if n == -1 else _ZERO
        key = (uw, n, vw)
        out = self._smode.get(key)
        if out is not None:
            return out
        wt = self._wt
        wv = wt[vw]
        if n > wt[uw] + wv - 1:
            return _ZERO
        head, rest = self._head[uw], self._rest[uw]
        g, m = self._modes[head]
        down, up = wt[rest] + wv - n, self.pres.weight_of(g) + wv
        out = LinComb()
        s2 = second_sign * sign_pow(m)
        if single_letter and not rest:
            i = letter_first - n
            if i >= 0:
                out.add_into(self._apply_word(self.mode_id((g, m - i)), vw),
                             sign_pow(i) * binom(m, i))
            i = m + n + 1
            if letter_second and 0 <= i < up:
                out.add_into(self._apply_word(self.mode_id((g, i)), vw),
                             s2 * sign_pow(i) * binom(m, i))
            self._smode[key] = out
            return out
        lower, upper = self._mode_runs(head, down, up)
        for i in range(0, down - first_cut):
            for w2, c2 in self._state_mode_word(rest, n + i, vw).items():
                out.add_into(self._apply_word(lower[i], w2), sign_pow(i) * binom(m, i) * c2)
        for i in range(0, up):
            for w2, c2 in self._apply_word(upper[i], vw).items():
                out.add_into(self._state_mode_word(rest, m + n - i, w2),
                             s2 * sign_pow(i) * binom(m, i) * c2)
        self._smode[key] = out
        return out
    return mutant


def apply_word_without_bracket(self, mode, word):
    """VacuumModule._apply_word's walk with a·h·w = h·(a·w): the [a, h]·w term dropped."""
    if self._dead[mode]:
        return _ZERO
    memo, mkey, head, rest = self._apply, self._mkey, self._head, self._rest
    creation, missing, w = mkey[mode][0] <= -1, [], word
    while True:
        out = memo.get((mode, w))
        if out is not None:
            break
        if creation and (not w or mkey[mode] <= mkey[head[w]]):
            out = memo[mode, w] = LinComb.single(self._prepend(mode, w))
            break
        if not w:
            out = memo[mode, w] = _ZERO
            break
        missing.append(w)
        w = rest[w]
    for w in reversed(missing):
        out = memo[mode, w] = out.bind(lambda x, h=head[w]: self._apply_word(h, x))
    return out


def delta_word_left_leg_only(self, word):
    """VacuumModule.delta_word with Delta(h·w) = (h(x)1)·Delta(w)."""
    def step(h, w, delta_rest):
        return delta_rest.map_keys(lambda k: (self._prepend(h, k[0]), k[1]))
    return self._fill(self._delta, word, step)


def cleared_add_without_widening(self, term, scale=1):
    """PackedSum.add that keeps its denominator: a term over a denominator that does
    not divide it is scaled by the floor of their quotient."""
    den, P, top = term
    if not self.bound:
        self.den, self.num, self.bound = den, scale * P, abs(scale) * top
        return self
    if den != self.den:
        scale *= self.den // den
    self.num += scale * P
    self.bound += abs(scale) * top
    return self


def add_with_signed_bound(self, term, scale=1):
    """PackedSum.add with bound += scale * top: a negative scale shrinks the bound."""
    den, P, top = term
    if not self.bound:
        self.den, self.num, self.bound = den, scale * P, abs(scale) * top
        return self
    if den != self.den:
        D = self.den
        if D % den:
            f = den // gcd(D, den)
            D = self.den = D * f
            self.num *= f
            self.bound *= f
        scale *= D // den
    self.num += scale * P
    self.bound += scale * top
    return self


def jacobi_sweep_k1_k2_swapped(alg, states, modes):
    """enveloping.jacobi_sweep with ta(k1, k2) = u_k2(v_k1 w) for u_k1(v_k2 w)."""
    prod = cache(lambda i, k, j: alg.state_mode(states[i], k, states[j]))
    weights = [alg.state_weight(s) for s in states]
    irange = range(2 * max(weights, default=0) + max(modes, default=0) + 1)
    ca = {p: [sign_pow(i) * binom(-p - 1, i) for i in irange] for p in modes}
    cb = {p: [sign_pow(p + i) * binom(-p - 1, i) for i in irange] for p in modes}
    cc = {q: [-sign_pow(i) * binom(q + i, i) for i in irange] for q in modes}
    stop = {p: -p if p < 0 else len(irange) for p in modes}

    def block(a):
        u, wu = states[a], weights[a]
        for b, v in enumerate(states):
            wv = weights[b]
            for c, w in enumerate(states):
                ww = weights[c]
                slots = {}
                ta = cache(lambda k1, k2: _packed_mode(alg, u, k2, prod(b, k1, c), slots))
                tb = cache(lambda k1, k2: _packed_mode(alg, v, k1, prod(a, k2, c), slots))
                tc = cache(lambda k1, k2: _packed_mode(alg, prod(a, k1, b), k2, w, slots))
                for p in modes:
                    for q in modes:
                        for r in modes:
                            acc = PackedSum()
                            for i in range(min(wv + ww + r + 1, stop[p])):
                                t = ta(-p - q - i - 2, i - r - 1)
                                if t[2]:
                                    acc.add(t, ca[p][i])
                            for i in range(min(wu + ww + q + 1, stop[p])):
                                t = tb(-p - r - i - 2, i - q - 1)
                                if t[2]:
                                    acc.add(t, cb[p][i])
                            for i in range(min(wu + wv + p + 1, stop[q])):
                                t = tc(i - p - 1, -q - r - i - 2)
                                if t[2]:
                                    acc.add(t, cc[q][i])
                            yield u, v, w, p, q, r, (acc.num if acc.exact() else
                                                     jacobi_defect_on(alg, u, v, w, p, q, r))
    return CaseBlocks(len(states), block)


# (row, owner, attribute, mutant, suite and bounds, failing check, its witness)
ROWS = [
    ("eminus-1/(k+1)", constructions, "eminus_apply", eminus_over_k_plus_1,
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "3"],
     "bl-equals-tensor-phi-modes", "modes differ at (e^{(-2)})_-3(e^{(-2)})"),
    ("eminus-fill-seeded-at-vacuum", TensorPhiAlgebra, "_eminus_word",
     eminus_fill_seeded_at_vacuum, ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "bl-equals-tensor-phi-d", "derivations differ at e^{(-2)}"),
    ("d-key-without-phi", TensorPhiAlgebra, "_d_key", d_key_without_phi,
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "bl-equals-tensor-phi-d", "derivations differ at e^{(-2)}"),
    ("bl-d-sign-flipped", BL, "D", bl_d_sign_flipped,
     ["--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-extension-exists", "del psi(e^(-1,)) != phi_B(abar) psi(e^(-1,))"),
    # on Heisenberg the flip only negates the level, so the sweeps pass; the
    # induced morphism compares h_1 h with the table
    ("state-mode-second-sum-flipped", VacuumModule, "_state_mode_word",
     state_mode_word_with(second_sign=1),
     ["--input", HEISENBERG, "--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-induced-exists", "embedding breaks h_1 h"),
    # the last term of the first i-sum dropped: one-letter words take the single-letter
    # step, so the kill goes through a word of two letters or more, here c(-1)c(-1)|0⟩
    # from u_{-1}v; on Heisenberg the jacobi suite at --max-weight 1 kills it too
    ("state-mode-first-sum-short", VacuumModule, "_state_mode_word",
     state_mode_word_with(first_cut=1),
     ["--suite", "tensor-phi", "--max-weight", "0", "--mode-window", "0"],
     "tensor-phi-jacobi",
     "Jacobi (0,0,0) fails at u=c(-1)|0⟩⊗e^{(-1)}, v=c(-1)|0⟩⊗e^{(-1)}, w=|0⟩⊗e^{(-1)}"),
    # the single-letter step without its second-sum term i = m+n+1
    ("state-mode-letter-second-term-dropped", VacuumModule, "_state_mode_word",
     state_mode_word_with(letter_second=False),
     ["--input", HEISENBERG, "--suite", "jacobi", "--max-weight", "1", "--mode-window", "0"],
     "jacobi-identity",
     "Jacobi coefficient (0,0,0) defect at u=h(-1)|0⟩, v=h(-1)|0⟩, w=h(-1)|0⟩"),
    # the single-letter step's first-sum term at i = -n for i = -1-n
    ("state-mode-letter-first-index-off-by-one", VacuumModule, "_state_mode_word",
     state_mode_word_with(letter_first=0),
     ["--suite", "tensor-phi", "--max-weight", "0", "--mode-window", "0"],
     "tensor-phi-vacuum-creation", "u(-1)|0> != u at c(-1)|0⟩⊗e^{(-1)}"),
    # without brackets every mode commutes, which is a vertex algebra too
    ("apply-word-without-bracket", VacuumModule, "_apply_word", apply_word_without_bracket,
     ["--input", HEISENBERG, "--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-induced-exists", "embedding breaks h_1 h"),
    ("delta-word-left-leg-only", VacuumModule, "delta_word", delta_word_left_leg_only,
     ["--suite", "coalgebra", "--max-weight", "0", "--mode-window", "0"],
     "cocommutativity", "cocommutativity fails at c(-1)|0⟩"),
    # the 1/k! of E_k in the twisted modes, over the widening step of PackedSum.add
    ("cleared-add-without-widening", PackedSum, "add", cleared_add_without_widening,
     ["--suite", "tensor-phi", "--max-weight", "0", "--mode-window", "1"],
     "tensor-phi-jacobi",
     "Jacobi (0,0,1) fails at u=|0⟩⊗e^{(-1)}, v=|0⟩⊗e^{(-1)}, w=|0⟩⊗e^{(-1)}"),
    # ta(k1, k2) read as u_k2(v_k1 w): on Heisenberg, killed at weight 1
    ("jacobi-table-k1-k2-swapped", enveloping, "jacobi_sweep", jacobi_sweep_k1_k2_swapped,
     ["--input", HEISENBERG, "--suite", "jacobi", "--max-weight", "1", "--mode-window", "0"],
     "jacobi-identity", "Jacobi coefficient (0,0,0) defect at u=|0⟩, v=h(-1)|0⟩, w=|0⟩"),
]


def check(capsys, bounds):
    code = cli.main(["check", "--format", "json", "--input", CENTRE, *bounds])
    report = json.loads(capsys.readouterr().out)["report"]
    return code, [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("row, owner, attr, mutant, bounds, check_id, want",
                         ROWS, ids=[r[0] for r in ROWS])
def test_mutant_is_killed(monkeypatch, capsys, row, owner, attr, mutant, bounds,
                          check_id, want):
    assert check(capsys, bounds) == (0, [])
    monkeypatch.setattr(owner, attr, mutant)
    code, failed = check(capsys, bounds)
    assert code == 1
    first = next(c for c in failed if c["check"] == check_id)
    assert first["witness"].split(" (+")[0] == want


def test_packed_zero_read_as_zero_is_killed(monkeypatch, packed_zero_case):
    """PackedSum.exact always true, so that a packed 0 reads as a zero defect whatever
    the bound: the forced-fallback case (W = 2) loses its one overflowing failure."""
    monkeypatch.setattr(enveloping, "W", 2)
    got, want, case = packed_zero_case()
    assert case in want and got == want
    monkeypatch.setattr(PackedSum, "exact", lambda self: True)
    got, want, case = packed_zero_case()
    assert case in want and case not in got


def test_signed_bound_is_killed(monkeypatch, packed_zero_case):
    """PackedSum.add growing its bound by scale * top: the forced-fallback case (W = 2)
    adds its second term with scale -1, its bound falls to 0, and its packed 0 reads
    as a zero defect."""
    monkeypatch.setattr(enveloping, "W", 2)
    got, want, case = packed_zero_case()
    assert case in want and got == want
    monkeypatch.setattr(PackedSum, "add", add_with_signed_bound)
    got, want, case = packed_zero_case()
    assert case in want and case not in got


# -- the single-letter step against the two i-sums it replaces ----------------------------

PRESENTATIONS = [virasoro(), heisenberg(2), load_presentation(read_json_file(SL2))]


@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_single_letter_step_matches_the_two_sums(data):
    """state_mode equals the recursion before the single-letter step (every word through
    both i-sums), and both fill _smode with the same keys: for one-letter u (torsion
    letters included) and words of up to three letters, v of weight <= 4, n in [-6, 6]."""
    pres = data.draw(st.sampled_from(PRESENTATIONS))
    torsion = [(g.name, -1) for g in pres.generators if g.torsion]
    letter = st.sampled_from(torsion + [(g.name, n) for g in pres.generators if not g.torsion
                                        for n in (-3, -2, -1)])
    word = data.draw(st.sampled_from(torsion).map(lambda m: [m]) | letter.map(lambda m: [m])
                     | st.lists(letter, min_size=2, max_size=3))
    vm = VacuumModule(pres)
    u = vm.straighten(vm.word_id(word))
    v = LinComb.single(data.draw(st.sampled_from(
        [w for d in range(5) for w in vm.basis_words(d, torsion_bound=1)])))
    n = data.draw(st.integers(-6, 6))
    ref = VacuumModule(pres)
    ref._state_mode_word = state_mode_word_with(single_letter=False).__get__(ref)
    assert vm.state_mode(u, n, v) == ref.state_mode(u, n, v)
    assert vm._smode.keys() == ref._smode.keys()
