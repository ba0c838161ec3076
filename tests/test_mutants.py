"""Mutation rows: each row replaces one function of the kernel with a broken copy
and names the smallest suite and bounds that kill it, that is, make
`vertexkernel check` exit 1 with a witness.  A row that stops failing means the
checks no longer see that fault.  Rows run on the Heisenberg-centre construction
unless their arguments name another --input (the last --input given wins)."""

import json
import os
from fractions import Fraction

import pytest

from vertexkernel import cli, constructions
from vertexkernel.constructions import BL, TensorPhiAlgebra
from vertexkernel.current import mode_normalize
from vertexkernel.enveloping import _ZERO, VacuumModule
from vertexkernel.lincomb import ClearedSum, LinComb, binom, sign_pow

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")
CENTRE = os.path.join(INPUTS, "heisenberg_centre.json")
HEISENBERG = os.path.join(INPUTS, "heisenberg.json")


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


def state_mode_word_second_sum_flipped(self, uw, n, vw):
    """VacuumModule._state_mode_word with + (-1)^m on its second i-sum."""
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
    lower, upper = self._mode_runs(head, down, up)
    out = LinComb()
    for i in range(0, down):
        for w2, c2 in self._state_mode_word(rest, n + i, vw).items():
            out.add_into(self._apply_word(lower[i], w2), sign_pow(i) * binom(m, i) * c2)
    for i in range(0, up):
        for w2, c2 in self._apply_word(upper[i], vw).items():
            out.add_into(self._state_mode_word(rest, m + n - i, w2),
                         sign_pow(m) * sign_pow(i) * binom(m, i) * c2)
    self._smode[key] = out
    return out


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
    """ClearedSum.add that keeps its denominator: a term over a denominator that
    does not divide it is scaled by the floor of their quotient."""
    den, ints = term
    if den != self.den:
        scale *= self.den // den
    for k, c in ints.items():
        self.nums[k] = self.nums.get(k, 0) + scale * c
    return self


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
     state_mode_word_second_sum_flipped,
     ["--input", HEISENBERG, "--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-induced-exists", "embedding breaks h_1 h"),
    # without brackets every mode commutes, which is a vertex algebra too
    ("apply-word-without-bracket", VacuumModule, "_apply_word", apply_word_without_bracket,
     ["--input", HEISENBERG, "--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-induced-exists", "embedding breaks h_1 h"),
    ("delta-word-left-leg-only", VacuumModule, "delta_word", delta_word_left_leg_only,
     ["--suite", "coalgebra", "--max-weight", "0", "--mode-window", "0"],
     "cocommutativity", "cocommutativity fails at c(-1)|0⟩"),
    # the 1/j! of skew-symmetry's D^j terms
    ("cleared-add-without-widening", ClearedSum, "add", cleared_add_without_widening,
     ["--suite", "skew", "--max-weight", "2", "--mode-window", "0"],
     "skew-symmetry", "skew-symmetry fails at (h(-2)|0⟩)_0(h(-1)h(-1)|0⟩)"),
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
