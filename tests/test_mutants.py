"""Mutation rows: each row makes one text edit in one function of the kernel, recompiled
from its source by mutant(), and names the smallest suite and bounds that kill it, that
is, make `vertexkernel check` exit 1 with a witness.  A row that stops failing means the
checks no longer see that fault; a row whose edit no longer matches its source fails too.
Rows run on the Heisenberg-centre construction unless their arguments name another
--input (the last --input given wins)."""

import inspect
import json
import os
import textwrap

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vertexkernel import cli, coalgebra, constructions, enveloping, vla, workers
from vertexkernel.constructions import BL, TensorPhiAlgebra
from vertexkernel.enveloping import PackedSum, VacuumModule
from vertexkernel.lincomb import LinComb
from vertexkernel.serialize import load_presentation, read_json_file
from vertexkernel.vla import heisenberg, virasoro

INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs")
CENTRE = os.path.join(INPUTS, "heisenberg_centre.json")
HEISENBERG = os.path.join(INPUTS, "heisenberg.json")
VIRASORO = os.path.join(INPUTS, "virasoro.json")
SL2 = os.path.join(os.path.dirname(__file__), "affine_sl2_level1.json")


def mutant(fn, old, new):
    """fn recompiled from its source with old, which must occur there exactly once,
    replaced by new.  It runs in the globals of fn's module, so it reads them live, and
    nothing in the module is rebound."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{fn.__qualname__} holds {src.count(old)} of {old!r}"
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"), fn.__globals__,
         namespace)
    return namespace[fn.__name__]


# (row, owner, attribute, old, new, suite and bounds, failing check, its witness); the
# mutant is mutant(getattr(owner, attribute), old, new), where BL.D is TensorPhiAlgebra.D
ROWS = [
    # k T_k = ... read as (k+1) T_k = ... from T_2 on
    ("eminus-1/(k+1)", constructions, "eminus_apply",
     "Fraction(1, k) * acc", "Fraction(1, k + 1) * acc",
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "3"],
     "bl-equals-tensor-phi-modes", "modes differ at (|0⟩⊗e^{(-2)})_-3(|0⟩⊗e^{(-2)})"),
    ("eminus-fill-seeded-at-vacuum", TensorPhiAlgebra, "_eminus_word",
     "{0: eminus_apply(vm, self.phi.of(al), vm.vacuum(), k)[k]}", "{0: vm.vacuum()}",
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "bl-equals-tensor-phi-d", "derivations differ at |0⟩⊗e^{(-2)}"),
    ("d-key-without-phi", TensorPhiAlgebra, "_d_key", " + self._eminus_word(al, w, 1)", "",
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "bl-equals-tensor-phi-d", "derivations differ at |0⟩⊗e^{(-2)}"),
    ("bl-d-sign-flipped", BL, "D",
     "state = state.bind(self._d_key)", "state = -state.bind(self._d_key)",
     ["--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-extension-exists", "del psi(e^(-1,)) != phi_B(abar) psi(e^(-1,))"),
    # the second i-sum's sign flipped: the one-letter term keeps its own, so words of one
    # letter and of two disagree
    ("state-mode-second-sum-flipped", VacuumModule, "_state_mode_word",
     "sk = sign_pow(k)", "sk = -sign_pow(k)",
     ["--suite", "tensor-phi", "--max-weight", "1", "--mode-window", "0"],
     "tensor-phi-jacobi",
     "Jacobi (0,0,0) fails at u=c(-1)|0⟩⊗e^{(-1)}, v=h(-1)|0⟩⊗e^{(-1)}, w=h(-1)|0⟩⊗e^{(-1)}"),
    # the first i-sum's coefficient binom(i+k, i) read as binom(i+k+1, i)
    ("state-mode-first-sum-coefficient-shifted", VacuumModule, "_state_mode_word",
     "c = binom(i + k, i)", "c = binom(i + k + 1, i)",
     ["--suite", "tensor-phi", "--max-weight", "1", "--mode-window", "0"],
     "tensor-phi-jacobi",
     "Jacobi (0,0,0) fails at u=c(-1)|0⟩⊗e^{(-1)}, v=h(-1)|0⟩⊗e^{(-1)}, w=|0⟩⊗e^{(-1)}"),
    # the last term of the first i-sum dropped: one-letter words take the one-letter
    # term, so the kill goes through a word of two letters or more, here c(-1)c(-1)|0⟩
    # from u_{-1}v; on Heisenberg the jacobi suite at --max-weight 1 kills it too
    ("state-mode-first-sum-short", VacuumModule, "_state_mode_word",
     "for i in range(0, down):", "for i in range(0, down - 1):",
     ["--suite", "tensor-phi", "--max-weight", "0", "--mode-window", "0"],
     "tensor-phi-jacobi",
     "Jacobi (0,0,0) fails at u=c(-1)|0⟩⊗e^{(-1)}, v=c(-1)|0⟩⊗e^{(-1)}, w=|0⟩⊗e^{(-1)}"),
    # the last term of the second i-sum dropped, through a word of two letters
    ("state-mode-second-sum-short", VacuumModule, "_state_mode_word",
     "for i in range(0, up):", "for i in range(0, up - 1):",
     ["--input", HEISENBERG, "--suite", "jacobi", "--max-weight", "1", "--mode-window", "0"],
     "jacobi-identity",
     "Jacobi coefficient (0,0,0) defect at u=h(-1)|0⟩, v=h(-1)|0⟩, w=h(-1)|0⟩"),
    # the one-letter term (-1)^k binom(n, k) g(n-k) without its sign
    ("state-mode-letter-sign-dropped", VacuumModule, "_state_mode_word",
     "c = sign_pow(k) * binom(n, k)", "c = binom(n, k)",
     ["--suite", "tensor-phi", "--max-weight", "1", "--mode-window", "1"],
     "tensor-phi-jacobi",
     "Jacobi (1,-1,0) fails at u=h(-1)|0⟩⊗e^{(-1)}, v=|0⟩⊗e^{(-1)}, w=|0⟩⊗e^{(-1)}"),
    # k = -m for k = -1-m: g(m)|0> read as D^(k+1) g
    ("state-mode-letter-first-index-off-by-one", VacuumModule, "_state_mode_word",
     "k = -1 - m", "k = -m",
     ["--suite", "tensor-phi", "--max-weight", "0", "--mode-window", "0"],
     "tensor-phi-vacuum-creation", "u(-1)|0> != u at c(-1)|0⟩⊗e^{(-1)}"),
    # a·h·w = h·(a·w): every mode commutes, which is a vertex algebra too
    ("apply-word-without-bracket", VacuumModule, "_apply_word",
     "in self.bracket(mode, h).items()", "in ()",
     ["--input", HEISENBERG, "--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-induced-exists", "embedding breaks h_1 h"),
    # the bracket without the pair's last row, rebound in enveloping only, so nth_product
    # and the table stay clean: Virasoro loses its central (L, L, 3) row and is read at
    # c = 0, which is a vertex algebra too; on Heisenberg, "embedding breaks h_1 h"
    ("bracket-last-row-dropped", enveloping, "bracket",
     "in pres.table(a.gen, b.gen).items():", "in list(pres.table(a.gen, b.gen).items())[:-1]:",
     ["--input", VIRASORO, "--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-induced-exists", "embedding breaks L_3 L"),
    # Delta(h·w) = (h(x)1)·Delta(w)
    ("delta-word-left-leg-only", VacuumModule, "delta_word",
     "((prepend(h, a), b), (a, prepend(h, b)))", "((prepend(h, a), b),)",
     ["--suite", "coalgebra", "--max-weight", "0", "--mode-window", "0"],
     "cocommutativity", "cocommutativity fails at c(-1)|0⟩"),
    # B_L's Delta(h·w) = (h(x)1)·Delta(w): U(g) keeps the shared Delta, as only the
    # constructions module's name is rebound
    ("primitive-letters-delta-left-leg-only", constructions, "primitive_letters_delta",
     "LinComb({(h, unit): 1, (unit, h): 1})", "LinComb({(h, unit): 1})",
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "d-coderivation", "Delta(del u) != (del(x)1 + 1(x)del)Delta(u) at |0⟩⊗e^{(-2)}"),
    # a term whose denominator does not divide the sum's, scaled by their floor quotient
    ("cleared-add-without-widening", PackedSum, "add", "if D % den:", "if False:",
     ["--suite", "tensor-phi", "--max-weight", "0", "--mode-window", "1"],
     "tensor-phi-jacobi",
     "Jacobi (0,0,1) fails at u=|0⟩⊗e^{(-1)}, v=|0⟩⊗e^{(-1)}, w=|0⟩⊗e^{(-1)}"),
    # ta(k1, k2) read as u_k2(v_k1 w): on Heisenberg, killed at weight 1
    ("jacobi-table-k1-k2-swapped", enveloping, "jacobi_sweep",
     "_packed_mode(alg, u, k1, prod(b, k2, c), slots)",
     "_packed_mode(alg, u, k2, prod(b, k1, c), slots)",
     ["--input", HEISENBERG, "--suite", "jacobi", "--max-weight", "1", "--mode-window", "0"],
     "jacobi-identity", "Jacobi coefficient (0,0,0) defect at u=|0⟩, v=h(-1)|0⟩, w=|0⟩"),
    # [u_m, v_n]w read as u_m(v_n w) + v_n(u_m w): at window 0 all 8 instances pass
    ("commutator-sweep-second-term-sign", enveloping, "commutator_sweep",
     "prod(a, m, c)), -1)", "prod(a, m, c)), 1)",
     ["--input", HEISENBERG, "--suite", "commutator", "--max-weight", "0", "--mode-window", "1"],
     "borcherds-commutator", "[u(-1),v(-1)]w defect at u=|0⟩, v=|0⟩, w=|0⟩"),
    # the same flip in validate's half-Jacobi only, as only vla's name is rebound; on
    # Heisenberg every term of half-Jacobi vanishes, so the kill is on Virasoro
    ("validate-half-jacobi-second-term-sign", vla, "commutator_sweep",
     "prod(a, m, c)), -1)", "prod(a, m, c)), 1)",
     ["--input", VIRASORO, "--suite", "all", "--max-weight", "0", "--mode-window", "0"],
     "half-jacobi", "half-Jacobi at (L)_0((L)_0(L))"),
    # validate's skew sum with every sign flipped; the witness prints the unmutated sides
    ("validate-skew-sign-flipped", vla, "skew_sweep",
     "scale = -sign_pow(k + 1)", "scale = sign_pow(k + 1)",
     ["--input", VIRASORO, "--suite", "all", "--max-weight", "0", "--mode-window", "0"],
     "skew-symmetry", "skew-symmetry at (L)_0(L): DL vs DL"),
]
each_row = pytest.mark.parametrize("row, owner, attr, old, new, bounds, check_id, want", ROWS,
                                   ids=[r[0] for r in ROWS])


def check(capsys, bounds):
    """The exit code and stdout of `check --format json` at bounds."""
    code = cli.main(["check", "--format", "json", "--input", CENTRE, *bounds])
    return code, capsys.readouterr().out


@each_row
def test_identity_edit_is_faithful(monkeypatch, capsys, row, owner, attr, old, new, bounds,
                                   check_id, want):
    """The recompiled source, unedited, prints what src prints, byte for byte."""
    clean = check(capsys, bounds)
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr), old, old))
    assert check(capsys, bounds) == clean


@each_row
def test_mutant_is_killed(monkeypatch, capsys, row, owner, attr, old, new, bounds,
                          check_id, want):
    assert check(capsys, bounds)[0] == 0
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr), old, new))
    code, out = check(capsys, bounds)
    assert code == 1
    first = next(c for c in json.loads(out)["report"]["checks"]
                 if c["check"] == check_id and not c["passed"])
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
    """PackedSum.add growing its bound by scale * top: the forced-fallback case (W = 2) adds
    its second term with scale -1, so its bound falls to 0 and its packed 0 reads as 0."""
    monkeypatch.setattr(enveloping, "W", 2)
    got, want, case = packed_zero_case()
    assert case in want and got == want
    monkeypatch.setattr(PackedSum, "add", mutant(PackedSum.add, "self.bound += abs(scale) * top",
                                                 "self.bound += scale * top"))
    got, want, case = packed_zero_case()
    assert case in want and case not in got


class SwapCoalgebra:
    """Keys a and b with Delta a = a(x)b, Delta b = b(x)a and eps = 1 on both: not
    coassociative, and without a group-like, though a and b are group_like_scan's candidates."""

    def delta(self, state):
        return state.bind(lambda k: LinComb.single((k, "b" if k == "a" else "a")))

    def eps(self, state):
        return sum(c for _, c in state.items())


def test_skipped_group_like_confirmation_is_killed():
    """group_like_scan keeping every candidate without is_group_like.  On a
    coassociative, counital obj that is equivalent (Delta v = v(x)g gives
    Delta g = g(x)g), so the kill needs a coalgebra that is not coassociative."""
    toy, span = SwapCoalgebra(), [LinComb.single("a"), LinComb.single("b")]
    assert coalgebra.group_like_scan(toy, span) == []
    skipped = mutant(coalgebra.group_like_scan, "if is_group_like(obj, g)]", "if True]")
    assert skipped(toy, span) == span[::-1]


@pytest.mark.parametrize("old, new", [("done.update(pickle.loads(data))", "pickle.loads(data)"),
                                      ("reversed(todo)", "reversed([*todo, *todo])")],
                         ids=["worker-results-dropped", "blocks-queued-twice"])
def test_sharding_mutant_is_equivalent(monkeypatch, capsys, shard_over, old, new):
    """Equivalent mutants of workers._run: in_order runs each block _run leaves out in
    its turn, and a block that runs twice puts both results under one key."""
    bounds = ["--suite", "all", "--max-weight", "1", "--mode-window", "0"]
    shard_over(2)
    clean = check(capsys, bounds)
    broken, runs = mutant(workers._run, old, new), []
    monkeypatch.setattr(workers, "_run", lambda *args: runs.append(args) or broken(*args))
    assert check(capsys, bounds) == clean and runs


# -- the single-letter step against the two i-sums it replaces ----------------------------

PRESENTATIONS = [virasoro(), heisenberg(2), load_presentation(read_json_file(SL2))]


@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_single_letter_step_matches_the_two_sums(data):
    """state_mode equals src with the single-letter step cut out (every word through
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
    ref._state_mode_word = mutant(VacuumModule._state_mode_word, "if not rest:",
                                  "if False:").__get__(ref)
    assert vm.state_mode(u, n, v) == ref.state_mode(u, n, v)
    assert vm._smode.keys() == ref._smode.keys()
