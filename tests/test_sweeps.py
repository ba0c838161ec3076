"""The tabulated identity sweeps against per-instance reference loops.

skew_sweep, commutator_sweep and jacobi_sweep evaluate shared subterms once
per sweep.  Each test here rebuilds the same report with a plain loop over
the *_defect_on functions, in the original loop order and with the original
witness strings, and asserts that the report JSON is identical: on passing
algebras, and on failing ones where the witness and the (+N more) count are
pinned.  The work count of jacobi_sweep is pinned at one state_mode call per
distinct product and (k1, k2) table key.  The vacuum axioms fail on purpose on an
algebra with shifted modes at the vacuum, which pins the order of their three laws.
A Hypothesis test checks the E^- memo behind TensorPhiAlgebra's modes against the
direct sum over k of eminus_apply.  The four sweep checkers give the same reports
with 1, 2 and 3 usable CPUs, that is, serially and over forked workers.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel.constructions import (PhiMap, SemigroupL, TensorPhiAlgebra,
                                        _mode_range, check_tensor_phi_axioms,
                                        eminus_apply)
from vertexkernel.enveloping import (VacuumModule, commutator_defect_on,
                                     commutator_sweep, jacobi_defect_on,
                                     jacobi_sweep, skew_defect_on, skew_sweep)
from vertexkernel.lincomb import LinComb
from vertexkernel.report import ValidationReport
from vertexkernel.vla import Generator, Presentation, abelian, heisenberg, virasoro

# -- reference loops: the sweeps as they were before tabulation --------------------------


def skew_reference(alg, states, modes):
    return [(u, n, v) for u in states for v in states for n in modes
            if skew_defect_on(alg, u, n, v)]


def commutator_reference(alg, states, modes):
    return [(u, m, v, n, w) for u in states for v in states for w in states
            for m in modes for n in modes if commutator_defect_on(alg, u, m, v, n, w)]


def jacobi_reference(alg, states, modes):
    return [(u, v, w, p, q, r) for u in states for v in states for w in states
            for p in modes for q in modes for r in modes
            if jacobi_defect_on(alg, u, v, w, p, q, r)]


def vacuum_reference(vm, check, max_weight, window, torsion_bound=1):
    """The report of VacuumModule.check_<check>, from the reference loops."""
    states = vm._graded_basis_states(max_weight, torsion_bound)
    modes = range(-window, window + 1)
    fmt = vm.format_state
    rep = ValidationReport(subject="vacuum-module")
    if check == "skew":
        fails = [f"skew-symmetry fails at ({fmt(u)})_{n}({fmt(v)})"
                 for u, n, v in skew_reference(vm, states, modes)]
        rep.record("skew-symmetry", fails, len(states) ** 2 * len(modes))
    elif check == "commutator":
        fails = [f"[u({m}),v({n})]w defect at u={fmt(u)}, v={fmt(v)}, w={fmt(w)}"
                 for u, m, v, n, w in commutator_reference(vm, states, modes)]
        rep.record("borcherds-commutator", fails, len(states) ** 3 * len(modes) ** 2)
    else:
        fails = [f"Jacobi coefficient ({p},{q},{r}) defect at "
                 f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}"
                 for u, v, w, p, q, r in jacobi_reference(vm, states, modes)]
        rep.record("jacobi-identity", fails, len(states) ** 3 * len(modes) ** 3)
    return rep.to_json()


def vacuum_sweep(vm, check, max_weight, window, torsion_bound=1):
    method = {"skew": vm.check_skew_symmetry, "commutator": vm.check_commutator,
              "jacobi": vm.check_jacobi}[check]
    return method(max_weight=max_weight, window=window,
                  torsion_bound=torsion_bound).to_json()


def tensor_phi_reference(tp, max_weight, window, alpha_bound, torsion_bound=0):
    """The skew and Jacobi checks of check_tensor_phi_axioms, by reference loops."""
    keys = [k for d in range(max_weight + 1)
            for k in tp.basis_keys(d, torsion_bound, alpha_bound)]
    states = [tp.key_state(k) for k in keys]
    modes = _mode_range(window)
    fmt = tp.format_state
    skew = [f"skew fails at ({fmt(u)})_{n}({fmt(v)})"
            for u, n, v in skew_reference(tp, states, modes)]
    jacobi = [f"Jacobi ({p},{q},{r}) fails at u={fmt(u)}, v={fmt(v)}, w={fmt(w)}"
              for u, v, w, p, q, r in jacobi_reference(tp, states, modes)]
    rep = ValidationReport()
    rep.record("tensor-phi-skew-symmetry", skew, len(states) ** 2 * len(modes))
    rep.record("tensor-phi-jacobi", jacobi, len(states) ** 3 * len(modes) ** 3)
    return rep.to_json()["checks"]


def tensor_phi_sweep(tp, **bounds):
    checks = check_tensor_phi_axioms(tp, **bounds).to_json()["checks"]
    return [c for c in checks if c["check"] != "tensor-phi-vacuum-creation"]


def witness(report):
    (check,) = report["checks"]
    return check.get("witness")


# -- algebras ------------------------------------------------------------------------


def virasoro_doubled_l0():
    """The Virasoro table with the (L,L,0) coefficient doubled: not a vertex
    Lie algebra, so every sweep has failures."""
    return Presentation([Generator("L", 2), Generator("c", 0, torsion=True)],
                        {("L", "L", 0): {("L", 1): 2},
                         ("L", "L", 1): {("L", 0): 2},
                         ("L", "L", 3): {("c", 0): Fraction(1, 2)}})


def heisenberg_with_k():
    """Heisenberg h, c plus a weight-1 k with h_1 k = k_1 h = c: k is not central."""
    c = {("c", 0): 1}
    return Presentation([Generator("h", 1), Generator("k", 1),
                         Generator("c", 0, torsion=True)],
                        {("h", "h", 1): c, ("h", "k", 1): c, ("k", "h", 1): c})


def tensor_phi_into(pres, target):
    """V (x)_phi C[Z] with phi(e_1) = target.  The constructor refuses a
    non-central phi, so phi is built central (into c) and then replaced."""
    tp = TensorPhiAlgebra(VacuumModule(pres), SemigroupL(1),
                          PhiMap(pres, [pres.element("c")]))
    tp.phi = PhiMap(pres, [pres.element(target)])
    return tp


# -- VacuumModule sweeps -------------------------------------------------------------


def test_vacuum_sweeps_pass_like_the_reference():
    for pres in (virasoro(), heisenberg(1)):
        for check, mw, win in (("skew", 4, 3), ("commutator", 3, 2), ("jacobi", 2, 1)):
            got = vacuum_sweep(VacuumModule(pres), check, mw, win)
            assert got == vacuum_reference(VacuumModule(pres), check, mw, win)
            assert got["passed"]


def test_skew_sweep_fails_like_the_reference():
    pres = virasoro_doubled_l0()
    got = vacuum_sweep(VacuumModule(pres), "skew", 4, 2)
    assert got == vacuum_reference(VacuumModule(pres), "skew", 4, 2)
    assert witness(got) == "skew-symmetry fails at (L(-1)|0⟩)_-1(L(-1)|0⟩) (+239 more)"


def test_commutator_sweep_fails_like_the_reference():
    pres = virasoro_doubled_l0()
    got = vacuum_sweep(VacuumModule(pres), "commutator", 4, 2)
    assert got == vacuum_reference(VacuumModule(pres), "commutator", 4, 2)
    assert witness(got) == ("[u(-2),v(-2)]w defect at u=L(-1)|0⟩, v=L(-1)|0⟩, "
                            "w=|0⟩ (+8287 more)")


def test_jacobi_sweep_fails_like_the_reference():
    pres = virasoro_doubled_l0()
    got = vacuum_sweep(VacuumModule(pres), "jacobi", 4, 1)
    assert got == vacuum_reference(VacuumModule(pres), "jacobi", 4, 1)
    assert witness(got) == ("Jacobi coefficient (-1,0,-1) defect at u=L(-1)|0⟩, "
                            "v=L(-1)|0⟩, w=|0⟩ (+10439 more)")


class ScaledTranslation:
    """A mode algebra whose D is twice the true one: skew-symmetry breaks on
    every term with j >= 1, which exercises the D^j table of skew_sweep."""

    def __init__(self, vm):
        self.vm = vm
        self.state_mode = vm.state_mode
        self.state_weight = vm.state_weight

    def D(self, state, power=1):
        return self.vm.D(state, power) * 2 ** power


def failing_cases(cases):
    """The argument tuples of the cases a sweep yields with a nonzero defect."""
    return [case[:-1] for case in cases if case[-1]]


def test_sweeps_return_the_reference_instances():
    vm = VacuumModule(heisenberg(1))
    states = vm._graded_basis_states(2, 1)
    modes = range(-2, 3)
    alg = ScaledTranslation(vm)
    fails = skew_reference(alg, states, modes)
    cases = list(skew_sweep(alg, states, modes))
    assert len(cases) == len(states) ** 2 * len(modes)
    assert failing_cases(cases) == fails
    assert len(fails) == 108
    vir = VacuumModule(virasoro_doubled_l0())
    states = vir._graded_basis_states(3, 1)
    for sweep, reference, n_modes in ((commutator_sweep, commutator_reference, 2),
                                      (jacobi_sweep, jacobi_reference, 3)):
        cases = list(sweep(vir, states, modes))
        assert len(cases) == len(states) ** 3 * len(modes) ** n_modes
        fails = failing_cases(cases)
        assert fails == reference(vir, states, modes) and fails


def shifted_at_vacuum(alg, from_n):
    """alg with u_n|0> read as u_{n-1}|0> for n >= from_n: a wrong state_mode at the
    vacuum.  With from_n = -1 the creation law u_{-1}|0> = u fails first; with
    from_n = 0 it holds, and u_0|0> = 0 fails before |0>_0|0> = 0 does."""
    state_mode, vac = alg.state_mode, alg.vacuum()
    alg.state_mode = lambda u, n, v: state_mode(u, n - 1 if n >= from_n and v == vac else n, v)
    return alg


@pytest.mark.parametrize("from_n, want", [
    (-1, "u(-1)|0> != u at |0⟩ (+17 more)"),
    (0, "u(0)|0> != 0 at |0⟩ (+8 more)")])
def test_vacuum_creation_fails_in_law_order(from_n, want):
    vm = shifted_at_vacuum(VacuumModule(heisenberg(1)), from_n)
    rep = vm.check_vacuum_creation(max_weight=2, torsion_bound=1, window=2)
    assert witness(rep.to_json()) == want


# -- TensorPhiAlgebra sweeps ---------------------------------------------------------


def test_tensor_phi_sweeps_pass_like_the_reference():
    pres = heisenberg(1)
    bounds = dict(max_weight=1, window=1, alpha_bound=1, torsion_bound=0)
    got = tensor_phi_sweep(tensor_phi_into(pres, "c"), **bounds)
    assert got == tensor_phi_reference(tensor_phi_into(pres, "c"), **bounds)
    assert all(c["passed"] for c in got)


def test_tensor_phi_sweeps_fail_like_the_reference():
    pres = heisenberg_with_k()
    bounds = dict(max_weight=1, window=1, alpha_bound=1, torsion_bound=0)
    got = tensor_phi_sweep(tensor_phi_into(pres, "k"), **bounds)
    assert got == tensor_phi_reference(tensor_phi_into(pres, "k"), **bounds)
    skew, jacobi = sorted(got, key=lambda c: c["check"], reverse=True)
    assert skew == {"check": "tensor-phi-skew-symmetry", "passed": True,
                    "details": "243 instances checked"}
    assert jacobi["witness"] == ("Jacobi (1,-1,-1) fails at u=|0⟩⊗e^{(-1)}, "
                                 "v=|0⟩⊗e^{(-1)}, w=h(-1)|0⟩⊗e^{(-1)} (+3791 more)")


def jacobi_table_calls(tp, states, modes, mode_pair_keys):
    """state_mode calls of a Jacobi sweep that tabulates its three terms per (u, v, w):
    one per distinct product states[i]_k states[j], plus one per table entry whose
    inner product is nonzero.  The entries are keyed by the two modes applied,
    (k1, k2), or, with mode_pair_keys false, by (p+q, i, r), (p+r, i, q) and
    (p, i, q+r)."""
    weights = [tp.state_weight(s) for s in states]
    nonzero = {}

    def inner(key):
        if key not in nonzero:
            i, k, j = key
            nonzero[key] = bool(tp.state_mode(states[i], k, states[j]))
        return nonzero[key]

    n = len(states)
    entries = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                wu, wv, ww = weights[a], weights[b], weights[c]
                ta, tb, tc = set(), set(), set()
                for p in modes:
                    for q in modes:
                        for r in modes:
                            for i in range(max(wv + ww + r, -1) + 1):
                                key = (-p - q - i - 2, i - r - 1)
                                ta.add((key if mode_pair_keys else (p + q, i, r),
                                        (b, i - r - 1, c)))
                            for i in range(max(wu + ww + q, -1) + 1):
                                key = (-p - r - i - 2, i - q - 1)
                                tb.add((key if mode_pair_keys else (p + r, i, q),
                                        (a, i - q - 1, c)))
                            for i in range(max(wu + wv + p, -1) + 1):
                                key = (i - p - 1, -q - r - i - 2)
                                tc.add((key if mode_pair_keys else (p, i, q + r),
                                        (a, i - p - 1, b)))
                entries += sum(inner(k) for table in (ta, tb, tc) for _, k in table)
    return len(nonzero) + entries


def test_jacobi_sweep_applies_each_mode_pair_once():
    """The work count of jacobi_sweep is pinned at one state_mode call per
    distinct product and per distinct (k1, k2) table key."""
    def states_of(tp):
        return [tp.key_state(k) for d in range(2) for k in tp.basis_keys(d, 0, 1)]
    modes = _mode_range(1)
    ref = tensor_phi_into(heisenberg(1), "c")
    want = jacobi_table_calls(ref, states_of(ref), modes, mode_pair_keys=True)
    # the (p+q, i, r), (p+r, i, q), (p, i, q+r) keys cost 13338 calls here
    assert want < jacobi_table_calls(ref, states_of(ref), modes, mode_pair_keys=False)

    tp = tensor_phi_into(heisenberg(1), "c")
    calls = []
    state_mode = tp.state_mode

    def counted(u, n, w):
        calls.append(n)
        return state_mode(u, n, w)
    tp.state_mode = counted
    states = states_of(tp)
    cases = list(jacobi_sweep(tp, states, modes))
    assert len(cases) == len(states) ** 3 * len(modes) ** 3
    assert failing_cases(cases) == []
    assert len(calls) == want == 8586


@pytest.mark.parametrize("from_n, want", [
    (-1, "u(-1)|0> != u at |0⟩⊗e^{(-1)} (+13 more)"),
    (0, "u(0)|0> != 0 at |0⟩⊗e^{(-1)} (+6 more)")])
def test_tensor_phi_vacuum_creation_fails_in_law_order(from_n, want):
    tp = shifted_at_vacuum(tensor_phi_into(heisenberg(1), "c"), from_n)
    checks = check_tensor_phi_axioms(tp, max_weight=1, window=1, alpha_bound=1).checks
    (check,) = [c for c in checks if c.check_id == "tensor-phi-vacuum-creation"]
    assert check.witness == want


# -- the E^- memo behind TensorPhiAlgebra._key_mode ---------------------------------------


def direct_key_mode(tp, vw, al, m, ww, be):
    """sum_k E_k(phi(al)) (vw_{m+k} ww) (x) e^{al+be}, with no memo of E^-."""
    gamma = tp.semigroup.add(al, be)
    a = tp.phi.of(al)
    out = LinComb()
    for k in range(0, tp.vm.word_weight(vw) + tp.vm.word_weight(ww) - m):
        s = tp.vm.state_mode(LinComb.single(vw), m + k, LinComb.single(ww))
        if s:
            out.add_into(eminus_apply(tp.vm, a, s, k)[k].map_keys(lambda w: (w, gamma)))
    return out


@pytest.fixture(scope="module")
def twisted():
    """One algebra per twist, with its basis words of weight <= 3, shared by
    all examples so that the memo is reused across words, alpha and orders:
    phi = c on Heisenberg (a torsion twist) and phi = h on the abelian algebra
    (a twist by every h(-n))."""
    ab = abelian(1)
    algebras = [tensor_phi_into(heisenberg(1), "c"),
                TensorPhiAlgebra(VacuumModule(ab), SemigroupL(1), PhiMap(ab, [ab.element("h")]))]
    return [(tp, [w for d in range(4) for w in tp.vm.basis_words(d, 1)]) for tp in algebras]


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 1), data=st.data(),
       al=st.integers(-3, 3), be=st.integers(-3, 3), m=st.integers(-5, 3))
def test_key_mode_memo_matches_direct_eminus(twisted, which, data, al, be, m):
    tp, words = twisted[which]
    vw = data.draw(st.sampled_from(words))
    ww = data.draw(st.sampled_from(words))
    got = tp._key_mode(vw, (al,), m, ww, (be,))
    assert got == direct_key_mode(tp, vw, (al,), m, ww, (be,))


# -- the sweeps over forked workers ---------------------------------------------------


def sweep_checks():
    """The reports of the four sweep checkers, on passing and failing algebras."""
    out = []
    for pres in (heisenberg(1), virasoro_doubled_l0()):
        vm = VacuumModule(pres)
        out += [vm.check_skew_symmetry(max_weight=4, window=2).to_json(),
                vm.check_commutator(max_weight=2, window=2).to_json(),
                vm.check_jacobi(max_weight=2, window=1).to_json()]
    for pres, target, window in ((heisenberg(1), "c", 1), (heisenberg_with_k(), "k", 0)):
        tp = tensor_phi_into(pres, target)
        out.append(check_tensor_phi_axioms(tp, max_weight=1, window=window,
                                           alpha_bound=1).to_json())
    return out


def test_sweep_reports_do_not_depend_on_the_cpu_count(shard_over):
    shard_over(1)
    want = sweep_checks()
    assert [r["passed"] for r in want] == [True] * 3 + [False] * 3 + [True, False]
    assert [witness(r) for r in want[3:6]] == [
        "skew-symmetry fails at (L(-1)|0⟩)_-1(L(-1)|0⟩) (+239 more)",
        "[u(-2),v(-2)]w defect at u=L(-1)|0⟩, v=L(-1)|0⟩, w=|0⟩ (+135 more)",
        "Jacobi coefficient (-1,0,-1) defect at u=L(-1)|0⟩, v=L(-1)|0⟩, w=|0⟩ (+143 more)"]
    assert want[7]["checks"][0]["witness"] == (
        "Jacobi (0,0,0) fails at u=h(-1)|0⟩⊗e^{(-1)}, v=h(-1)|0⟩⊗e^{(-1)}, "
        "w=h(-1)|0⟩⊗e^{(-1)} (+65 more)")
    for cpus in (2, 3):
        shard_over(cpus)
        assert sweep_checks() == want
