"""The tabulated identity sweeps against per-instance reference loops.

skew_sweep, commutator_sweep and jacobi_sweep evaluate shared subterms once
per sweep.  Each test here rebuilds the same report by tallying the
*_defect_on functions over the same cases, in the original loop order and with
the original witness strings, and asserts that the report JSON is identical: on passing
algebras, and on failing ones where the witness and the (+N more) count are
pinned.  The work count of jacobi_sweep is pinned at one state_mode call per
distinct product and one packed_mode call per (k1, k2) table key with a nonzero
coefficient.  With the slot width W narrowed, most instances fall back to the
reference, and an instance whose digits overflow is decided nonzero.  The vacuum
axioms fail on purpose on an algebra with shifted modes at the vacuum, which pins
the order of their three laws.  Hypothesis tests check
the E^- memo behind TensorPhiAlgebra's modes against the direct sum over k of
eminus_apply, the E^- suffix fill against eminus_apply on the word itself, and
packed_mode and state_mode against the modes computed over tagged keys; a serial
tensor-phi check pins one eminus_apply call per (alpha, k) and no out-of-range
_kmode key.  The four sweep checkers give the same reports with 1, 2 and 3
usable CPUs, that is, serially and over forked workers.
"""

import os
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel import cli, constructions, enveloping, workers
from vertexkernel.constructions import (PhiMap, SemigroupL, TensorPhiAlgebra,
                                        _mode_range, check_tensor_phi_axioms,
                                        eminus_apply)
from vertexkernel.enveloping import (VacuumModule, commutator_defect_on,
                                     commutator_sweep, jacobi_defect_on,
                                     jacobi_sweep, skew_defect_on, skew_sweep)
from vertexkernel.lincomb import LinComb, binom
from vertexkernel.report import ValidationReport
from vertexkernel.vla import Generator, Presentation, abelian, heisenberg, virasoro

CENTRE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs",
                      "heisenberg_centre.json")

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
    """The report of VacuumModule.check_<check>, tallied over the reference defects."""
    states = vm.basis_states(max_weight, torsion_bound)
    modes = range(-window, window + 1)
    fmt = vm.format_state
    rep = ValidationReport(subject="vacuum-module")
    if check == "skew":
        rep.tally("skew-symmetry", product(states, states, modes),
                  lambda u, v, n: skew_defect_on(vm, u, n, v),
                  lambda u, v, n: f"skew-symmetry fails at ({fmt(u)})_{n}({fmt(v)})")
    elif check == "commutator":
        rep.tally("borcherds-commutator", product(states, states, states, modes, modes),
                  lambda u, v, w, m, n: commutator_defect_on(vm, u, m, v, n, w),
                  lambda u, v, w, m, n: f"[u({m}),v({n})]w defect at "
                                        f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}")
    else:
        rep.tally("jacobi-identity", product(states, states, states, modes, modes, modes),
                  lambda *case: jacobi_defect_on(vm, *case),
                  lambda u, v, w, p, q, r: f"Jacobi coefficient ({p},{q},{r}) defect at "
                                           f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}")
    return rep.to_json()


def vacuum_sweep(vm, check, max_weight, window, torsion_bound=1):
    method = {"skew": vm.check_skew_symmetry, "commutator": vm.check_commutator,
              "jacobi": vm.check_jacobi}[check]
    return method(max_weight=max_weight, window=window,
                  torsion_bound=torsion_bound).to_json()


def tensor_phi_reference(tp, max_weight, window, alpha_bound, torsion_bound=0):
    """The skew and Jacobi checks of check_tensor_phi_axioms, tallied over the
    reference defects."""
    keys = [k for d in range(max_weight + 1)
            for k in tp.basis_keys(d, torsion_bound, alpha_bound)]
    states = [LinComb.single(k) for k in keys]
    modes = _mode_range(window)
    fmt = tp.format_state
    rep = ValidationReport()
    rep.tally("tensor-phi-skew-symmetry", product(states, states, modes),
              lambda u, v, n: skew_defect_on(tp, u, n, v),
              lambda u, v, n: f"skew fails at ({fmt(u)})_{n}({fmt(v)})")
    rep.tally("tensor-phi-jacobi", product(states, states, states, modes, modes, modes),
              lambda *case: jacobi_defect_on(tp, *case),
              lambda u, v, w, p, q, r: f"Jacobi ({p},{q},{r}) fails at "
                                       f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}")
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
    states = vm.basis_states(2, 1)
    modes = range(-2, 3)
    alg = ScaledTranslation(vm)
    fails = skew_reference(alg, states, modes)
    cases = list(skew_sweep(alg, states, modes))
    assert len(cases) == len(states) ** 2 * len(modes)
    assert failing_cases(cases) == fails
    assert len(fails) == 108
    vir = VacuumModule(virasoro_doubled_l0())
    states = vir.basis_states(3, 1)
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
    """Mode-product evaluations of a Jacobi sweep that tabulates its three terms per
    (u, v, w): one per distinct product states[i]_k states[j], plus one per table
    entry whose coefficient and inner product are nonzero.  The entries are keyed by
    the two modes applied, (k1, k2), or, with mode_pair_keys false, by (p+q, i, r),
    (p+r, i, q) and (p, i, q+r)."""
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
                                if binom(-p - 1, i):
                                    ta.add((key if mode_pair_keys else (p + q, i, r),
                                            (b, i - r - 1, c)))
                            for i in range(max(wu + ww + q, -1) + 1):
                                key = (-p - r - i - 2, i - q - 1)
                                if binom(-p - 1, i):
                                    tb.add((key if mode_pair_keys else (p + r, i, q),
                                            (a, i - q - 1, c)))
                            for i in range(max(wu + wv + p, -1) + 1):
                                key = (i - p - 1, -q - r - i - 2)
                                if binom(q + i, i):
                                    tc.add((key if mode_pair_keys else (p, i, q + r),
                                            (a, i - p - 1, b)))
                entries += sum(inner(k) for table in (ta, tb, tc) for _, k in table)
    return len(nonzero) + entries


def test_jacobi_sweep_applies_each_mode_pair_once():
    """The work count of jacobi_sweep is pinned at one state_mode call per distinct
    product and one packed_mode call per distinct (k1, k2) table key whose
    coefficient is nonzero."""
    def states_of(tp):
        return [LinComb.single(k) for d in range(2) for k in tp.basis_keys(d, 0, 1)]
    modes = _mode_range(1)
    ref = tensor_phi_into(heisenberg(1), "c")
    want = jacobi_table_calls(ref, states_of(ref), modes, mode_pair_keys=True)
    # the (p+q, i, r), (p+r, i, q), (p, i, q+r) keys cost 11988 calls here
    assert want < jacobi_table_calls(ref, states_of(ref), modes, mode_pair_keys=False)

    tp = tensor_phi_into(heisenberg(1), "c")
    products, packed = [], []

    def counting(method, calls):
        def counted(u, n, w, *slots):
            calls.append(n)
            return method(u, n, w, *slots)
        return counted
    tp.packed_mode = counting(tp.packed_mode, packed)
    tp.state_mode = counting(tp.state_mode, products)
    states = states_of(tp)
    cases = list(jacobi_sweep(tp, states, modes))
    assert len(cases) == len(states) ** 3 * len(modes) ** 3
    assert failing_cases(cases) == []
    entries = len(packed)
    assert (len(products), entries) == (108, 8316)
    assert len(products) + entries == want == 8424


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
    """The mode of two keys matches the direct sum, and the memo behind it is
    keyed without the right tag: a second right tag adds no entry."""
    tp, words = twisted[which]
    vw = data.draw(st.sampled_from(words))
    ww = data.draw(st.sampled_from(words))
    u = LinComb.single((vw, (al,)))
    got = tp.state_mode(u, m, LinComb.single((ww, (be,))))
    assert got == direct_key_mode(tp, vw, (al,), m, ww, (be,))
    entries = len(tp._kmode)
    tp.state_mode(u, m, LinComb.single((ww, (be + 1,))))
    assert len(tp._kmode) == entries


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, 1), data=st.data(), al=st.integers(-3, 3), k=st.integers(0, 5))
def test_eminus_fill_matches_eminus_apply(twisted, which, data, al, k):
    """E_k(phi(al)) of a word, read from the suffix fill seeded at E_k|0>, is the
    k-th order of the recurrence run on the word itself."""
    tp, words = twisted[which]
    w = data.draw(st.sampled_from(words))
    want = eminus_apply(tp.vm, tp.phi.of((al,)), LinComb.single(w), k)[k]
    assert tp._eminus_word((al,), w, k) == want


@pytest.fixture(scope="module")
def centre_check():
    """check --suite tensor-phi on the Heisenberg-centre input, serially so that
    every memo entry stays in this process: the one TensorPhiAlgebra it builds
    and the (phi(al), k) of each eminus_apply call."""
    algebras, calls = [], []
    init, eminus = TensorPhiAlgebra.__init__, constructions.eminus_apply

    def recording_init(self, *args):
        init(self, *args)
        algebras.append(self)

    def counting_eminus(vm, a, v, order):
        calls.append((tuple(sorted(a.items())), order))
        return eminus(vm, a, v, order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TensorPhiAlgebra, "__init__", recording_init)
        mp.setattr(constructions, "eminus_apply", counting_eminus)
        mp.setattr(workers, "_usable_cpus", lambda: 1)
        assert cli.main(["check", "--suite", "tensor-phi", "--input", CENTRE]) == 0
    (tp,) = algebras
    return tp, calls


def test_eminus_apply_runs_once_per_alpha_and_order(centre_check):
    tp, calls = centre_check
    assert calls and len(calls) == len(set(calls)) == len(tp._eminus)


def test_key_mode_stores_only_in_range_keys(centre_check):
    """_key_mode returns the zero key mode for m >= wt vw + wt ww without storing it,
    and stores a sum that vanishes as that one shared zero."""
    tp, _ = centre_check
    wt = tp.vm.word_weight
    assert tp._kmode
    assert all(m < wt(vw) + wt(ww) for vw, _, m, ww in tp._kmode)
    zeros = [entry for entry in tp._kmode.values() if not entry[1]]
    assert zeros and all(entry is constructions._KEY_NIL for entry in zeros)


# -- packed_mode against the tagged modes -------------------------------------------------


def tagged_key_mode(tp, vw, al, m, ww, be):
    """sum_k E_k(phi(al)) (vw_{m+k} ww) (x) e^{al+be} as a LinComb over tagged keys,
    the right tag be part of the product: the modes as computed before they were
    cleared and keyed without be."""
    acc = LinComb()
    for k in range(0, tp.vm.word_weight(vw) + tp.vm.word_weight(ww) - m):
        for x, c in tp.vm._state_mode_word(vw, m + k, ww).items():
            acc.add_into(tp._eminus_word(al, x, k), c)
    gamma = tp.semigroup.add(al, be)
    return acc.map_keys(lambda w2: (w2, gamma))


def tagged_state_mode(tp, u, m, w):
    out = LinComb()
    for (vw, al), cu in u.items():
        for (ww, be), cw in w.items():
            out.add_into(tagged_key_mode(tp, vw, al, m, ww, be), cu * cw)
    return out


@pytest.fixture(scope="module")
def twists():
    """The tensor algebras of the packed_mode test, each with its keys of weight
    <= 2 and |alpha| <= 2: Heisenberg (x)_phi C[Z] with phi = c, over Z^2 with
    phi = (c, c/2) and over the non-group N, and the abelian algebra with phi = h."""
    heis, ab = heisenberg(1), abelian(1)
    c = heis.element("c")

    def tensor(pres, semigroup, targets):
        return TensorPhiAlgebra(VacuumModule(pres), semigroup, PhiMap(pres, targets))
    algebras = [tensor(heis, SemigroupL(1), [c]),
                tensor(heis, SemigroupL(2), [c, Fraction(1, 2) * c]),
                tensor(heis, SemigroupL(1, group=False), [c]),
                tensor(ab, SemigroupL(1), [ab.element("h")])]
    return [(tp, [k for d in range(3) for k in tp.basis_keys(d, 1, 2)]) for tp in algebras]


def random_state(data, keys):
    """A state of one to three keys, possibly of different tags, with rational
    coefficients."""
    terms = data.draw(st.lists(st.tuples(st.sampled_from(keys),
                                         st.fractions(-3, 3, max_denominator=4)),
                               min_size=1, max_size=3))
    out = LinComb()
    for key, c in terms:
        out.add_into(LinComb.single(key, c))
    return out


def unpacked(form, slots):
    """A packed form (den, P, top) as {key: Fraction}, its keys numbered in slots."""
    den, P, top = form
    assert top < 1 << enveloping.W - 1
    out, mask = {}, (1 << enveloping.W) - 1
    for key, slot in sorted(slots.items(), key=lambda ks: ks[1]):
        d = P & mask
        if d >> (enveloping.W - 1):
            d -= 1 << enveloping.W
        if d:
            out[key] = Fraction(d, den)
        P = (P - d) >> enveloping.W
    assert P == 0
    return out


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, 3), data=st.data(), m=st.integers(-4, 2))
def test_packed_mode_matches_the_tagged_modes(twists, which, data, m):
    """packed_mode's digits over its denominator, and state_mode, are the tagged
    reference's u_m w, with every coefficient of state_mode an int when it is
    integral."""
    tp, keys = twists[which]
    u, w = random_state(data, keys), random_state(data, keys)
    want = tagged_state_mode(tp, u, m, w)
    slots = {}
    den, P, top = tp.packed_mode(u, m, w, slots)
    assert type(den) is int and den > 0 and type(P) is int
    assert LinComb(unpacked((den, P, top), slots)) == want
    got = tp.state_mode(u, m, w)
    assert got == want
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


# -- exactness of the packed sums -----------------------------------------------------


def test_narrow_slots_fall_back_to_the_reference(monkeypatch, packed_zero_case):
    """With W = 2 most zero defects have a bound past 2^1 and are decided by their
    reference; the sweeps still fail exactly where the references do, and the
    instance whose digits cancel to 0 is a failure."""
    monkeypatch.setattr(enveloping, "W", 2)
    fallbacks = []
    for name in ("commutator_defect_on", "jacobi_defect_on"):
        def counted(*args, reference=getattr(enveloping, name)):
            fallbacks.append(args)
            return reference(*args)
        monkeypatch.setattr(enveloping, name, counted)
    vir = VacuumModule(virasoro_doubled_l0())
    states, modes = vir.basis_states(2, 1), range(-1, 2)
    for sweep, reference in ((commutator_sweep, commutator_reference),
                             (jacobi_sweep, jacobi_reference)):
        before = len(fallbacks)
        fails = failing_cases(sweep(vir, states, modes))
        assert fails == reference(vir, states, modes) and fails
        assert len(fallbacks) > before
    got, want, case = packed_zero_case()
    assert case in want and got == want


def test_overflowing_digits_are_decided_nonzero(packed_zero_case):
    """The defect 2^W y - z, a difference of two terms that pack to the same int, packs
    to 0 at the full W; its bound 2^(W+1) is past 2^(W-1), so the reference decides
    it: nonzero."""
    got, want, case = packed_zero_case()
    assert case in want and got == want


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
