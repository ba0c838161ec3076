"""Derived constructions over vacuum modules.

Three layers, each with exhaustive bounded checkers:

  * the half exponential E^-(a,x) = exp(sum_{n>=1} a(-n)/n x^n) for a central
    element a, computed by the derivative recurrence k T_k = sum a(-n) T_{k-n}
    on the vacuum; as a is central, E_k(a)(h·w) = h·E_k(a)w fills each word
    from there, over the vacuum module's suffix fill;
  * the twisted tensor algebra V (x)_phi C[L] over a free abelian (semi)group
    L, whose modes are (v(x)e^a)_m (w(x)e^b) =
    sum_k E_k(phi(a)) (v_{m+k} w) (x) e^{a+b};
  * the free differential bialgebra B_L on rank(L) current lines, where
    del h_i(-n) = n h_i(-n-1), del e^alpha = abar(-1) e^alpha, generators are
    primitive and the e^alpha group-like; its Borcherds modes
    a_{-k-1} b = (1/k!) (del^k a) b agree with the (x)_phi modes on the
    abelian vacuum module under the identity key identification.

Morphism builders (extend from C[L]+current-line targets, or induce from a
generator embedding) verify the defining equations on bounded bases and
refuse inconsistent data with a witness.
"""

import operator
from fractions import Fraction
from functools import cache
from itertools import chain, product as iproduct
from math import lcm

from .coalgebra import (coalgebra_laws, d_coderivation_defect, group_like_scan,
                        intertwining_laws, is_group_like, multiplicative_laws,
                        primitive_basis, primitive_letters_delta)
from .current import Mode, mode_index, mode_normalize
from .enveloping import (PackedSum, VacuumModule, _packed, jacobi_sweep, skew_sweep,
                         sweep_defect, vacuum_creation_sweep)
from .errors import InputError, MorphismError, UnsupportedError
from .lincomb import LinComb, binom, cleared, combination, inv_factorial
from .report import ValidationReport
from .vla import abelian


# -- semigroups and central maps ------------------------------------------------------


class SemigroupL:
    """Free abelian (semi)group of finite rank: Z^r if group, else N^r."""

    def __init__(self, rank, group=True):
        if rank < 1:
            raise InputError(f"semigroup rank must be >= 1, got {rank}")
        self.rank = rank
        self.group = bool(group)

    def zero(self):
        return (0,) * self.rank

    def element(self, alpha):
        given = tuple(alpha)
        alpha = tuple(int(a) for a in given)
        if alpha != given:
            raise InputError(f"element {given} has a non-integral component")
        if len(alpha) != self.rank:
            raise InputError(f"element {alpha} has wrong rank, expected {self.rank}")
        if not self.group and any(a < 0 for a in alpha):
            raise InputError(f"element {alpha} not in N^{self.rank}")
        return alpha

    def add(self, a, b):
        return tuple(map(operator.add, a, b))

    def neg(self, a):
        if not self.group and any(a):
            raise InputError(f"{a} has no inverse in N^{self.rank}")
        return tuple(-x for x in a)

    def window(self, bound):
        """All elements with every component in [-bound, bound] (or [0, bound])."""
        lo = -bound if self.group else 0
        return sorted(iproduct(range(lo, bound + 1), repeat=self.rank))


class PhiMap:
    """Additive map from the semigroup directions into elements of C.

    Each direction gets one weight-homogeneous element; phi(alpha) is the
    integer linear combination.  Mixed-weight targets are refused because the
    tensor algebra's truncation bookkeeping leans on the grading.
    """

    def __init__(self, pres, targets):
        self.pres = pres
        self.targets = list(targets)
        for t in self.targets:
            if t:
                try:
                    pres.element_weight(t)
                except InputError:
                    raise UnsupportedError(
                        "phi targets must be weight-homogeneous") from None

    @classmethod
    def canonical(cls, pres, rank):
        """The default phi: e_i goes to the i-th free generator of pres, i <= rank."""
        free = [pres.element(g.name) for g in pres.generators if not g.torsion]
        if len(free) < rank:
            raise InputError(f"no default phi: {rank} directions but {len(free)} free generators")
        return cls(pres, free[:rank])

    def of(self, alpha):
        return combination(self.targets, alpha)


def check_phi_central(pres, phi):
    """phi(alpha)_n b = 0 for every n >= 0 and every generator b.

    The checked window n < wt(phi) + wt(b) + 1 certifies all n, because
    weight-homogeneous products truncate there."""
    def product(i, g, n):
        return pres.nth_product(phi.targets[i], n, pres.element(g.name))

    cases = ((i, g, n) for i, t in enumerate(phi.targets) for g in pres.generators
             for n in range(0, (pres.element_weight(t) if t else 0) + g.weight + 1))
    return ValidationReport(subject="phi-centrality").tally(
        "phi-centrality", cases, product,
        lambda i, g, n: f"phi(e_{i + 1})_{n} {g.name} = {pres.format_element(product(i, g, n))} != 0")


# -- the half exponential E^-(a, x) ---------------------------------------------------


def eminus_apply(vm, a, v, order):
    """x-coefficients 0..order of E^-(a,x) v, for a central element a of C.

    The modes of a commute, so exp is evaluated through its derivative:
    k T_k = sum_{n=1..k} a(-n) T_{k-n}, T_0 = v.
    """
    out = [v]
    combos = [mode_normalize(vm.pres, a, -n) for n in range(1, order + 1)]
    for k in range(1, order + 1):
        acc = LinComb()
        for n in range(1, k + 1):
            acc.add_into(vm.combo_apply(combos[n - 1], out[k - n]))
        out.append(acc if k == 1 else Fraction(1, k) * acc)  # T_1 keeps int coefficients
    return out


def eminus_conjugation_defect(vm, a, w, K, n, v):
    """Coefficient defect of Y(E^-(a,x0)w, x2) = E^-(a,x2+x0)E^-(-a,x2)Y(w,x2).

    Compares the x0^K x2^{-n-1} coefficients applied to v; the binomial
    expansion of (x2+x0)^k makes the right side
    sum_{c,l} binom(K+c,K) E_{K+c}(a) E_l(-a) (w_{n+c+l} v).
    """
    lhs = vm.state_mode(eminus_apply(vm, a, w, K)[K], n, v)
    bound = vm.state_weight(w) + vm.state_weight(v) - 1
    neg_a = -a
    rhs = LinComb()
    for c in range(0, max(bound - n, -1) + 1):
        for l in range(0, bound - n - c + 1):
            s0 = vm.state_mode(w, n + c + l, v)
            if not s0:
                continue
            s1 = eminus_apply(vm, neg_a, s0, l)[l]
            if not s1:
                continue
            rhs.add_into(eminus_apply(vm, a, s1, K + c)[K + c], binom(K + c, K))
    return lhs - rhs


def check_eminus_conjugation(vm, a, max_weight=2, order=3, window=3, torsion_bound=0):
    """The conjugation identity over all basis w, v up to max_weight,
    x0-orders K <= order and x2-modes n in the window."""
    states = vm.basis_states(max_weight, torsion_bound)
    return ValidationReport(subject="eminus").tally(
        "eminus-conjugation",
        iproduct(states, states, range(0, order + 1), range(-window, window + 1)),
        lambda w, v, K, n: eminus_conjugation_defect(vm, a, w, K, n, v),
        lambda w, v, K, n: (f"conjugation fails at w={vm.format_state(w)},"
                            f" v={vm.format_state(v)}, K={K}, n={n}"))


# -- the twisted tensor algebra V (x)_phi C[L] ---------------------------------------


_KEY_NIL = (1, {})  # the zero key mode of TensorPhiAlgebra._key_mode


class TensorPhiAlgebra:
    """V (x)_phi C[L] on keys (word id, alpha), the word ids those of vm.

    Construction is blocked unless phi's centrality certificate passes."""

    def __init__(self, vm, semigroup, phi):
        if len(phi.targets) != semigroup.rank:
            raise InputError("phi rank does not match the semigroup rank")
        if phi.pres is not vm.pres:
            raise InputError("phi targets live in a different presentation")
        rep = check_phi_central(vm.pres, phi)
        if not rep.passed:
            raise InputError(f"phi is not central: {rep.failures()[0].witness}")
        self.vm = vm
        self.semigroup = semigroup
        self.phi = phi
        self._kmode = {}
        self._eminus = {}   # (al, k) -> the suffix fill of E_k(phi(al)), by word id

    # states ------------------------------------------------------------------

    def vacuum(self):
        return LinComb.single((0, self.semigroup.zero()))

    def group_like(self, alpha):
        return LinComb.single((0, self.semigroup.element(alpha)))

    def embed(self, state, alpha=None):
        """Tag a vacuum-module state with e^alpha (default e^0)."""
        a = self.semigroup.zero() if alpha is None else self.semigroup.element(alpha)
        return state.map_keys(lambda w: (w, a))

    def state_weight(self, state):
        return max((self.vm.word_weight(w) for (w, _) in state.keys()), default=-1)

    def basis_keys(self, weight, torsion_bound=0, alpha_bound=0):
        """The keys of the given weight, sorted by (word, alpha)."""
        return [(w, al) for w in self.vm.basis_words(weight, torsion_bound)
                for al in self.semigroup.window(alpha_bound)]

    def basis_states(self, max_weight, torsion_bound=0, alpha_bound=0):
        """The keys of weight <= max_weight as states, by weight, then key."""
        return [LinComb.single(k) for d in range(max_weight + 1)
                for k in self.basis_keys(d, torsion_bound, alpha_bound)]

    # structure maps ------------------------------------------------------------

    def _eminus_word(self, al, word, k):
        """E_k(phi(al)) word.  phi(al) is central, so E_k commutes with every mode
        and E_k(h·w) = h·E_k(w): one suffix fill per (al, k), seeded at E_k|0>."""
        vm = self.vm
        memo = self._eminus.get((al, k))
        if memo is None:
            memo = self._eminus[al, k] = {0: eminus_apply(vm, self.phi.of(al), vm.vacuum(), k)[k]}
        return vm._fill(memo, word, lambda h, w, s: vm._act(h, s))

    def _key_mode(self, vw, al, m, ww):
        """sum_k E_k(phi(al)) (vw_{m+k} ww) in cleared form (den, {word id: int}), with
        E_k applied word by word.  The right key's tag be only relabels the words as
        e^{al+be}, so it is not part of the memo key.  Only in-range keys are stored, as
        in _state_mode_word: the sum is empty once m >= wt vw + wt ww.  A sum that
        vanishes is stored as the shared zero."""
        key = (vw, al, m, ww)
        out = self._kmode.get(key)
        if out is not None:
            return out
        wsum = self.vm.word_weight(vw) + self.vm.word_weight(ww)
        if m >= wsum:
            return _KEY_NIL
        # written out: as a bind, heisenberg_centre check --suite all: +5 %
        acc = LinComb()
        for k in range(0, wsum - m):
            for x, c in self.vm._state_mode_word(vw, m + k, ww).items():
                acc.add_into(self._eminus_word(al, x, k), c)
        out = self._kmode[key] = cleared(acc) if acc else _KEY_NIL
        return out

    def packed_mode(self, u, m, w, slots):
        """u_m w in packed form, its keys (word id, tag) numbered in slots (enveloping.pack):
        the key modes summed in one PackedSum, each tagged al+be."""
        add, acc = self.semigroup.add, PackedSum()
        for (vw, al), cu in u.items():
            for (ww, be), cw in w.items():
                den, ints = self._key_mode(vw, al, m, ww)
                if ints:
                    c = cu * cw
                    acc.add((den * c.denominator, *_packed(ints, slots, add(al, be))),
                            c.numerator)
        return acc.den, acc.num, acc.bound

    def state_mode(self, u, m, w):
        """u_m w, the key modes summed over their common denominator D: zeros dropped,
        integral coefficients as ints."""
        add, terms = self.semigroup.add, []
        for (vw, al), cu in u.items():
            for (ww, be), cw in w.items():
                den, ints = self._key_mode(vw, al, m, ww)
                if ints:
                    terms.append((ints, add(al, be), cu * cw, den))
        D = lcm(*(den * c.denominator for _, _, c, den in terms))
        nums = {}
        for ints, ga, c, den in terms:
            scale = c.numerator * (D // (den * c.denominator))
            for x, n in ints.items():
                k = (x, ga)
                nums[k] = nums.get(k, 0) + scale * n
        return LinComb._raw({k: n // D if n % D == 0 else Fraction(n, D)
                             for k, n in nums.items() if n})

    def product(self, u, w):
        """The (-1)-mode; an honest product when the algebra is commutative."""
        return self.state_mode(u, -1, w)

    def D(self, state, power=1):
        """Translation: D(v (x) e^a) = (Dv + phi(a)(-1) v) (x) e^a."""
        for _ in range(power):
            state = state.bind(self._d_key)
        return state

    def _d_key(self, key):
        w, al = key  # E_1(phi(al)) = phi(al)(-1)
        d = self.vm.D(LinComb.single(w)) + self._eminus_word(al, w, 1)
        return d.map_keys(lambda w2: (w2, al))

    def delta(self, state):
        """e^alpha is group-like: both legs of a word's coproduct keep the tag."""
        def of_key(key):
            w, al = key
            return self.vm.delta_word(w).map_keys(lambda k: ((k[0], al), (k[1], al)))
        return state.bind(of_key)

    def eps(self, state):
        return sum(c for (w, _), c in state.items() if not w)

    # rendering -----------------------------------------------------------------

    def key_order(self, key):
        """The sort key of a key: its word, then alpha."""
        return self.vm.word(key[0]), key[1]

    def format_key(self, key):
        w, al = key
        return f"{self.vm.format_word(w)}⊗e^{{({','.join(map(str, al))})}}"

    def format_state(self, state):
        return state.format(self.format_key, self.key_order)


def check_tensor_phi_axioms(tp, max_weight=2, window=2, alpha_bound=1,
                            torsion_bound=0):
    """Vacuum/creation exactly, plus skew-symmetry and Jacobi coefficients
    over bounded tensor states."""
    rep = ValidationReport(subject="tensor-phi")
    states = tp.basis_states(max_weight, torsion_bound, alpha_bound)
    modes = range(-window, window + 1)
    vacuum_creation_sweep(rep, "tensor-phi-vacuum-creation", tp, states, range(window + 2), modes)
    fmt = tp.format_state
    rep.tally("tensor-phi-skew-symmetry", skew_sweep(tp, states, modes),
              sweep_defect, lambda u, n, v, _: f"skew fails at ({fmt(u)})_{n}({fmt(v)})")
    return rep.tally("tensor-phi-jacobi", jacobi_sweep(tp, states, modes),
                     sweep_defect,
                     lambda u, v, w, p, q, r, _: (f"Jacobi ({p},{q},{r}) fails at "
                                                  f"u={fmt(u)}, v={fmt(v)}, w={fmt(w)}"))


def check_group_like_semigroup(tp, alpha_bound=3, window=4):
    """g_n h = 0 for n >= 0, g_{-1}h = e^{a+b} is group-like, and the product is
    associative and commutative; group-like modes in [-2, 2] commute on every key
    with |alpha| <= 1 of weight w0, the least free generator weight (0 if none)."""
    rep = ValidationReport(subject="tensor-phi-group-likes")
    alphas = tp.semigroup.window(alpha_bound)
    glike = {al: tp.group_like(al) for al in alphas}
    add = tp.semigroup.add
    pairs = list(iproduct(alphas, alphas))

    def mode(al, n, s):
        return tp.state_mode(glike[al], n, s)

    rep.tally("group-like-nonneg-modes", iproduct(alphas, alphas, range(0, window + 1)),
              lambda al, be, n: mode(al, n, glike[be]),
              lambda al, be, n: f"e^{al}({n})e^{be} != 0")
    rep.tally("group-like-product", pairs,
              lambda al, be: not is_group_like(tp, mode(al, -1, glike[be])),
              lambda al, be: f"e^{al}·e^{be} not group-like")
    rep.tally("group-like-semigroup-law", pairs,
              lambda al, be: mode(al, -1, glike[be]) != tp.group_like(add(al, be)),
              lambda al, be: f"e^{al}·e^{be} != e^{add(al, be)}")
    rep.tally("group-like-associativity", iproduct(alphas, alphas, alphas),
              lambda al, be, ga: (tp.state_mode(mode(al, -1, glike[be]), -1, glike[ga])
                                  != mode(al, -1, mode(be, -1, glike[ga]))),
              lambda al, be, ga: f"associativity fails at {al},{be},{ga}")
    rep.tally("group-like-commutativity", pairs,
              lambda al, be: mode(al, -1, glike[be]) != mode(be, -1, glike[al]),
              lambda al, be: f"commutativity fails at {al},{be}")
    w0 = min((g.weight for g in tp.vm.pres.generators if not g.torsion), default=0)
    samples = [LinComb.single(k) for k in tp.basis_keys(w0, 0, 1)]
    return rep.tally(
        "group-like-mode-commutation",
        iproduct(alphas, alphas, range(-2, 3), range(-2, 3), samples),
        lambda al, be, m, n, s: mode(al, m, mode(be, n, s)) - mode(be, n, mode(al, m, s)),
        lambda al, be, m, n, s: f"[e^{al}({m}), e^{be}({n})] != 0")


def tensor_phi_primitives(tp, weight, torsion_bound=0, alpha_bound=1):
    """Basis of the primitive part of the bounded (weight, alpha) piece."""
    return primitive_basis(tp, [LinComb.single(k)
                                for k in tp.basis_keys(weight, torsion_bound, alpha_bound)])


def check_component_structure(tp, max_weight=2, alpha_bound=2, window=3,
                              torsion_bound=0):
    """The alpha tags behave as a decomposition: Delta stays within a
    component, modes of the e^0 part preserve it, and e^gamma shifts it."""
    rep = ValidationReport(subject="components")
    keys = [k for d in range(max_weight + 1)
            for k in tp.basis_keys(d, torsion_bound, alpha_bound)]
    zero_keys = [k for k in keys if k[1] == tp.semigroup.zero()]
    add = tp.semigroup.add

    def leaves(keys, al):
        return any(k[1] != al for k in keys)

    rep.tally("component-delta", zip(keys),
              lambda k: leaves(chain.from_iterable(tp.delta(LinComb.single(k)).keys()), k[1]),
              lambda k: f"Delta leaves component {k[1]}")
    rep.tally("component-module", iproduct(keys, zero_keys, range(-window, window + 1)),
              lambda k, z, n: leaves(
                  tp.state_mode(LinComb.single(z), n, LinComb.single(k)).keys(), k[1]),
              lambda k, z, n: f"V_0 mode moved component {k[1]}")
    return rep.tally(
        "component-shift", iproduct(keys, tp.semigroup.window(1)),
        lambda k, ga: leaves(tp.state_mode(tp.group_like(ga), -1, LinComb.single(k)).keys(),
                             add(ga, k[1])),
        lambda k, ga: f"e^{ga} did not shift {k[1]} to {add(ga, k[1])}")


# -- the differential bialgebra B_L ---------------------------------------------------


def borcherds_mode(algebra, a, n, b):
    """a_n b on a commutative differential algebra: zero for n >= 0 and
    (1/k!) (del^k a) b for n = -k-1."""
    if n >= 0:
        return LinComb()
    k = -n - 1
    return inv_factorial(k) * algebra.product(algebra.D(a, k), b)


class BL:
    """B_L = S(h^-) (x) C[L] on keys (word id, alpha), the word a sorted tuple
    of modes h_i(-n), n >= 1, interned in the abelian vacuum module vm.

    del h_i(-n) = n h_i(-n-1) and del e^alpha = abar(-1) e^alpha, extended as
    a derivation; h_i(-n) primitive, e^alpha group-like.  Keys coincide with
    the abelian vacuum module's tensor keys, which makes the comparison with
    V (x)_phi C[L] literal."""

    def __init__(self, semigroup):
        self.semigroup = semigroup
        self.pres = abelian(semigroup.rank)
        self.vm = VacuumModule(self.pres)
        self.names = [g.name for g in self.pres.generators]
        self._dkey = {}   # key -> del of it
        self._pkey = {}   # (key, key) -> their product

    # The state bookkeeping is V (x)_phi C[L]'s on the same keys, aliased rather
    # than inherited: product, D (through its per-key del _d_key), state_mode,
    # delta and eps are B_L's own and are the reference the (x)_phi ones are
    # checked against.
    vacuum = TensorPhiAlgebra.vacuum
    group_like = TensorPhiAlgebra.group_like
    state_weight = TensorPhiAlgebra.state_weight
    basis_keys = TensorPhiAlgebra.basis_keys
    basis_states = TensorPhiAlgebra.basis_states
    key_order = TensorPhiAlgebra.key_order
    format_key = TensorPhiAlgebra.format_key
    format_state = TensorPhiAlgebra.format_state
    D = TensorPhiAlgebra.D

    def monomial(self, modes, alpha=None):
        """A basis element from (name, -n) pairs and an optional tag."""
        al = self.semigroup.zero() if alpha is None else self.semigroup.element(alpha)
        word = []
        for g, n in modes:
            if mode_index(g, n) >= 0:
                raise InputError(f"{g}({n}): current-line modes must be negative")
            word.append(Mode(g, n))
        return LinComb.single((self._sorted_id(word), al))

    def bar_state(self, alpha):
        """abar(-1) = sum_i alpha_i h_i(-1), tagged e^0."""
        return combination([self.monomial([(nm, -1)]) for nm in self.names], alpha)

    def _sorted_id(self, modes):
        """The id of the sorted word of some modes."""
        return self.vm.word_id(sorted(modes, key=self.vm.sort_key))

    def product(self, u, v):
        return u.tensor(v).bind(self._product_key)

    def _product_key(self, pair):
        """The product of a pair of keys, memoised per pair."""
        out = self._pkey.get(pair)
        if out is None:
            (w1, a), (w2, b) = pair
            out = self._pkey[pair] = LinComb.single(
                (self._sorted_id(self.vm.word(w1) + self.vm.word(w2)), self.semigroup.add(a, b)))
        return out

    def _d_key(self, key):
        """del of a key, memoised per key."""
        out = self._dkey.get(key)
        if out is None:
            w, al = key
            w = self.vm.word(w)
            out = self._dkey[key] = LinComb()
            for i, m in enumerate(w):
                bumped = self._sorted_id(w[:i] + (Mode(m.gen, m.n - 1),) + w[i + 1:])
                out.add_into(LinComb.single((bumped, al)), -m.n)
            for j, a in enumerate(al):
                if a:
                    w2 = self._sorted_id(w + (Mode(self.names[j], -1),))
                    out.add_into(LinComb.single((w2, al)), a)
        return out

    def state_mode(self, u, n, v):
        return borcherds_mode(self, u, n, v)

    def delta(self, state):
        """The algebra map for product with h_i(-n) primitive and e^alpha
        group-like."""
        zero = self.semigroup.zero()
        return state.bind(lambda key: primitive_letters_delta(
            self, (0, key[1]), [(self.vm.word_id((m,)), zero) for m in self.vm.word(key[0])],
            (0, zero)))

    def eps(self, state):
        """The algebra map to Q for product with eps(h_i(-n)) = 0 and
        eps(e^alpha) = 1, multiplied out over the factors of each key as delta
        is."""
        def of_key(key):
            word, _ = key
            out = 1  # eps(e^alpha)
            for _ in self.vm.word(word):
                out *= 0  # eps(h_i(-n))
            return out
        return sum(c * of_key(key) for key, c in state.items())


def bl_phi(bl, g):
    """phi(g) = g^{-1} · del(g) for a monomial group-like g = e^alpha."""
    items = list(g.items())
    if len(items) != 1 or items[0][0][0] != 0 or items[0][1] != 1:
        raise InputError("bl_phi expects a monomial group-like e^alpha")
    alpha = items[0][0][1]
    return bl.product(bl.group_like(bl.semigroup.neg(alpha)), bl.D(g))


def check_bl_bialgebra(bl, max_weight=3, alpha_bound=2):
    """Differential-bialgebra axioms on the bounded basis: Delta and eps are
    algebra morphisms, coalgebra axioms hold, del is a coderivation killed by
    eps, and phi(g) = g^{-1} del g is additive over the window."""
    states = bl.basis_states(max_weight, alpha_bound=alpha_bound)
    fmt = bl.format_state
    rep = coalgebra_laws(bl, states, "bl")
    rep.tally("d-coderivation", zip(states), lambda s: d_coderivation_defect(bl, s),
              lambda s: f"Delta(del u) != (del(x)1 + 1(x)del)Delta(u) at {fmt(s)}")
    rep.tally("counit-kills-d", zip(states), lambda s: bl.eps(bl.D(s)),
              lambda s: f"eps(del u) != 0 at {fmt(s)}")

    pairs = [(u, v) for u in states for v in states
             if bl.state_weight(u) + bl.state_weight(v) <= max_weight]
    multiplicative_laws(rep, ("delta-multiplicative", "counit-multiplicative"), bl, pairs)
    rep.tally("d-derivation", pairs,
              lambda u, v: bl.D(bl.product(u, v)) != bl.product(bl.D(u), v) + bl.product(u, bl.D(v)),
              lambda u, v: "del not a derivation")
    if bl.semigroup.group:
        window = bl.semigroup.window(alpha_bound)
        rep.tally("bl-phi-additivity", iproduct(window, window),
                  lambda al, be: (bl_phi(bl, bl.group_like(bl.semigroup.add(al, be)))
                                  != bl_phi(bl, bl.group_like(al)) + bl_phi(bl, bl.group_like(be))),
                  lambda al, be: f"phi(e^{al}·e^{be}) != phi(e^{al}) + phi(e^{be})")
    return rep


def check_bl_equals_tensor_phi(bl, max_weight=3, alpha_bound=2, window=4):
    """Borcherds modes, D, Delta and eps on B_L match the (x)_phi ones on the
    abelian vacuum module with phi(e_i) = h_i, key for key; B_L's Delta and eps
    are its own algebra maps, so each comparison is between two routes."""
    tp = TensorPhiAlgebra(bl.vm, bl.semigroup, PhiMap.canonical(bl.pres, bl.semigroup.rank))
    rep = ValidationReport(subject="bl-vs-tensor-phi")
    states = bl.basis_states(max_weight, alpha_bound=alpha_bound)
    fmt = bl.format_state
    rep.tally("bl-equals-tensor-phi-modes", iproduct(states, states, range(-window, window + 1)),
              lambda u, v, n: bl.state_mode(u, n, v) != tp.state_mode(u, n, v),
              lambda u, v, n: f"modes differ at ({fmt(u)})_{n}({fmt(v)})")
    rep.tally("bl-equals-tensor-phi-d", zip(states), lambda s: bl.D(s) != tp.D(s),
              lambda s: f"derivations differ at {fmt(s)}")
    return rep.tally(
        "bl-equals-tensor-phi-coalgebra", zip(states),
        lambda s: bl.delta(s) != tp.delta(s) or bl.eps(s) != tp.eps(s),
        lambda s: f"coalgebra maps differ at {fmt(s)}")


# -- morphisms ------------------------------------------------------------------------


def extend_universal_morphism(bl, target, psi, phi_b, max_weight=3, alpha_bound=2):
    """The differential-bialgebra morphism f on B_L with f(e^alpha) = psi(alpha)
    and f(h_i(-1)) = phi_b(i).

    Refuses (MorphismError) unless psi lands in group-likes, is multiplicative
    on the window, and satisfies del psi(e^alpha) = phi_b(abar) psi(e^alpha);
    the returned report then verifies f against product, del, Delta and eps on
    the bounded basis."""
    window = bl.semigroup.window(alpha_bound)
    psi_img = {al: psi(al) for al in window}
    lines = [phi_b(i) for i in range(len(bl.names))]   # the images of the h_i(-1)

    zero = bl.semigroup.zero()
    if psi_img.get(zero, psi(zero)) != target.vacuum():
        raise MorphismError("psi(e^0) is not the unit", witness=str(zero))
    for al, p in psi_img.items():
        if not is_group_like(target, p):
            raise MorphismError(f"psi(e^{al}) is not group-like", witness=str(al))
        if target.D(p) != target.product(combination(lines, al), p):
            raise MorphismError(
                f"del psi(e^{al}) != phi_B(abar) psi(e^{al})", witness=str(al))
    for al, be in iproduct(window, window):
        ga = bl.semigroup.add(al, be)
        if ga in psi_img and target.product(psi_img[al], psi_img[be]) != psi_img[ga]:
            raise MorphismError("psi is not multiplicative", witness=f"{al},{be}")

    @cache
    def line_image(gen, n):
        """h_i(-n) = del^{n-1} h_i(-1) / (n-1)!"""
        return inv_factorial(n - 1) * target.D(lines[bl.names.index(gen)], n - 1)

    def f_key(key):
        w, al = key
        img = psi_img.get(al)
        if img is None:
            img = psi_img[al] = psi(al)
        for m in bl.vm.word(w):
            img = target.product(line_image(m.gen, -m.n), img)
        return img

    def f(state):
        return state.bind(f_key)

    rep = ValidationReport(subject="universal-morphism")
    states = bl.basis_states(max_weight, alpha_bound=alpha_bound)
    images = [f(s) for s in states]
    idx = range(len(states))
    fmt = bl.format_state
    rep.tally("morphism-algebra",
              ((i, j) for i in idx for j in idx
               if bl.state_weight(states[i]) + bl.state_weight(states[j]) <= max_weight),
              lambda i, j: (f(bl.product(states[i], states[j]))
                            != target.product(images[i], images[j])),
              lambda i, j: f"f not multiplicative at {fmt(states[i])}, {fmt(states[j])}")
    rep.tally("morphism-d", zip(states, images),
              lambda s, img: f(bl.D(s)) != target.D(img),
              lambda s, img: f"f does not intertwine del at {fmt(s)}")
    intertwining_laws(rep, ("morphism-delta", "morphism-counit"), bl, target, f_key,
                      states, images)
    return f, rep


def induced_vertex_morphism(pres, embedding, target, max_weight=3, window=4,
                            torsion_bound=1):
    """The vertex-algebra morphism V_C -> target sending a(-1)|0> to the
    embedded generator images.

    The embedding must match all nonnegative products of the presentation
    (checked through both truncation bounds; failure raises MorphismError).
    The report then samples Psi(u_n v) = Psi(u)_n Psi(v), Delta Psi =
    (Psi x Psi) Delta and eps Psi = eps on the bounded basis."""
    vm = VacuumModule(pres)
    unit_t = target.vacuum()
    embedding = dict(embedding)
    for g in pres.generators:
        if g.name not in embedding:
            raise MorphismError(f"no image for generator {g.name}", witness=g.name)

    def elt_image(elt):
        """A C element sum c·D^d g mapped through D_target and the embedding."""
        return elt.bind(lambda key: target.D(embedding[key[0]], key[1]))

    for a in pres.generators:
        for b in pres.generators:
            row = pres.table(a.name, b.name)
            bound = max(a.weight + b.weight,
                        target.state_weight(embedding[a.name])
                        + target.state_weight(embedding[b.name]))
            for n in range(0, bound + 1):
                want = elt_image(row.get(n, LinComb()))
                got = target.state_mode(embedding[a.name], n, embedding[b.name])
                if got != want:
                    raise MorphismError(
                        f"embedding breaks {a.name}_{n} {b.name}",
                        witness=f"{a.name}_{n}{b.name}")
        if a.torsion and target.D(embedding[a.name]):
            raise MorphismError(f"image of torsion {a.name} is not D-constant",
                                witness=a.name)

    def psi_word(w):
        out = unit_t
        for m in reversed(vm.word(w)):
            out = target.state_mode(embedding[m.gen], m.n, out)
        return out

    def psi(state):
        return state.bind(psi_word)

    rep = ValidationReport(subject="induced-morphism")
    states = vm.basis_states(max_weight, torsion_bound)
    images = [psi(s) for s in states]
    idx = range(len(states))
    fmt = vm.format_state
    rep.tally("morphism-modes", iproduct(idx, idx, range(-window, window + 1)),
              lambda i, j, n: (psi(vm.state_mode(states[i], n, states[j]))
                               != target.state_mode(images[i], n, images[j])),
              lambda i, j, n: (f"Psi(u({n})v) != Psi(u)({n})Psi(v) at"
                               f" u={fmt(states[i])}, v={fmt(states[j])}"))
    intertwining_laws(rep, ("morphism-delta", "morphism-counit"), vm, target, psi_word,
                      states, images)
    return psi, rep


def tensor_phi_group_like_scan(tp, alphas):
    """The exact group-like scan over the span of {e^alpha : alpha in alphas}."""
    return group_like_scan(tp, [tp.group_like(al) for al in alphas])
