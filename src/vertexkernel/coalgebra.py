"""Coalgebra layer on vacuum modules, plus two small comparison models.

A vacuum module carries Delta (every mode primitive) and eps
(coefficient of the vacuum).  This module packages the checks that make the
pair a cocommutative coalgebra compatible with the vertex structure —
coassociativity, counit laws, cocommutativity, D as a coderivation, Delta
and eps as morphisms for every mode product — together with primitive /
group-like extraction.  It also implements the free divided-power bialgebra
and the universal enveloping algebra of a finite-dimensional Lie algebra,
related by the divided-power comparison map psi.

The coalgebra laws, Delta/eps multiplicativity, Delta/eps intertwining and the
primitive kernel are each written once, over the protocol every model shares
(delta, eps, product, format_state), and used by all of them.  Delta and eps as
morphisms for the mode products read state_mode and state_weight as well, so
they run on every mode algebra: the vacuum module, V (x)_phi C[L] and B_L.
"""

from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product as iproduct
from math import isqrt, lcm

from .errors import InputError, UnsupportedError
from .linalg import kernel_coefficients, rank_of, row_reduce
from .lincomb import LinComb, binom, combination, inv_factorial
from .report import ValidationReport


def delta_state(vm, state):
    """Coproduct, a LinComb over pairs of basis word ids."""
    return vm.delta(state)


# -- primitive / group-like elements ------------------------------------------------


def primitive_defect(vm, state):
    """Delta(u) - u (x) |0> - |0> (x) u; zero exactly when u is primitive."""
    vac = vm.vacuum()
    return vm.delta(state) - state.tensor(vac) - vac.tensor(state)


def is_primitive(vm, state):
    return not primitive_defect(vm, state)


def group_like_defect(vm, state):
    return vm.delta(state) - state.tensor(state)


def is_group_like(vm, state):
    """Delta(g) = g (x) g and eps(g) = 1, both exact."""
    return vm.eps(state) == 1 and not group_like_defect(vm, state)


def primitive_basis(obj, states):
    """Basis of the primitives in the span of states: the exact kernel of
    u |-> Delta(u) - u(x)1 - 1(x)u."""
    defects = [primitive_defect(obj, s) for s in states]
    return [combination(states, coeffs) for coeffs in kernel_coefficients(defects)]


def primitive_subspace(vm, weight, torsion_bound=0):
    """Basis of the primitives in the (weight, <= torsion_bound) graded piece."""
    return primitive_basis(vm, [LinComb.single(w) for w in vm.basis_words(weight, torsion_bound)])


def _within(z, t, keys):
    """sum_ab z(k_a, k_b) t_a (x) t_b for t in reduced echelon form over the
    pivot keys k: equal to z exactly when z lies in span(t) (x) span(t)."""
    at = dict(zip(keys, t))
    return z.bind(lambda k: at[k[0]].tensor(at[k[1]]) if k[0] in at and k[1] in at else LinComb())


def _rational_eigenvalues(m):
    """Eigenvalues of the matrix whose column a is m[a] (a LinComb over row
    indices): the roots of its minimal polynomial, found by the rational root
    theorem.  An eigenvalue outside Q is refused."""
    # M^j as one LinComb over (column, row) pairs, for j = 0, ..., len(m)
    powers = [LinComb({(a, a): 1 for a in range(len(m))})]
    for _ in m:
        powers.append(powers[-1].bind(lambda k: m[k[1]].map_keys(lambda r: (k[0], r))))
    # the first kernel vector is (c_0, ..., c_{d-1}, 1, 0, ..., 0): the monic
    # relation of least degree d, read here highest degree first
    poly = kernel_coefficients(powers)[0][::-1]
    poly = poly[poly.index(1):]
    den = lcm(*(c.denominator for c in poly))
    low = int(den * next(c for c in reversed(poly) if c))
    roots = set()
    for r in sorted({0} | {s * Fraction(p, q) for p in _divisors(low) for q in _divisors(den)
                           for s in (1, -1)}):
        while True:  # divide out x - r while it divides
            acc, quotient = 0, []
            for c in poly:
                acc = acc * r + c
                quotient.append(acc)
            if acc:
                break
            poly = quotient[:-1]
            roots.add(r)
    if len(poly) > 1:
        raise UnsupportedError("the span has group-likes with coordinates outside Q")
    return sorted(roots)


def _divisors(n):
    return {d for p in range(1, isqrt(abs(n)) + 1) if n % p == 0 for d in (p, abs(n) // p)}


def group_like_scan(obj, basis_states):
    """All group-like elements in the span of basis_states, sorted by their
    coordinates over basis_states; exact linear algebra over Q.

    The span is shrunk to its largest subcoalgebra T and put in reduced
    echelon form t_a over pivot keys k_a.  With M_c x = (id (x) k_c*)Delta x, a
    group-like g has M_c g = g(k_c) g, and a common eigenvector v with
    M_c v = chi_c v has Delta v = v (x) sum_c chi_c t_c, which makes
    sum_c chi_c t_c group-like: each common eigenspace gives one candidate.
    A dependent span, and an M_c with an eigenvalue outside Q (for a
    cocommutative obj: a group-like with irrational coordinates), are refused.
    """
    basis_states = list(basis_states)
    n = len(basis_states)
    t, keys = row_reduce(basis_states)
    if len(t) < n:
        raise UnsupportedError("group-like scan needs linearly independent states")
    while True:  # keep the x with Delta x in T (x) T until T is stable
        deltas = [obj.delta(x) for x in t]
        inside = kernel_coefficients([d - _within(d, t, keys) for d in deltas])
        if len(inside) == len(t):
            break
        t, keys = row_reduce([combination(t, x) for x in inside])
    pieces = [([LinComb.single(a) for a in range(len(t))], ())]
    for kc in keys:  # M_c t_b = sum_a Delta t_b(k_a, k_c) t_a, on coordinates
        m = [LinComb({a: d.get((ka, kc)) for a, ka in enumerate(keys)}) for d in deltas]
        refined = []
        for lam in _rational_eigenvalues(m):
            for w, chi in pieces:
                ker = kernel_coefficients([v.bind(m.__getitem__) - lam * v for v in w])
                if ker:
                    refined.append(([combination(w, x) for x in ker], chi + (lam,)))
        pieces = refined
    found = [g for g in (combination(t, chi) for _, chi in pieces) if is_group_like(obj, g)]
    coords = sorted(tuple(-c for c in x[:n]) for x in kernel_coefficients(basis_states + found))
    return [combination(basis_states, x) for x in coords]


# -- coalgebra axiom checks ----------------------------------------------------------


def coassociativity_defect(obj, state):
    """(Delta (x) id)Delta - (id (x) Delta)Delta, over triples of keys."""
    def defect(key):
        w1, w2 = key
        return (obj.delta(LinComb.single(w1)).map_keys(lambda ab: (*ab, w2))
                - obj.delta(LinComb.single(w2)).map_keys(lambda ab: (w1, *ab)))
    return obj.delta(state).bind(defect)


def counit_law_defects(obj, state):
    """(eps (x) id)Delta(u) - u  and  (id (x) eps)Delta(u) - u."""
    d = obj.delta(state)
    return (d.bind(lambda k: obj.eps(LinComb.single(k[0])) * LinComb.single(k[1])) - state,
            d.bind(lambda k: obj.eps(LinComb.single(k[1])) * LinComb.single(k[0])) - state)


def cocommutativity_defect(obj, state):
    d = obj.delta(state)
    return d.map_keys(lambda k: (k[1], k[0])) - d


def d_coderivation_defect(obj, state):
    """Delta(D u) - (D (x) 1 + 1 (x) D)Delta(u)."""
    def leibniz(key):
        s1, s2 = LinComb.single(key[0]), LinComb.single(key[1])
        return obj.D(s1).tensor(s2) + s1.tensor(obj.D(s2))
    return obj.delta(obj.D(state)) - obj.delta(state).bind(leibniz)


def coalgebra_laws(obj, states, subject):
    """Coassociativity, the counit laws and cocommutativity on each state, as a
    report on subject; witnesses are rendered by obj.format_state."""
    rep = ValidationReport(subject=subject)
    fmt = obj.format_state
    rep.tally("coassociativity", zip(states), lambda s: coassociativity_defect(obj, s),
              lambda s: f"coassociativity fails at {fmt(s)}")
    rep.tally("counit-law", zip(states), lambda s: any(counit_law_defects(obj, s)),
              lambda s: f"counit law fails at {fmt(s)}")
    return rep.tally("cocommutativity", zip(states), lambda s: cocommutativity_defect(obj, s),
                     lambda s: f"cocommutativity fails at {fmt(s)}")


def check_coalgebra(vm, max_weight=5, torsion_bound=1):
    """Coassociativity, counit laws, cocommutativity and the D-coderivation
    rule on all basis states up to max_weight."""
    states = vm.basis_states(max_weight, torsion_bound)
    return coalgebra_laws(vm, states, "coalgebra").tally(
        "d-coderivation", zip(states), lambda s: d_coderivation_defect(vm, s),
        lambda s: f"Delta(Du) != (D(x)1 + 1(x)D)Delta(u) at {vm.format_state(s)}")


# -- Delta and eps against products and morphisms ------------------------------------


def tensor_product_through(alg, s, t):
    """(a (x) b)(c (x) d) = ac (x) bd, componentwise through alg.product."""
    def of_pair(key):
        (a, b), (e, g) = key
        return alg.product(LinComb.single(a), LinComb.single(e)).tensor(
            alg.product(LinComb.single(b), LinComb.single(g)))
    return s.tensor(t).bind(of_pair)


def delta_multiplicativity_defect(alg, u, v):
    """Delta(uv) - Delta(u)Delta(v)."""
    return alg.delta(alg.product(u, v)) - tensor_product_through(alg, alg.delta(u), alg.delta(v))


def counit_multiplicativity_defect(alg, u, v):
    """eps(uv) - eps(u)eps(v)."""
    return alg.eps(alg.product(u, v)) - alg.eps(u) * alg.eps(v)


def multiplicative_laws(rep, ids, alg, pairs):
    """Tally into rep, as the check ids ids[0] and ids[1], Delta(uv) = Delta(u)Delta(v)
    and then eps(uv) = eps(u)eps(v) at each (u, v) in the list pairs."""
    rep.tally(ids[0], pairs, lambda u, v: delta_multiplicativity_defect(alg, u, v),
              lambda u, v: "Delta not multiplicative")
    return rep.tally(ids[1], pairs, lambda u, v: counit_multiplicativity_defect(alg, u, v),
                     lambda u, v: "eps not multiplicative")


def intertwining_laws(rep, ids, source, target, image_of_key, states, images):
    """Tally into rep, as the check ids ids[0] and ids[1], Delta f(s) = (f (x) f) Delta s
    and then eps f(s) = eps s for each s in states, its image f(s) the matching
    entry of images; f is the linear map given on basis keys by image_of_key."""
    fmt = source.format_state

    def delta_defect(s, img):
        return target.delta(img) - source.delta(s).bind(
            lambda k: image_of_key(k[0]).tensor(image_of_key(k[1])))
    rep.tally(ids[0], zip(states, images), delta_defect,
              lambda s, img: f"f does not intertwine Delta at {fmt(s)}")
    return rep.tally(ids[1], zip(states, images), lambda s, img: target.eps(img) - source.eps(s),
                     lambda s, img: f"f does not intertwine eps at {fmt(s)}")


# -- Delta and eps against mode products ---------------------------------------------


def delta_morphism_defect(alg, u, n, v):
    """Defect of Delta(u_n v) = sum_m (u'_m v') (x) (u''_{n-m-1} v'').

    The m window is finite: the left factor vanishes once m exceeds
    wt(u') + wt(v') - 1 and the right one once m drops below
    n - wt(u'') - wt(v'').
    """
    def legs(state):
        """(left, its weight, right, its weight, coefficient) per term of Delta."""
        out = []
        for (k1, k2), c in alg.delta(state).items():
            s1, s2 = LinComb.single(k1), LinComb.single(k2)
            out.append((s1, alg.state_weight(s1), s2, alg.state_weight(s2), c))
        return out

    lhs = alg.delta(alg.state_mode(u, n, v))
    rhs = LinComb()
    dv = legs(v)
    for s1, wu1, s2, wu2, cu in legs(u):
        for t1, wv1, t2, wv2, cv in dv:
            for m in range(n - wu2 - wv2, wu1 + wv1):
                left = alg.state_mode(s1, m, t1)
                if not left:
                    continue
                right = alg.state_mode(s2, n - m - 1, t2)
                if right:
                    rhs.add_into(left.tensor(right), cu * cv)
    return lhs - rhs


def counit_mode_defect(alg, u, n, v):
    """eps(u_n v) - delta_{n,-1} eps(u) eps(v)."""
    lhs = alg.eps(alg.state_mode(u, n, v))
    rhs = alg.eps(u) * alg.eps(v) if n == -1 else 0
    return lhs - rhs


def check_delta_morphism(alg, states, modes):
    """Delta and eps are morphisms for u_n v, for every pair u, v of states and
    every n in modes, on any mode algebra."""
    cases = [(u, n, v) for u in states for v in states for n in modes]

    def spot(u, n, v):
        return f"({alg.format_state(u)})_{n}({alg.format_state(v)})"
    rep = ValidationReport(subject="coalgebra")
    rep.tally("delta-mode-morphism", cases, lambda u, n, v: delta_morphism_defect(alg, u, n, v),
              lambda u, n, v: f"Delta not multiplicative at {spot(u, n, v)}")
    return rep.tally("counit-mode-morphism", cases,
                     lambda u, n, v: counit_mode_defect(alg, u, n, v),
                     lambda u, n, v: f"eps not multiplicative at {spot(u, n, v)}")


# -- divided-power bialgebra ---------------------------------------------------------


def dp_product(f, g):
    """x^(f) * x^(g) = prod_i binom(f_i + g_i, f_i) * x^(f+g)."""
    if len(f) != len(g):
        raise InputError("divided-power keys over different index sets")
    coeff = Fraction(1)
    for a, b in zip(f, g):
        coeff *= binom(a + b, a)
    return coeff, tuple(a + b for a, b in zip(f, g))


def dp_delta(f):
    """Delta(x^(f)) = sum over splittings g + h = f of x^(g) (x) x^(h)."""
    return LinComb({(g, tuple(a - b for a, b in zip(f, g))): 1
                    for g in iproduct(*(range(a + 1) for a in f))})


class DividedPowerBialgebra:
    """Free divided-power bialgebra on `rank` commuting generators.

    Basis keys are rank-tuples of nonnegative exponents f, standing for the
    divided monomial prod_i x_i^(f_i) = prod_i x_i^{f_i} / f_i!.
    """

    def __init__(self, rank):
        if rank < 0:
            raise InputError("rank must be nonnegative")
        self.rank = rank

    def vacuum(self):
        return LinComb.single((0,) * self.rank)

    def product(self, u, v):
        def of_pair(fg):
            c, key = dp_product(*fg)
            return LinComb.single(key, c)
        return u.tensor(v).bind(of_pair)

    def delta(self, state):
        return state.bind(dp_delta)

    def eps(self, state):
        return state.get((0,) * self.rank)

    def basis(self, degree):
        """All exponent keys of total degree `degree`, lexicographically."""
        return sorted(f for f in iproduct(*(range(degree + 1) for _ in range(self.rank)))
                      if sum(f) == degree)

    def format_state(self, state):
        return state.format(str)

    def check_bialgebra(self, max_degree=4):
        """All bialgebra axioms on basis elements of total degree <= max_degree."""
        keys = [f for d in range(max_degree + 1) for f in self.basis(d)]
        states = [LinComb.single(f) for f in keys]
        rep = coalgebra_laws(self, states, "divided-power-bialgebra")
        one, prod = self.vacuum(), self.product
        rep.tally("unit-law", zip(states), lambda u: prod(one, u) != u or prod(u, one) != u,
                  lambda u: f"unit law fails at {self.format_state(u)}")
        pairs = [(LinComb.single(f), LinComb.single(g)) for f in keys for g in keys
                 if sum(f) + sum(g) <= max_degree]
        rep.tally("associativity", ((u, v, w) for u, v in pairs for w in states),
                  lambda u, v, w: prod(prod(u, v), w) != prod(u, prod(v, w)),
                  lambda u, v, w: "associativity fails")
        rep.tally("commutativity", pairs, lambda u, v: prod(u, v) != prod(v, u),
                  lambda u, v: "commutativity fails")
        return multiplicative_laws(rep, ("delta-multiplicative", "counit-multiplicative"), self,
                                   pairs)


# -- Lie algebras and U(g) -----------------------------------------------------------


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    brackets maps ordered index pairs (i, j), i < j, to {k: coeff} meaning
    [x_i, x_j] = sum_k coeff * x_k; the antisymmetric completion is implied.
    """

    def __init__(self, names, brackets=None):
        self.names = list(names)
        n = len(self.names)
        self.table = {}
        for (i, j), row in (brackets or {}).items():
            if not 0 <= i < j < n:
                raise InputError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            v = LinComb()
            for k, c in row.items():
                if not 0 <= k < n:
                    raise InputError(f"unknown basis index {k}")
                v.add_into(LinComb.single(k, Fraction(c)))
            self.table[(i, j)] = v

    def bracket(self, i, j):
        """[x_i, x_j] as a LinComb of the caller's own; the table has only i < j."""
        if i > j:
            return -self.bracket(j, i)
        return LinComb(self.table.get((i, j), {}))

    def bracket_states(self, u, v):
        return u.tensor(v).bind(lambda ij: self.bracket(*ij))

    def validate(self):
        def jacobi(i, j, k):
            return (self.bracket_states(self.bracket(i, j), LinComb.single(k))
                    + self.bracket_states(self.bracket(j, k), LinComb.single(i))
                    + self.bracket_states(self.bracket(k, i), LinComb.single(j)))

        nm = self.names
        return ValidationReport(subject="lie-algebra").tally(
            "lie-jacobi", iproduct(range(len(nm)), repeat=3), jacobi,
            lambda i, j, k: f"Jacobi fails at ({nm[i]},{nm[j]},{nm[k]})")


class UniversalEnveloping:
    """U(g) of a LieAlgebra, on the PBW basis of nondecreasing index words."""

    def __init__(self, lie):
        self.lie = lie
        self._straight = {}
        self._apply = {}

    def vacuum(self):
        return LinComb.single(())

    def _apply_letter(self, i, word):
        """x_i times a sorted word: prepended if it sorts first, otherwise moved
        past the head h by x_i h w = h (x_i w) + [x_i, h] w.  The suffixes it moves
        past are walked in a loop, longest first, and filled from the shortest up,
        as in VacuumModule._apply_word, so no call recurses over the word's length."""
        memo, missing, w = self._apply, [], word
        while (out := memo.get((i, w))) is None:
            if not w or i <= w[0]:
                out = memo[i, w] = LinComb.single((i,) + w)
                break
            missing.append(w)
            w = w[1:]
        for w in reversed(missing):
            head, rest = w[0], w[1:]
            step = out.bind(partial(self._apply_letter, head))
            step.add_into(self.lie.bracket(i, head).bind(lambda k: self._apply_letter(k, rest)))
            out = memo[i, w] = step
        return out

    def straighten(self, word):
        """PBW normal form: the word's letters act on the empty word from right
        to left."""
        out = self._straight.get(word)
        if out is None:
            out = self.vacuum()
            for i in reversed(word):
                out = out.bind(partial(self._apply_letter, i))
            self._straight[word] = out
        return out

    def product(self, u, v):
        return u.tensor(v).bind(lambda uv: self.straighten(uv[0] + uv[1]))

    def delta(self, state):
        """The algebra map with every x_i primitive, multiplied out over each word."""
        def of_word(word):
            out = LinComb.single(((), ()))
            for i in reversed(word):
                out = tensor_product_through(self, LinComb({((i,), ()): 1, ((), (i,)): 1}), out)
            return out
        return state.bind(of_word)

    def eps(self, state):
        return state.get(())

    tensor_product = tensor_product_through

    def format_state(self, state):
        return state.format(str)

    def basis_words(self, degree):
        return list(combinations_with_replacement(range(len(self.lie.names)), degree))

    def psi(self, f):
        """Divided-power comparison map: f |-> (1/prod f_i!) x^f, PBW-ordered."""
        if len(f) != len(self.lie.names):
            raise InputError("exponent key length does not match the Lie basis")
        word = tuple(i for i, e in enumerate(f) for _ in range(e))
        coeff = Fraction(1)
        for e in f:
            coeff *= inv_factorial(e)
        return LinComb.single(word, coeff)

    def check_bialgebra(self, max_degree=3):
        """Delta and eps multiplicativity (through straightening), coassociativity,
        counit laws and cocommutativity on PBW words up to max_degree."""
        words = [w for d in range(max_degree + 1) for w in self.basis_words(d)]
        states = [LinComb.single(w) for w in words]
        pairs = [(LinComb.single(a), LinComb.single(b)) for a in words for b in words
                 if len(a) + len(b) <= max_degree]
        return multiplicative_laws(coalgebra_laws(self, states, "universal-enveloping"),
                                   ("delta-multiplicative", "counit-multiplicative"), self, pairs)


def psi_g(f, lie):
    """Standalone convenience: the comparison map on a one-off U(g)."""
    return UniversalEnveloping(lie).psi(f)


def check_psi_coalgebra(lie, max_degree=4):
    """psi intertwines the divided-power coproduct/counit with U(g)'s, and is
    a degreewise linear isomorphism onto the PBW basis span."""
    ue = UniversalEnveloping(lie)
    dp = DividedPowerBialgebra(len(lie.names))
    rep = ValidationReport(subject="psi-comparison")
    keys = [f for d in range(max_degree + 1) for f in dp.basis(d)]
    images = [ue.psi(f) for f in keys]
    intertwining_laws(rep, ("psi-coalgebra-morphism", "psi-counit"), dp, ue, ue.psi,
                      [LinComb.single(f) for f in keys], images)

    def degree_images(d):
        return [img for f, img in zip(keys, images) if sum(f) == d]
    laws = (("psi not injective", lambda d, imgs: rank_of(imgs) != len(imgs)),
            ("dimension mismatch", lambda d, imgs: len(imgs) != len(ue.basis_words(d))))
    return rep.tally("psi-degreewise-iso", iproduct(range(max_degree + 1), laws),
                     lambda d, law: law[1](d, degree_images(d)),
                     lambda d, law: f"{law[0]} in degree {d}")
