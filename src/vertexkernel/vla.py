"""Finitely presented vertex Lie algebras.

A presentation is a free C[D]-module over "free" generators plus torsion
generators killed by D, together with a finite table of n-th products
(n >= 0) between generators.  Products of D-shifted elements reduce to the
table through the two derivation rules

    (D u)_n v = -n u_{n-1} v,
    u_n (D v) = D(u_n v) + n u_{n-1} v,

so every n-th product of elements is a finite exact computation.  The
second rule is the one forced by [D, Y(u,x)] = d/dx Y(u,x); the validator's
``d-rule-sign`` check recomputes u_n(Dv) through skew-symmetry and reports
which sign the table is consistent with.

Element keys are (generator name, d) meaning D^d applied to the generator;
torsion generators only ever carry d = 0.
"""

import re
from itertools import product as iproduct
from typing import NamedTuple

from .errors import InputError
from .lincomb import (
    Fraction,
    LinComb,
    as_rational,
    binom,
    falling,
    inv_factorial,
    parse_rational,
)
from .report import ValidationReport

__all__ = ["Generator", "Presentation", "virasoro", "heisenberg", "abelian", "builtin"]


class Generator(NamedTuple):
    name: str
    weight: int
    torsion: bool = False


class _Generators(dict):
    """A table of a presentation's generators by name: reading an unknown name
    raises InputError, so every lookup refuses it."""

    __slots__ = ()

    def __missing__(self, name):
        raise InputError(f"unknown generator {name!r}")


class Presentation:
    """A vertex Lie algebra given by generators and a finite product table."""

    def __init__(self, generators, products):
        """products: mapping (left, right, n) -> {(gen, d): coeff}."""
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate generator name in {names}")
        for nm in names:  # format_element prints D applied to g as "Dg"
            if nm.startswith("D") and nm[1:] in names:
                raise InputError(f"generator name {nm!r} reads as D applied to {nm[1:]!r}")
        for g in generators:
            if not isinstance(g.weight, int) or g.weight < 0:
                raise InputError(f"generator {g.name}: weight must be a nonnegative integer")
        self.generators = tuple(generators)
        self._by_name = _Generators((g.name, g) for g in self.generators)
        self._index = _Generators((g.name, i) for i, g in enumerate(self.generators))
        self._table = {}
        for (left, right, n), result in products.items():
            for nm in (left, right):
                if nm not in self._by_name:
                    raise InputError(f"product ({left},{right},{n}): unknown generator {nm!r}")
            if not isinstance(n, int) or n < 0:
                raise InputError(f"product ({left},{right},{n}): n must be a nonnegative integer")
            elt = self.make_element(result)
            if elt:
                self._table[(left, right, n)] = elt

    # -- elements -----------------------------------------------------------

    def make_element(self, terms):
        """Build an element from {(gen, d): coeff}, dropping D^(>=1) of torsion."""
        out = LinComb()
        for (g, d), c in dict(terms).items():
            if not isinstance(d, int) or d < 0:
                raise InputError(f"D-power {d!r} on {g}: must be a nonnegative integer")
            if self._by_name[g].torsion and d > 0:
                continue  # D kills torsion
            out.add_into(LinComb.single((g, d), as_rational(c)))
        return out

    def element(self, name):
        return self.make_element({(name, 0): 1})

    def gen_index(self, name):
        return self._index[name]

    def is_torsion(self, name):
        return self._by_name[name].torsion

    def weight_of(self, name):
        return self._by_name[name].weight

    def key_weight(self, key):
        g, d = key
        return self._by_name[g].weight + d

    def element_weight(self, elt):
        """Common weight of a homogeneous element; None for 0; raises if mixed."""
        ws = {self.key_weight(k) for k, _ in elt.items()}
        if not ws:
            return None
        if len(ws) > 1:
            raise InputError(f"element is not weight-homogeneous: weights {sorted(ws)}")
        return ws.pop()

    def apply_D(self, elt, power=1):
        def of_key(key):
            g, d = key
            if self._by_name[g].torsion:
                return LinComb.single(key) if power == 0 else LinComb()
            return LinComb.single((g, d + power))
        return elt.bind(of_key)

    # -- products -----------------------------------------------------------

    def table(self, left, right, n):
        """The table's product left_n right, as a LinComb of the caller's own."""
        return LinComb(self._table.get((left, right, n), {}))

    @property
    def max_table_n(self):
        return max((n for (_, _, n) in self._table), default=0)

    @property
    def max_weight(self):
        return max((g.weight for g in self.generators), default=0)

    def nth_product(self, u, n, v):
        """u_n v for elements u, v and n >= 0."""
        if n < 0:
            raise InputError(f"n-th product needs n >= 0, got {n}")
        out = LinComb()
        for (gu, du), cu in u.items():
            # (D^du gu)_n = (-1)^du * falling(n, du) * (gu)_{n-du}
            f = falling(n, du)
            if not f:
                continue
            m = n - du
            cu_f = cu * ((-1) ** du * f)
            for (gv, dv), cv in v.items():
                # gu_m D^dv gv = sum_i binom(dv,i) falling(m,i) D^{dv-i}(gu_{m-i} gv)
                c0 = cu_f * cv
                for i in range(0, min(dv, m) + 1):
                    coef = c0 * binom(dv, i) * falling(m, i)
                    if not coef:
                        continue
                    base = self.table(gu, gv, m - i)
                    if base:
                        out.add_into(self.apply_D(base, dv - i), coef)
        return out

    def product_bound(self, u, v):
        """Least N with u_n v = 0 for all n >= N, from weight grading."""
        wu = max((self.key_weight(k) for k, _ in u.items()), default=0)
        wv = max((self.key_weight(k) for k, _ in v.items()), default=0)
        return wu + wv

    def skew_expansion(self, u, n, v):
        """sum_j (-1)^(n+j+1) (1/j!) D^j (v_{n+j} u), the skew-symmetry right side."""
        out = LinComb()
        for j in range(0, max(self.product_bound(u, v) - n, 0) + 1):
            p = self.nth_product(v, n + j, u)
            if p:
                out.add_into(self.apply_D(p, j), (-1) ** (n + j + 1) * inv_factorial(j))
        return out

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the vertex Lie algebra axioms on the table; exact, windowed."""
        rep = ValidationReport(subject="presentation")
        nmax = max(self.max_table_n, 2 * self.max_weight - 1) + 2

        rows = [(l, r, n, res) for (l, r, n), res in sorted(self._table.items())]

        def want(l, r, n):
            return self.weight_of(l) + self.weight_of(r) - n - 1

        def off_weight(l, r, n, res):
            """The terms of a table row whose weight is not want(l, r, n)."""
            return [key for key, _ in res.items() if self.key_weight(key) != want(l, r, n)]

        def weight_witness(l, r, n, res):
            key = off_weight(l, r, n, res)[0]
            return (f"({l})_{n}({r}): term D^{key[1]}{key[0]} has weight "
                    f"{self.key_weight(key)}, expected {want(l, r, n)}")

        rep.tally("weight-homogeneity", rows, off_weight, weight_witness)
        rep.tally("torsion-rows-zero", rows,
                  lambda l, r, n, res: (self.is_torsion(l) or self.is_torsion(r)) and res,
                  lambda l, r, n, res: f"({l})_{n}({r}) nonzero but a factor is torsion")

        names = [g.name for g in self.generators]
        elt = {nm: self.element(nm) for nm in names}
        span = range(0, nmax + 1)

        def skew_witness(lu, lv, n):
            lhs = self.nth_product(elt[lu], n, elt[lv])
            rhs = self.skew_expansion(elt[lu], n, elt[lv])
            return (f"skew-symmetry at ({lu})_{n}({lv}): "
                    f"{self.format_element(lhs)} vs {self.format_element(rhs)}")

        rep.tally("skew-symmetry", iproduct(names, names, span),
                  lambda lu, lv, n: (self.nth_product(elt[lu], n, elt[lv])
                                     != self.skew_expansion(elt[lu], n, elt[lv])),
                  skew_witness)

        def half_jacobi(lu, lv, lw, m, n):
            """u_m(v_n w) - v_n(u_m w) - sum_j binom(m, j) (u_j v)_{m+n-j} w."""
            u, v, w = elt[lu], elt[lv], elt[lw]
            out = self.nth_product(u, m, self.nth_product(v, n, w))
            out.add_into(self.nth_product(v, n, self.nth_product(u, m, w)), -1)
            for j in range(0, m + 1):
                out.add_into(self.nth_product(self.nth_product(u, j, v), m + n - j, w), -binom(m, j))
            return out

        rep.tally("half-jacobi", iproduct(names, names, names, span, span), half_jacobi,
                  lambda lu, lv, lw, m, n: f"half-Jacobi at ({lu})_{m}(({lv})_{n}({lw}))")

        def breaks(sign, lu, lv, n):
            """Does the derivation rule u_n(Dv) = D(u_n v) + sign n u_{n-1} v disagree
            with u_n(Dv) through skew-symmetry, which uses only the left rule?"""
            u, v = elt[lu], elt[lv]
            rule = self.apply_D(self.nth_product(u, n, v)) + sign * n * self.nth_product(u, n - 1, v)
            return self.skew_expansion(u, n, self.apply_D(v)) != rule

        cases = list(iproduct(names, names, range(1, nmax + 1)))
        bad = next((case for case in cases if breaks(1, *case)), None)
        minus_ok = not any(breaks(-1, *case) for case in cases)
        detail = ("plus rule " + ("consistent" if bad is None else "inconsistent")
                  + ("; minus variant also holds (degenerate table)" if minus_ok else "; minus variant fails"))
        witness = "" if bad is None else "({0})_{2}(D {1})".format(*bad)
        return rep.add("d-rule-sign", bad is None, witness=witness, details=detail)

    # -- formatting / serialization ------------------------------------------

    def format_element(self, elt):
        return elt.format(format_element_key)

    def to_json(self):
        prods = [{"left": l, "right": r, "n": n, "result": element_to_json(res.sorted_items())}
                 for (l, r, n), res in sorted(self._table.items())]
        return {
            "generators": [{"name": g.name, "weight": g.weight, "torsion": g.torsion}
                           for g in self.generators],
            "products": prods,
        }

    @classmethod
    def from_json(cls, data):
        try:
            gens = [Generator(json_name(g["name"], "name"), json_int(g["weight"], "weight"),
                              json_bool(g.get("torsion", False), "torsion"))
                    for g in data["generators"]]
            products = {(json_name(p["left"], "left"), json_name(p["right"], "right"),
                         json_int(p["n"], "n")):
                        json_terms(p["result"]) for p in data.get("products", [])}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed presentation JSON: {exc}") from exc
        return cls(gens, products)


def json_int(value, name):
    """An integer field of input JSON; a bool or a non-integral number is refused."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_bool(value, name):
    """A true/false field of input JSON; anything but a JSON boolean is refused."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


NAME = r"[A-Za-z_]\w*"   # a generator name, in JSON and in the text forms alike


def json_name(value, name):
    """A generator-name field of input JSON: an identifier string, as the text forms
    of modes and states spell it."""
    if not isinstance(value, str) or not re.fullmatch(NAME, value):
        raise ValueError(f"{name} must be an identifier, got {value!r}")
    return value


def format_element_key(key):
    """A key (gen, d) of an element as text: "L", "DL", "D^2L"."""
    g, d = key
    if d == 0:
        return g
    if d == 1:
        return f"D{g}"
    return f"D^{d}{g}"


def element_to_json(terms):
    """JSON rows {"coeff", "d", "gen"} of an element's (key, coeff) terms, in the
    order given (elt.sorted_items() for key order); json_terms reads them."""
    return [{"coeff": str(c), "d": d, "gen": g} for (g, d), c in terms]


def json_terms(rows):
    """Element terms {(gen, d): coefficient} from JSON rows {"gen", "d", "coeff"}."""
    terms = {}
    for t in rows:
        k = (json_name(t["gen"], "gen"), json_int(t.get("d", 0), "d"))
        terms[k] = terms.get(k, 0) + parse_rational(t["coeff"])
    return terms


# -- builtin presentations ----------------------------------------------------

def virasoro():
    """One free generator L of weight 2 and a torsion central element c."""
    return Presentation(
        [Generator("L", 2), Generator("c", 0, torsion=True)],
        {
            ("L", "L", 0): {("L", 1): 1},
            ("L", "L", 1): {("L", 0): 2},
            ("L", "L", 3): {("c", 0): Fraction(1, 2)},
        },
    )


def _h_names(rank):
    if rank < 1:
        raise InputError(f"rank must be >= 1, got {rank}")
    return ["h"] if rank == 1 else [f"h{i + 1}" for i in range(rank)]


def heisenberg(rank=1):
    """rank free weight-1 generators pairing into a torsion central element."""
    names = _h_names(rank)
    gens = [Generator(nm, 1) for nm in names] + [Generator("c", 0, torsion=True)]
    products = {(nm, nm, 1): {("c", 0): 1} for nm in names}
    return Presentation(gens, products)


def abelian(rank=1):
    """rank free weight-1 generators, every product zero."""
    return Presentation([Generator(nm, 1) for nm in _h_names(rank)], {})


def builtin(name, rank=1):
    """Look up a builtin presentation by name ("virasoro", "heisenberg", "abelian")."""
    if name == "virasoro":
        return virasoro()
    if name == "heisenberg":
        return heisenberg(rank)
    if name == "abelian":
        return abelian(rank)
    raise InputError(f"unknown builtin presentation {name!r}")
