"""Sparse linear combinations with exact rational coefficients.

Everything in this package is a finite Fraction-weighted sum over hashable,
totally ordered basis keys (mode words, tensor pairs, exponent tuples).
LinComb stores the nonzero terms only; a zero coefficient is never kept, so
equality is plain dict equality and iteration order for printing is the key
order.
"""

from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm

__all__ = [
    "Fraction",
    "LinComb",
    "format_terms",
    "combination",
    "cleared",
    "as_rational",
    "binom",
    "falling",
    "inv_factorial",
    "sign_pow",
    "parse_rational",
]


def as_rational(c):
    """Coerce to an exact rational, keeping plain ints as ints.

    Integer coefficients dominate the straightening recursions and int
    arithmetic is an order of magnitude cheaper than Fraction's; mixing the
    two is safe because == and hash agree across numeric types."""
    if type(c) is int or type(c) is Fraction:
        return c
    return Fraction(c)


def sign_pow(e):
    """(-1)**e for any integer e, including negative exponents."""
    return -1 if e % 2 else 1


def binom(m, j):
    """Binomial coefficient binom(m, j) for integer m (any sign), j >= 0."""
    if j < 0:
        return 0
    if m >= 0:
        return comb(m, j)
    # binom(m, j) = (-1)^j binom(j - m - 1, j) for m < 0
    return (-1) ** j * comb(j - m - 1, j)


def falling(n, d):
    """Falling factorial n(n-1)...(n-d+1), the d=0 case being 1."""
    out = 1
    for i in range(d):
        out *= n - i
    return out


def inv_factorial(j):
    return Fraction(1, factorial(j))


def parse_rational(s):
    """Parse "p/q" or "p" into a Fraction; raises ValueError on junk or a zero q."""
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


class LinComb:
    """A finite sum  sum_k c_k * k  with c_k in Q \\ {0}.  add_into changes it in
    place, so it is not hashable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def single(cls, key, coeff=1):
        lc = cls.__new__(cls)
        c = as_rational(coeff)
        lc.terms = {key: c} if c else {}
        return lc

    @classmethod
    def _raw(cls, terms):
        # internal: caller guarantees no zero coefficients
        lc = cls.__new__(cls)
        lc.terms = terms
        return lc

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def keys(self):
        return self.terms.keys()

    def get(self, key):
        return self.terms.get(key, 0)

    def __eq__(self, other):
        if isinstance(other, LinComb):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __add__(self, other):
        return LinComb._raw(dict(self.terms)).add_into(other)

    def __sub__(self, other):
        return LinComb._raw(dict(self.terms)).add_into(other, -1)

    def __neg__(self):
        return LinComb._raw({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        s = as_rational(scalar)
        if not s:
            return LinComb()
        return LinComb._raw({k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def add_into(self, other, scale=1):
        """Destructive self += scale * other; returns self.  The one merge loop:
        +, - and bind go through it."""
        terms = self.terms
        if scale == 1:
            for k, c in other.terms.items():
                s = terms.get(k)
                if s is None:
                    terms[k] = c
                else:
                    s = s + c
                    if s:
                        terms[k] = s
                    else:
                        del terms[k]
        else:
            sc = as_rational(scale)
            if not sc:
                return self
            for k, c in other.terms.items():
                s = terms.get(k)
                if s is None:
                    terms[k] = c * sc
                else:
                    s = s + c * sc
                    if s:
                        terms[k] = s
                    else:
                        del terms[k]
        return self

    def map_keys(self, fn):
        """Relabel basis keys through fn (need not be injective)."""
        out = LinComb()
        for k, c in self.terms.items():
            out.add_into(LinComb.single(fn(k), c))
        return out

    def bind(self, fn):
        """Linear extension: sum_k c_k * fn(k), fn returning LinComb."""
        out = LinComb()
        for k, c in self.terms.items():
            out.add_into(fn(k), c)
        return out

    def tensor(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out[(k1, k2)] = c1 * c2
        return LinComb._raw(out)

    def sorted_items(self, order=None):
        """The terms sorted by key, or by order(key) when order is given."""
        if order is None:
            return sorted(self.terms.items())
        return sorted(self.terms.items(), key=lambda kc: order(kc[0]))

    def format(self, key_fmt, order=None):
        """Render as "c1·k1 + c2·k2 - ...", suppressing unit coefficients; terms
        come in sorted_items(order) order."""
        return format_terms(self.sorted_items(order), key_fmt)

    def __repr__(self):
        return f"LinComb({self.format(repr)})"


def format_terms(terms, key_fmt):
    """(key, coeff) pairs, in the order given, as "c1·k1 + c2·k2 - ...", unit
    coefficients suppressed; no terms is "0"."""
    parts = []
    for k, c in terms:
        body = key_fmt(k)
        mag = abs(c)
        chunk = body if mag == 1 else f"{mag}·{body}"
        if not parts:
            parts.append(chunk if c > 0 else f"-{chunk}")
        else:
            parts.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(parts) if parts else "0"


def combination(vectors, coeffs):
    """sum_i coeffs[i] * vectors[i], a fresh LinComb."""
    out = LinComb()
    for v, c in zip(vectors, coeffs):
        out.add_into(v, c)
    return out


def cleared(lc):
    """lc as (den, {key: int}) with lc = ints / den, den the lcm of the
    coefficient denominators.  An integer-only combination passes through as
    (1, lc.terms); the dict is shared and must not be mutated."""
    terms = lc.terms
    if all(map(isinstance, terms.values(), repeat(int))):
        return 1, terms
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
