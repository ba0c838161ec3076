"""Small exact linear algebra over the rationals.

Vectors are LinCombs over sortable keys; a matrix is a list of sparse rows
{column index: rational}.  Fraction-free elimination touches only the stored
entries, not rows x columns, and gives the unique reduced echelon form over Q.
"""

from math import gcd, lcm

from .lincomb import Fraction, LinComb

__all__ = ["rank_of", "row_reduce", "kernel_coefficients"]

_ZERO, _ONE = Fraction(0), Fraction(1)


def _echelon(rows):
    """The pivot columns (ascending) and the reduced rows {column: Fraction} of
    the reduced row echelon form over Q of sparse rows {column: nonzero rational}.

    Each row is scaled to integers and reduced by the pivot rows met so far,
    lowest column first, with integer row operations, its content divided out
    after each step, until its lowest column has no pivot row; the nonzero
    remainder becomes the pivot row there.  Back-substitution then runs from the
    highest pivot down, and each pivot row is divided by its pivot once.  The
    reduced echelon form is unique, so this is Gauss-Jordan's over Fractions."""
    prows = {}
    for row in rows:
        den = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        while row and (c := min(row)) in prows:
            row = _eliminate(row, prows[c], c)
        if row:
            prows[c] = row
    pivots = sorted(prows)
    for c in reversed(pivots):
        for k in sorted(k for k in prows[c] if k != c and k in prows):
            prows[c] = _eliminate(prows[c], prows[k], k)
    return pivots, [{k: Fraction(a, prows[c][c]) for k, a in prows[c].items()} for c in pivots]


def _eliminate(row, prow, c):
    """The primitive integer row p*row - f*prow, clear at column c."""
    g = gcd(prow[c], row[c])
    p, f = prow[c] // g, row[c] // g
    out = {k: p * a for k, a in row.items()}
    for k, b in prow.items():
        out[k] = out.get(k, 0) - f * b
    g = gcd(*out.values()) or 1
    return {k: a // g for k, a in out.items() if a}


def _matrix(vectors):
    """The sparse rows of kernel_coefficients: one per key, in sorted key order,
    holding the vectors' coefficients at that key by vector index."""
    rows = {}
    for i, v in enumerate(vectors):
        for k, x in v.items():
            rows.setdefault(k, {})[i] = x
    return [rows[k] for k in sorted(rows)]


def row_reduce(vectors):
    """Reduced echelon basis of the span of vectors, with its pivot keys (in
    sorted key order): basis vector i is 1 at pivot key i and 0 at the others."""
    keys = sorted({k for v in vectors for k in v.keys()})
    index = {k: c for c, k in enumerate(keys)}
    pivots, rows = _echelon([{index[k]: x for k, x in v.items()} for v in vectors])
    basis = [LinComb({keys[c]: row[c] for c in sorted(row)}) for row in rows]
    return basis, [keys[c] for c in pivots]


def rank_of(vectors):
    """Rank of a family of LinComb vectors."""
    return len(row_reduce(list(vectors))[0])


def kernel_coefficients(vectors):
    """Basis of { x : sum_i x_i * vectors[i] = 0 }, as coefficient tuples.

    Deterministic: echelon form with sorted keys, free variables in index
    order, each kernel vector normalized to have its free coordinate 1.
    """
    vectors = list(vectors)
    n = len(vectors)
    pivots, rows = _echelon(_matrix(vectors))
    basis = {fc: [_ZERO] * n for fc in sorted(set(range(n)).difference(pivots))}
    for fc, x in basis.items():
        x[fc] = _ONE
    for pc, row in zip(pivots, rows):
        for fc, a in row.items():
            if fc != pc:
                basis[fc][pc] = -a
    return [tuple(x) for x in basis.values()]
