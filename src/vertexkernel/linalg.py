"""Small exact linear algebra over the rationals.

Vectors are LinCombs over arbitrary sortable keys; matrices are built on
demand.  Elimination is fraction-free Gauss-Jordan on integer rows, which
gives the unique reduced echelon form over Q.
"""

from math import gcd, lcm

from .lincomb import Fraction, LinComb

__all__ = ["rank_of", "row_reduce", "kernel_coefficients"]


def _echelon(rows):
    """In place, the reduced row echelon form of rows (over Q); returns the list
    of pivot column indices.

    Each row is scaled to integers and eliminated with integer row operations,
    kept primitive by dividing out its content; the pivot rows are divided by
    their pivots once, at the end.  The reduced echelon form is unique, so the
    result is that of Gauss-Jordan over Fractions."""
    for i, row in enumerate(rows):
        den = lcm(*(x.denominator for x in row))
        rows[i] = [x.numerator * (den // x.denominator) for x in row]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i, c in enumerate(pivots):
        p = rows[i][c]
        rows[i] = [Fraction(a, p) for a in rows[i]]
    return pivots


def _matrix(vectors):
    keys = sorted({k for v in vectors for k in v.keys()})
    rows = [[v.get(k) for v in vectors] for k in keys]
    return rows


def row_reduce(vectors):
    """Reduced echelon basis of the span of vectors, with its pivot keys (in
    sorted key order): basis vector i is 1 at pivot key i and 0 at the others."""
    keys = sorted({k for v in vectors for k in v.keys()})
    rows = [[v.get(k) for k in keys] for v in vectors]
    pivots = _echelon(rows)
    basis = [LinComb(dict(zip(keys, row))) for row in rows[:len(pivots)]]
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
    if n == 0:
        return []
    rows = _matrix(vectors)
    if not rows:
        rows = [[Fraction(0)] * n]
    pivots = _echelon(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][fc]
        basis.append(tuple(x))
    return basis
