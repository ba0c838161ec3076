from fractions import Fraction
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from vertexkernel import linalg
from vertexkernel.linalg import kernel_coefficients, rank_of, row_reduce
from vertexkernel.lincomb import LinComb


def V(**kw):
    out = LinComb()
    for k, c in kw.items():
        out.add_into(LinComb.single(k, c))
    return out


def test_rank_basichull():
    a = V(x=1, y=2)
    b = V(y=1)
    assert rank_of([a, b]) == 2
    assert rank_of([a, b, a + b, a - b]) == 2
    assert rank_of([LinComb(), LinComb()]) == 0
    assert rank_of([]) == 0


def test_row_reduce_basis_is_reduced_at_its_pivot_keys():
    a, b, c = V(x=2, y=4, z=1), V(x=1, y=2), V(y=Fraction(1, 3), z=5)
    vectors = [a, b, a + b, c, a - 3 * c]
    basis, keys = row_reduce(vectors)
    assert len(basis) == len(keys) == rank_of(vectors) == 3
    for v, k in zip(basis, keys):
        assert [v.get(k2) for k2 in keys] == [int(k2 == k) for k2 in keys]
    # the basis spans the same space as the input
    assert rank_of(vectors + basis) == 3


def test_row_reduce_of_nothing():
    assert row_reduce([]) == ([], [])
    assert row_reduce([LinComb(), LinComb()]) == ([], [])


def test_kernel_of_dependent_family():
    a = V(x=1, y=2)
    ker = kernel_coefficients([a, 2 * a])
    assert ker == [(Fraction(-2), Fraction(1))]


def test_kernel_of_independent_family_is_empty():
    assert kernel_coefficients([V(x=1), V(y=1)]) == []


def test_kernel_spans_relations():
    a, b = V(x=1), V(y=1)
    ker = kernel_coefficients([a, b, a + b])
    assert ker == [(Fraction(-1), Fraction(-1), Fraction(1))]


def test_kernel_zero_vectors():
    # every coordinate hitting a zero vector is free
    ker = kernel_coefficients([LinComb(), V(x=1), LinComb()])
    assert ker == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_kernel_fractional_pivots():
    a = V(x=Fraction(1, 2))
    b = V(x=Fraction(1, 3))
    ker = kernel_coefficients([a, b])
    assert len(ker) == 1
    x = ker[0]
    assert x[0] * Fraction(1, 2) + x[1] * Fraction(1, 3) == 0


# -- fraction-free elimination against Gauss-Jordan over Fractions -------------------


def gauss_jordan_reference(rows):
    """Dense Gauss-Jordan over Fractions, pivot row normalized at each step: in
    place reduced row echelon form, returning the pivot column indices."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


# small entries, so that dependent rows and zero columns are common
_ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                      max_denominator=4))
_MATRICES = st.integers(0, 5).flatmap(
    lambda ncols: st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols), max_size=6))
_KEYS = "abcd"
_VECTORS = st.lists(st.dictionaries(st.sampled_from(_KEYS), _ENTRIES).map(LinComb), max_size=6)


@given(_MATRICES)
def test_fraction_free_echelon_matches_gauss_jordan(rows):
    got = [list(r) for r in rows]
    want = [[Fraction(x) for x in r] for r in rows]
    assert linalg._echelon(got) == gauss_jordan_reference(want)
    assert got == want


@given(_VECTORS)
def test_row_reduce_rank_and_kernel_match_the_fraction_reference(vectors):
    got = (row_reduce(vectors), rank_of(vectors), kernel_coefficients(vectors))
    with mock.patch.object(linalg, "_echelon", gauss_jordan_reference):
        want = (row_reduce(vectors), rank_of(vectors), kernel_coefficients(vectors))
    assert got == want


@given(_VECTORS, st.permutations(_KEYS))
def test_kernel_coefficients_do_not_depend_on_key_order(vectors, relabelled):
    # word ids sort in another order than the words they stand for
    relabel = dict(zip(_KEYS, relabelled)).__getitem__
    assert kernel_coefficients([v.map_keys(relabel) for v in vectors]) == \
        kernel_coefficients(vectors)
