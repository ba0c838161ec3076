from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel import linalg
from vertexkernel.coalgebra import primitive_defect, primitive_subspace
from vertexkernel.enveloping import VacuumModule
from vertexkernel.linalg import kernel_coefficients, rank_of, row_reduce
from vertexkernel.lincomb import LinComb, combination
from vertexkernel.vla import heisenberg, virasoro


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


# -- sparse fraction-free elimination against dense Gauss-Jordan over Fractions ------


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


def dense_row_reduce(vectors):
    """row_reduce through gauss_jordan_reference on the dense vectors x keys matrix."""
    keys = sorted({k for v in vectors for k in v.keys()})
    rows = [[Fraction(v.get(k)) for k in keys] for v in vectors]
    pivots = gauss_jordan_reference(rows)
    return [LinComb(dict(zip(keys, row))) for row in rows[:len(pivots)]], [keys[c] for c in pivots]


def dense_kernel(vectors):
    """kernel_coefficients through gauss_jordan_reference on the dense keys x
    vectors matrix: free coordinate 1, x_pc = -R_r[fc]."""
    n = len(vectors)
    keys = sorted({k for v in vectors for k in v.keys()})
    rows = [[Fraction(v.get(k)) for v in vectors] for k in keys]
    pivots = gauss_jordan_reference(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][fc]
        basis.append(tuple(x))
    return basis


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


# small entries, so that dependent rows and zero columns are common
_ENTRIES = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                      max_denominator=4))
_MATRICES = st.integers(0, 5).flatmap(
    lambda ncols: st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols), max_size=6))
_KEYS = "abcd"
_VECTORS = st.lists(st.dictionaries(st.sampled_from(_KEYS), _ENTRIES).map(LinComb), max_size=6)
# the primitive-defect shape: many keys, few entries per vector
_WIDE_SPARSE = st.lists(st.dictionaries(st.integers(0, 59), _ENTRIES, max_size=3).map(LinComb),
                        max_size=30)
derandomized = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@given(_MATRICES)
def test_fraction_free_echelon_matches_gauss_jordan(rows):
    want = [[Fraction(x) for x in r] for r in rows]
    pivots = gauss_jordan_reference(want)
    got = linalg._echelon([sparse(r) for r in rows])
    assert got == (pivots, [sparse(r) for r in want[:len(pivots)]])
    assert all(type(x) is Fraction for r in got[1] for x in r.values())


def assert_matches_the_fraction_reference(vectors):
    got = (row_reduce(vectors), rank_of(vectors), kernel_coefficients(vectors))
    basis, keys = dense_row_reduce(vectors)
    assert got == ((basis, keys), len(basis), dense_kernel(vectors))
    assert all(type(x) is Fraction for v in got[0][0] for x in v.terms.values())
    assert all(type(x) is Fraction for x in chain.from_iterable(got[2]))


@given(_VECTORS)
def test_row_reduce_rank_and_kernel_match_the_fraction_reference(vectors):
    assert_matches_the_fraction_reference(vectors)


@derandomized
@given(_WIDE_SPARSE)
def test_wide_sparse_families_match_the_fraction_reference(vectors):
    assert_matches_the_fraction_reference(vectors)


@given(_VECTORS, st.permutations(_KEYS))
def test_kernel_coefficients_do_not_depend_on_key_order(vectors, relabelled):
    # word ids sort in another order than the words they stand for
    relabel = dict(zip(_KEYS, relabelled)).__getitem__
    assert kernel_coefficients([v.map_keys(relabel) for v in vectors]) == \
        kernel_coefficients(vectors)


@pytest.mark.parametrize("pres, weights, torsion_bound", [
    (virasoro(), range(10), 1),
    (heisenberg(2), range(6), 0),
], ids=["virasoro", "heisenberg-2"])
def test_primitive_subspace_matches_the_dense_kernel(pres, weights, torsion_bound):
    vm = VacuumModule(pres)
    for weight in weights:
        states = [LinComb.single(w) for w in vm.basis_words(weight, torsion_bound)]
        defects = [primitive_defect(vm, s) for s in states]
        want = [combination(states, x) for x in dense_kernel(defects)]
        assert primitive_subspace(vm, weight, torsion_bound) == want
