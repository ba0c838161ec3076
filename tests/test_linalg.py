from fractions import Fraction

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
