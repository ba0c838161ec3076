from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vertexkernel import enveloping
from vertexkernel.enveloping import PackedSum, pack
from vertexkernel.lincomb import (
    LinComb, binom, cleared, combination, falling, inv_factorial, parse_rational, sign_pow,
)


def test_binom_matches_falling_over_factorial():
    for m in range(-8, 9):
        for j in range(0, 8):
            assert binom(m, j) == falling(m, j) * inv_factorial(j)


def test_binom_pascal_rule_any_sign():
    for m in range(-7, 8):
        for j in range(1, 7):
            assert binom(m, j) == binom(m - 1, j) + binom(m - 1, j - 1)


def test_binom_upper_negation():
    """binom(m, i) = (-1)^i binom(i-m-1, i): with k = -1-m, the iterate's
    (-1)^i binom(m, i) is binom(i+k, i)."""
    for m in range(-12, 13):
        for i in range(0, 13):
            assert binom(m, i) == sign_pow(i) * binom(i - m - 1, i)


def test_sign_pow_negative_exponents():
    for e in range(-9, 10):
        assert sign_pow(e) == (-1) ** abs(e)


def test_rational_round_trip():
    for s in ["0", "2", "-7", "1/2", "-22/7", "355/113"]:
        assert str(parse_rational(s)) == s
    assert parse_rational("4/6") == Fraction(2, 3)


def test_lincomb_basic_algebra():
    a = LinComb.single("x", 2) + LinComb.single("y", Fraction(1, 2))
    b = LinComb.single("x", -2)
    assert (a + b).get("x") == 0
    assert "x" not in (a + b).terms
    assert (a - a) == LinComb()
    assert not (a - a)
    assert 2 * a == a + a
    assert -a == a * -1
    assert a * 0 == LinComb()


def test_lincomb_combine_is_linear():
    # (a + s*b) + t*c built in either association agrees
    a = LinComb({"x": Fraction(1), "y": Fraction(3)})
    b = LinComb({"y": Fraction(-3), "z": Fraction(5)})
    c = LinComb({"x": Fraction(1, 3)})
    lhs = (a + Fraction(2) * b) + Fraction(-3) * c
    rhs = a + (Fraction(2) * b + Fraction(-3) * c)
    assert lhs == rhs


def test_add_into_matches_functional_add():
    a = LinComb({"x": Fraction(1), "y": Fraction(2)})
    b = LinComb({"y": Fraction(-2), "z": Fraction(7)})
    acc = LinComb()
    acc.add_into(a)
    acc.add_into(b, Fraction(1, 7))
    assert acc == a + Fraction(1, 7) * b


def test_tensor_bilinear():
    a = LinComb({"x": Fraction(2)})
    b = LinComb({"u": Fraction(1, 2), "v": Fraction(3)})
    t = a.tensor(b)
    assert t.get(("x", "u")) == 1
    assert t.get(("x", "v")) == 6


def test_bind_linear_extension():
    a = LinComb({"x": Fraction(2), "y": Fraction(-1)})
    img = a.bind(lambda k: LinComb.single(k.upper(), 3))
    assert img == LinComb({"X": Fraction(6), "Y": Fraction(-3)})


def test_format():
    a = LinComb({"x": Fraction(1), "y": Fraction(-1, 2)})
    assert a.format(str) == "x - 1/2·y"
    assert LinComb().format(str) == "0"


def test_get_of_a_missing_key_is_int_zero():
    assert type(LinComb.single("x", Fraction(1, 2)).get("y")) is int


def test_lincomb_is_unhashable():
    """add_into changes a LinComb in place, so it cannot be a set member or dict key."""
    with pytest.raises(TypeError):
        hash(LinComb())


# -- cleared forms and the integer accumulator of the identity sweeps -----------------


def test_cleared_forms():
    ints = LinComb({"x": 3, "y": -2})
    assert cleared(ints) == (1, ints.terms) and cleared(ints)[1] is ints.terms
    assert cleared(LinComb({"x": Fraction(4), "y": 1})) == (1, {"x": 4, "y": 1})
    den, nums = cleared(LinComb({"x": Fraction(1, 4), "y": Fraction(-5, 6), "z": 2}))
    assert (den, nums) == (12, {"x": 3, "y": -10, "z": 24})
    assert type(nums["x"]) is int
    assert cleared(LinComb()) == (1, {})


def test_packed_sum_cancels_across_denominators():
    """The exact sum of cleared forms is PackedSum's, each form packed (one int)."""
    acc, slots = PackedSum(), {}
    for c in (Fraction(1, 2), Fraction(1, 3)):
        acc.add(pack(LinComb.single("x", c), slots))
    assert acc.num and acc.den == 6 and value_of(acc, slots) == {"x": Fraction(5, 6)}
    acc.add(pack(LinComb.single("x", Fraction(5, 6)), slots), -1)
    assert not acc.num and acc.exact() and acc.den == 6
    acc.add((3, 1 << enveloping.W * slots["x"], 1), 2)  # a factor folded into den: 2 * 1/3
    assert acc.num == 4 << enveloping.W * slots["x"]


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
lincombs = st.dictionaries(st.sampled_from("xyz"), rationals, max_size=3).map(LinComb)
scaled_terms = st.lists(st.tuples(lincombs, st.integers(-3, 3)), max_size=6)


def lincomb_sum(terms):
    out = LinComb()
    for lc, scale in terms:
        out.add_into(lc, scale)
    return out


def packed_sum(terms, slots=None):
    """The PackedSum of the terms, packed over slots (a fresh numbering by default)."""
    acc, slots = PackedSum(), {} if slots is None else slots
    for lc, scale in terms:
        acc.add(pack(lc, slots), scale)
    return acc


def digits(num, n):
    """The n lowest balanced base-2^W digits of num, lowest first."""
    W, out = enveloping.W, []
    for _ in range(n):
        d = num & ((1 << W) - 1)
        if d >> (W - 1):
            d -= 1 << W
        out.append(d)
        num = (num - d) >> W
    assert num == 0
    return out


def value_of(acc, slots):
    """The value of an exact PackedSum as {key: coefficient}, its keys numbered in slots."""
    assert acc.exact()
    ds = digits(acc.num, len(slots))
    return {k: Fraction(ds[s], acc.den) for k, s in slots.items() if ds[s]}


@given(scaled_terms)
def test_packed_sum_equals_the_lincomb_sum(terms):
    """Packed and LinComb sums agree on random rational states, the denominator
    widening term by term; the bound stays far below 2^(W-1), so the verdict is exact."""
    slots = {}
    acc, total = packed_sum(terms, slots), lincomb_sum(terms)
    assert acc.exact() and bool(acc.num) == bool(total)
    assert value_of(acc, slots) == total.terms
    dens = [(cleared(lc)[0], bool(scale and lc)) for lc, scale in terms]
    assert acc.den % lcm(1, *(d for d, used in dens if used)) == 0
    assert lcm(1, *(d for d, _ in dens)) % acc.den == 0


@given(scaled_terms)
def test_packed_sum_of_a_sum_and_its_negative_is_zero(terms):
    total = lincomb_sum(terms)
    acc = packed_sum(terms + [(total, -1)])
    assert acc.exact() and not acc.num
    # the same cancellation split over the keys, one term per key
    acc = packed_sum(terms + [(LinComb.single(k, c), -1) for k, c in total.items()])
    assert acc.exact() and not acc.num


@given(st.lists(st.integers(1, 12), min_size=1, max_size=5), st.sampled_from([1, -1]))
def test_packed_sum_keeps_a_residue_of_one_over_the_common_denominator(dens, sign):
    """1/d_1 + ... + 1/d_n - (that sum - sign/D) leaves exactly sign/D, D = lcm(d_i)."""
    D = lcm(*dens)
    parts = [(LinComb.single("x", Fraction(1, d)), 1) for d in dens]
    rest = sum(Fraction(1, d) for d in dens) - Fraction(sign, D)
    acc = packed_sum(parts + [(LinComb.single("x", rest), -1)])
    assert acc.den == D and acc.num == sign
    assert bool(lincomb_sum(parts + [(LinComb.single("x", rest), -1)]))


# -- the one merge loop: add, subtract and bind against a plain-dict reference ------------

int_or_fraction = st.one_of(st.integers(-3, 3), rationals)
mixed_lincombs = st.dictionaries(st.sampled_from("wxyz"), int_or_fraction, max_size=4).map(LinComb)
images = st.dictionaries(st.sampled_from("wxyz"), mixed_lincombs)


def dict_sum(*scaled):
    """sum of scale * terms over (scale, terms) pairs, zero coefficients dropped."""
    out = {}
    for scale, terms in scaled:
        for k, c in terms.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


@given(mixed_lincombs, mixed_lincombs, images)
def test_add_sub_and_bind_match_a_dict_reference_and_leave_operands_alone(a, b, f):
    before = [dict(x.terms) for x in (a, b, *f.values())]
    assert (a + b).terms == dict_sum((1, a.terms), (1, b.terms))
    assert (a - b).terms == dict_sum((1, a.terms), (-1, b.terms))
    bound = a.bind(lambda k: f.get(k, LinComb()))
    assert bound.terms == dict_sum(*((c, f[k].terms) for k, c in a.items() if k in f))
    vectors, coeffs = list(f.values()), [a.get(k) for k in f]
    assert combination(vectors, coeffs).terms == dict_sum(
        *zip(coeffs, (v.terms for v in vectors)))

    # a bilinear map on basis pairs, extended by tensor and bind, is the double loop
    def pair_image(k1, k2):
        return f.get(k1, LinComb()).tensor(f.get(k2, LinComb()) + LinComb.single(k1))

    assert a.tensor(b).bind(lambda kk: pair_image(*kk)).terms == dict_sum(
        *((c1 * c2, pair_image(k1, k2).terms) for k1, c1 in a.items() for k2, c2 in b.items()))
    assert [x.terms for x in (a, b, *f.values())] == before
    # a merge into a fresh dict: mutating a result never reaches an operand
    for out in (a + b, a - b, a.bind(lambda k: f.get(k, LinComb())),
                combination(vectors, coeffs), a.tensor(b).bind(lambda kk: pair_image(*kk))):
        out.add_into(LinComb.single("w", 1))
    assert [x.terms for x in (a, b, *f.values())] == before
