from fractions import Fraction

import pytest

from vertexkernel.current import Mode, bracket, bracket_combo, check_lie_axioms, mode_normalize, mode_weight
from vertexkernel.errors import InputError
from vertexkernel.lincomb import LinComb
from vertexkernel.vla import abelian, heisenberg, virasoro


def virasoro_bracket_oracle(m, n):
    """Classical relation in mode labels: [L(m), L(n)] = (m-n) L(m+n-1)
    + delta_{m+n,2} ((m-1)^3 - (m-1))/12 * c(-1)."""
    out = LinComb()
    if m + n - 1 <= -1:
        out.add_into(LinComb.single(Mode("L", m + n - 1), m - n))
    else:
        # positive-index L modes are still honest basis symbols of the loop algebra
        out.add_into(LinComb.single(Mode("L", m + n - 1), m - n))
    if m + n == 2:
        a = m - 1
        out.add_into(LinComb.single(Mode("c", -1), Fraction(a ** 3 - a, 12)))
    return out


def heisenberg_bracket_oracle(m, n):
    out = LinComb()
    if m + n == 0:
        out.add_into(LinComb.single(Mode("c", -1), m))
    return out


def test_virasoro_bracket_matches_classical_oracle():
    vir = virasoro()
    for m in range(-5, 6):
        for n in range(-5, 6):
            assert bracket(vir, Mode("L", m), Mode("L", n)) == virasoro_bracket_oracle(m, n), (m, n)


def test_virasoro_bracket_frozen_example():
    vir = virasoro()
    got = bracket(vir, Mode("L", 3), Mode("L", -1))
    want = LinComb({Mode("L", 1): Fraction(4), Mode("c", -1): Fraction(1, 2)})
    assert got == want


def test_heisenberg_bracket_matches_oracle():
    heis = heisenberg(1)
    for m in range(-5, 6):
        for n in range(-5, 6):
            assert bracket(heis, Mode("h", m), Mode("h", n)) == heisenberg_bracket_oracle(m, n)
    assert bracket(heis, Mode("h", 2), Mode("h", -2)) == LinComb.single(Mode("c", -1), 2)


def test_heisenberg_cross_rank_brackets_vanish():
    heis = heisenberg(2)
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert not bracket(heis, Mode("h1", m), Mode("h2", n))


def test_central_modes():
    vir = virasoro()
    for n in range(-4, 5):
        assert not bracket(vir, Mode("c", -1), Mode("L", n))
        assert not bracket(vir, Mode("L", n), Mode("c", -1))


def test_mode_normalize():
    vir = virasoro()
    L, c = vir.element("L"), vir.element("c")
    # (D L)(n) = -n L(n-1)
    for n in range(-4, 5):
        assert mode_normalize(vir, vir.apply_D(L), n) == LinComb.single(Mode("L", n - 1), -n)
    # (D^2 L)(-1) = 2 L(-3)
    assert mode_normalize(vir, vir.apply_D(L, 2), -1) == LinComb.single(Mode("L", -3), 2)
    # torsion keeps only its (-1) mode
    assert mode_normalize(vir, c, -1) == LinComb.single(Mode("c", -1))
    for n in [-3, -2, 0, 1, 2]:
        assert not mode_normalize(vir, c, n)


def test_mode_weight():
    vir = virasoro()
    assert mode_weight(vir, Mode("L", -1)) == 2
    assert mode_weight(vir, Mode("L", -3)) == 4
    assert mode_weight(vir, Mode("L", 1)) == 0
    assert mode_weight(vir, Mode("c", -1)) == 0


def test_bracket_weight_additive():
    # wt [a(m), b(n)] = wt a(m) + wt b(n)
    vir = virasoro()
    for m in range(-4, 5):
        for n in range(-4, 5):
            w = mode_weight(vir, Mode("L", m)) + mode_weight(vir, Mode("L", n))
            for md, _ in bracket(vir, Mode("L", m), Mode("L", n)).items():
                assert mode_weight(vir, md) == w


def test_bracket_combo_bilinear():
    vir = virasoro()
    x = LinComb({Mode("L", 2): Fraction(1), Mode("L", -1): Fraction(3)})
    y = LinComb({Mode("L", 0): Fraction(1, 2)})
    direct = bracket_combo(vir, x, y)
    manual = LinComb()
    manual.add_into(bracket(vir, Mode("L", 2), Mode("L", 0)), Fraction(1, 2))
    manual.add_into(bracket(vir, Mode("L", -1), Mode("L", 0)), Fraction(3, 2))
    assert direct == manual


def test_lie_axioms_all_fixtures():
    for pres in [virasoro(), heisenberg(1), heisenberg(2), abelian(2)]:
        rep = check_lie_axioms(pres, window=3)
        assert rep.passed, rep.summary()


@pytest.mark.parametrize("call", [
    lambda vir: bracket(vir, Mode("zz", 0), Mode("L", 0)),
    lambda vir: bracket(vir, Mode("c", -1), Mode("zz", 0)),
    lambda vir: mode_normalize(vir, LinComb({("zz", 0): 1}), -1),
    lambda vir: vir.gen_index("zz")],
    ids=["bracket", "bracket-torsion-short-cut", "mode-normalize", "gen-index"])
def test_unknown_generator_is_refused(call):
    with pytest.raises(InputError, match="^unknown generator 'zz'$"):
        call(virasoro())
