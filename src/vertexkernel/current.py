"""The loop Lie algebra attached to a presentation.

Basis symbols are modes a(n): a generator name with an integer mode index,
subject to the normalization (D a)(n) = -n a(n-1).  Torsion generators
therefore keep only their (-1) mode, and free generators absorb D-powers
into a falling-factorial shift.  The bracket is

    [a(m), b(n)] = sum_{j >= 0} binom(m, j) (a_j b)(m + n - j),

finite because the product table is.
"""

from itertools import product as iproduct
from numbers import Rational
from typing import NamedTuple

from .errors import InputError
from .lincomb import LinComb, binom, falling
from .report import ValidationReport

__all__ = ["Mode", "mode_index", "mode_weight", "mode_normalize", "bracket", "bracket_combo",
           "check_lie_axioms"]


class Mode(NamedTuple):
    gen: str
    n: int

    def __str__(self):
        return f"{self.gen}({self.n})"


def mode_index(gen, n):
    """The index of a mode gen(n) as an int; an integral float or a bool reads as that int."""
    if isinstance(n, Rational) and n.denominator == 1 or isinstance(n, float) and n.is_integer():
        return int(n)
    raise InputError(f"{gen}({n!r}): a mode index must be an integer")


def mode_weight(pres, mode):
    return pres.weight_of(mode.gen) - mode.n - 1


def mode_normalize(pres, elt, n):
    """The mode elt(n) of an element, as a combination of generator modes.

    (D^d g)(n) = (-1)^d n(n-1)...(n-d+1) g(n-d); torsion modes survive only
    at index -1.
    """
    def of_key(key):
        g, d = key
        if pres.is_torsion(g) and n - d != -1:
            return LinComb()
        return LinComb.single(Mode(g, n - d), (-1) ** d * falling(n, d))
    return elt.bind(of_key)


def bracket(pres, a, b):
    """[a, b] for single modes, a combination of normalized modes."""
    out = LinComb()
    # both names are read before the short cut, so an unknown one is refused
    a_torsion, b_torsion = pres.is_torsion(a.gen), pres.is_torsion(b.gen)
    if a_torsion or b_torsion:
        return out
    for j in range(0, pres.weight_of(a.gen) + pres.weight_of(b.gen)):
        tab = pres.table(a.gen, b.gen, j)
        if not tab:
            continue
        c = binom(a.n, j)
        if c:
            out.add_into(mode_normalize(pres, tab, a.n + b.n - j), c)
    return out


def bracket_combo(pres, x, y):
    """Bilinear extension of the bracket to mode combinations."""
    return x.tensor(y).bind(lambda ab: bracket(pres, *ab))


def _mode_menu(pres, window):
    menu = []
    for g in pres.generators:
        if g.torsion:
            menu.append(Mode(g.name, -1))
        else:
            menu.extend(Mode(g.name, n) for n in range(-window, window + 1))
    return menu


def check_lie_axioms(pres, window=3):
    """Antisymmetry and Jacobi for all generator modes with |n| <= window."""
    rep = ValidationReport(subject="current-algebra")
    menu = _mode_menu(pres, window)
    br = {(a, b): bracket(pres, a, b) for a, b in iproduct(menu, repeat=2)}
    rep.tally("bracket-antisymmetry", br, lambda a, b: br[a, b] != (-1) * br[b, a],
              lambda a, b: f"[{a},{b}] + [{b},{a}] != 0")

    def jacobi(a, b, c):
        rhs = bracket_combo(pres, LinComb.single(a), br[b, c])
        rhs.add_into(bracket_combo(pres, LinComb.single(b), br[a, c]), -1)
        return bracket_combo(pres, br[a, b], LinComb.single(c)) != rhs

    return rep.tally("bracket-jacobi", iproduct(menu, repeat=3), jacobi,
                     lambda a, b, c: f"Jacobi fails at [[{a},{b}],{c}]")
