import json
from math import comb, factorial

import pytest

from vertexkernel.enveloping import commutator_sweep, skew_sweep
from vertexkernel.errors import InputError
from vertexkernel.lincomb import Fraction, LinComb
from vertexkernel.vla import Generator, Presentation, abelian, builtin, heisenberg, virasoro


def term(pres, coeff, gen, d=0):
    return coeff * LinComb.single((gen, d))


def test_fixture_tables():
    vir = virasoro()
    assert vir.table("L", "L")[0] == term(vir, 1, "L", 1)
    assert vir.table("L", "L")[1] == term(vir, 2, "L")
    assert vir.table("L", "L")[3] == term(vir, Fraction(1, 2), "c")
    assert 2 not in vir.table("L", "L")
    assert list(vir.table("L", "L")) == [0, 1, 3]
    assert not vir.table("L", "c")
    heis = heisenberg(2)
    assert heis.table("h1", "h1") == {1: term(heis, 1, "c")}
    assert not heis.table("h1", "h2")
    assert not abelian(3).table("h1", "h2")


def test_builtin_lookup():
    assert [g.name for g in builtin("virasoro").generators] == ["L", "c"]
    assert [g.name for g in builtin("heisenberg", 2).generators] == ["h1", "h2", "c"]
    assert [g.name for g in builtin("abelian", 1).generators] == ["h"]
    with pytest.raises(InputError):
        builtin("nope")


def test_torsion_d_killed():
    vir = virasoro()
    c = vir.element("c")
    assert not vir.apply_D(c)
    assert vir.make_element({("c", 2): 5}) == LinComb()


def test_nth_product_table_cases():
    vir = virasoro()
    L = vir.element("L")
    assert vir.nth_product(L, 0, L) == term(vir, 1, "L", 1)
    assert vir.nth_product(L, 1, L) == term(vir, 2, "L")
    assert vir.nth_product(L, 2, L) == LinComb()
    assert vir.nth_product(L, 3, L) == term(vir, Fraction(1, 2), "c")
    assert vir.nth_product(L, 7, L) == LinComb()
    with pytest.raises(InputError):
        vir.nth_product(L, -1, L)


def test_left_d_rule():
    # (D u)_n v = -n u_{n-1} v, checked for all table-relevant n
    vir = virasoro()
    L = vir.element("L")
    DL = vir.apply_D(L)
    for n in range(0, 7):
        want = LinComb() if n == 0 else -n * vir.nth_product(L, n - 1, L)
        assert vir.nth_product(DL, n, L) == want


def test_right_d_rule_plus_sign():
    # u_n (D v) = D(u_n v) + n u_{n-1} v
    vir = virasoro()
    L = vir.element("L")
    DL = vir.apply_D(L)
    for n in range(0, 7):
        want = vir.apply_D(vir.nth_product(L, n, L))
        if n:
            want.add_into(vir.nth_product(L, n - 1, L), n)
        assert vir.nth_product(L, n, DL) == want
    # L_1(D L) = 3 D L, the discriminating value between the two sign choices
    assert vir.nth_product(L, 1, DL) == term(vir, 3, "L", 1)


def test_element_weight():
    vir = virasoro()
    assert vir.element_weight(vir.element("L")) == 2
    assert vir.element_weight(vir.apply_D(vir.element("L"), 3)) == 5
    assert vir.element_weight(vir.element("c")) == 0
    assert vir.element_weight(LinComb()) is None
    with pytest.raises(InputError):
        vir.element_weight(vir.element("L") + vir.element("c"))


def test_validate_fixtures_pass():
    for pres in [virasoro(), heisenberg(1), heisenberg(2), abelian(1), abelian(3)]:
        rep = pres.validate()
        assert rep.passed, rep.summary()


def test_validate_d_rule_sign_details():
    rep = virasoro().validate()
    d = {c.check_id: c for c in rep.checks}
    assert d["d-rule-sign"].passed
    assert "minus variant fails" in d["d-rule-sign"].details
    rep = abelian(1).validate()
    d = {c.check_id: c for c in rep.checks}
    assert d["d-rule-sign"].passed
    assert "minus variant also holds" in d["d-rule-sign"].details


def perturbed_virasoro(n, key, coeff):
    base = {
        ("L", "L", 0): {("L", 1): Fraction(1)},
        ("L", "L", 1): {("L", 0): Fraction(2)},
        ("L", "L", 3): {("c", 0): Fraction(1, 2)},
    }
    base[("L", "L", n)] = {key: coeff}
    return Presentation([Generator("L", 2), Generator("c", 0, torsion=True)], base)


def test_d_rule_sign_failure_says_the_plus_rule_is_inconsistent():
    # (L)_0(L) doubled: the skew-symmetry route no longer agrees with the plus rule
    d = {c.check_id: c for c in perturbed_virasoro(0, ("L", 1), 2).validate().checks}
    assert not d["d-rule-sign"].passed
    assert d["d-rule-sign"].witness == "(L)_1(D L)"
    assert d["d-rule-sign"].details.startswith("plus rule inconsistent; ")


@pytest.mark.parametrize("pres, want", [
    (virasoro, {"check": "d-rule-sign", "passed": True,
                "details": "plus rule consistent; minus variant fails"}),
    (lambda: abelian(1), {"check": "d-rule-sign", "passed": True,
                          "details": "plus rule consistent; minus variant also holds"
                                     " (degenerate table)"}),
    (lambda: perturbed_virasoro(0, ("L", 1), 2),
     {"check": "d-rule-sign", "passed": False, "witness": "(L)_1(D L)",
      "details": "plus rule inconsistent; minus variant fails"}),
], ids=["virasoro", "abelian", "perturbed-virasoro"])
def test_d_rule_sign_report(pres, want):
    assert [c.to_json() for c in pres().validate().checks if c.check_id == "d-rule-sign"] == [want]


def test_validate_catches_scaling_of_pinned_coefficients():
    # the two non-central coefficients are pinned by skew-symmetry/half-Jacobi
    for coeff in [0, 2, -1, Fraction(1, 2)]:
        rep = perturbed_virasoro(0, ("L", 1), coeff).validate()
        assert not rep.passed
    for coeff in [0, 1, 3, -2, Fraction(5, 2)]:
        rep = perturbed_virasoro(1, ("L", 0), coeff).validate()
        assert not rep.passed


def test_central_rescale_is_a_valid_algebra():
    # L_3 L = e*c is the central-charge normalization: every e gives a valid
    # vertex Lie algebra (rescaling c is an isomorphism), so the validator
    # accepts it.
    for coeff in [1, 2, Fraction(-3, 7)]:
        rep = perturbed_virasoro(3, ("c", 0), coeff).validate()
        assert rep.passed, rep.summary()


@pytest.mark.parametrize("pres", [
    virasoro, lambda: heisenberg(2), lambda: perturbed_virasoro(0, ("L", 1), 2),
    lambda: perturbed_virasoro(1, ("L", 0), 3)],
    ids=["virasoro", "heisenberg-2", "perturbed-0", "perturbed-1"])
def test_validate_sweeps_are_the_vertex_lie_axioms(pres):
    """validate's sweeps over the generators are the vertex Lie axioms, each against a
    formula through nth_product alone: half-Jacobi summed over j <= m, and the skew
    side summed over j <= wt u + wt v - n."""
    pres = pres()
    elts = [pres.element(g.name) for g in pres.generators]
    span = range(0, max(pres.max_table_n, 2 * pres.max_weight - 1) + 3)
    prod, D = pres.nth_product, pres.apply_D

    def half_jacobi(u, m, v, n, w):
        out = prod(u, m, prod(v, n, w)) - prod(v, n, prod(u, m, w))
        for j in range(0, m + 1):
            out.add_into(prod(prod(u, j, v), m + n - j, w), -comb(m, j))
        return out

    def skew_side(u, n, v):
        bound = pres.state_weight(u) + pres.state_weight(v)
        out = LinComb()
        for j in range(0, max(bound - n, 0) + 1):
            out.add_into(D(prod(v, n + j, u), j), Fraction((-1) ** (n + j + 1), factorial(j)))
        return out

    jacobi = list(commutator_sweep(pres, elts, span))
    assert len(jacobi) == len(elts) ** 3 * len(span) ** 2
    assert all(defect == half_jacobi(*case) for *case, defect in jacobi)
    skew = list(skew_sweep(pres, elts, span))
    assert len(skew) == len(elts) ** 2 * len(span)
    for u, n, v, defect in skew:
        assert pres.skew_expansion(u, n, v) == skew_side(u, n, v)
        assert bool(defect) == (prod(u, n, v) != skew_side(u, n, v))
    checks = {c.check_id: c for c in pres.validate().checks}
    for check_id, cases in (("half-jacobi", jacobi), ("skew-symmetry", skew)):
        assert checks[check_id].passed == (not any(case[-1] for case in cases))
        if checks[check_id].passed:
            assert checks[check_id].details == f"{len(cases)} instances checked"


@pytest.mark.parametrize("pres", [virasoro, lambda: perturbed_virasoro(0, ("L", 1), 2)],
                         ids=["virasoro", "perturbed-0"])
def test_validate_report_is_the_same_when_sharded(shard_over, pres):
    plain = pres().validate().to_json()
    shard_over(2)
    assert pres().validate().to_json() == plain


def test_validate_catches_wrong_weight_entry():
    pres = Presentation(
        [Generator("L", 2), Generator("c", 0, torsion=True)],
        {("L", "L", 2): {("L", 0): 1}},  # weight 1 slot holding a weight 2 element
    )
    rep = pres.validate()
    assert not rep.passed
    assert any(not c.passed and c.check_id == "weight-homogeneity" for c in rep.checks)


def test_weight_homogeneity_counts_a_row_once():
    # both terms of the one row have the wrong weight: one failing instance of one
    pres = Presentation([Generator("a", 1), Generator("b", 2)],
                        {("a", "b", 0): {("a", 0): 1, ("a", 2): 1}})
    (check,) = [c for c in pres.validate().checks if c.check_id == "weight-homogeneity"]
    assert check.witness == "(a)_0(b): term D^0a has weight 1, expected 2"


def test_validate_catches_torsion_row():
    pres = Presentation(
        [Generator("h", 1), Generator("c", 0, torsion=True)],
        {("c", "h", 0): {("c", 0): 1}},
    )
    rep = pres.validate()
    bad = {c.check_id for c in rep.checks if not c.passed}
    assert "torsion-rows-zero" in bad


def test_table_returns_a_value_the_caller_owns():
    vir = virasoro()
    row = vir.table("L", "L")
    row[2] = term(vir, 1, "L")
    row[1].add_into(term(vir, 1, "c"))
    vir.table("L", "c")[0] = term(vir, 1, "L")
    assert 2 not in vir.table("L", "L")
    assert not vir.table("L", "c")
    assert vir.table("L", "L")[1] == term(vir, 2, "L")


def test_structural_errors():
    with pytest.raises(InputError):
        Presentation([Generator("a", 1), Generator("a", 2)], {})
    with pytest.raises(InputError):
        Presentation([Generator("a", -1)], {})
    with pytest.raises(InputError):
        Presentation([Generator("a", 1)], {("a", "b", 0): {("a", 0): 1}})
    with pytest.raises(InputError):
        Presentation([Generator("a", 1)], {("a", "a", -2): {("a", 0): 1}})
    with pytest.raises(InputError):
        Presentation([Generator("a", 1)], {("a", "a", 0): {("zz", 0): 1}})


def test_json_round_trip():
    for pres in [virasoro(), heisenberg(2), abelian(2)]:
        data = pres.to_json()
        back = Presentation.from_json(data)
        assert back.to_json() == data
        assert [g for g in back.generators] == [g for g in pres.generators]
        for left in pres.generators:
            for right in pres.generators:
                assert back.table(left.name, right.name) == pres.table(left.name, right.name)


def test_json_coeff_strings():
    data = virasoro().to_json()
    entry = [p for p in data["products"] if p["n"] == 3][0]
    assert entry["result"] == [{"coeff": "1/2", "d": 0, "gen": "c"}]


def test_from_json_malformed():
    with pytest.raises(InputError):
        Presentation.from_json({"generators": [{"name": "a"}]})
    with pytest.raises(InputError):
        Presentation.from_json({"generators": [{"name": "a", "weight": 1}],
                                "products": [{"left": "a", "right": "a"}]})
    with pytest.raises(InputError):
        Presentation.from_json({"generators": [{"name": "a", "weight": 1}],
                                "products": [{"left": "a", "right": "a", "n": 0,
                                              "result": [{"coeff": "x!", "gen": "a"}]}]})


HEIS_JSON = {"generators": [{"name": "h", "weight": 1}, {"name": "c", "weight": 0, "torsion": True}],
             "products": [{"left": "h", "right": "h", "n": 1,
                           "result": [{"coeff": "1", "d": 0, "gen": "c"}]}]}


def with_value(data, path, value):
    """A deep copy of JSON data with the value at path replaced."""
    data = json.loads(json.dumps(data))
    node = data
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return data


def test_from_json_reads_exact_integers_and_booleans():
    assert Presentation.from_json(HEIS_JSON).to_json() == heisenberg(1).to_json()
    # an integral float or integer string still reads as its integer
    pres = Presentation.from_json(with_value(HEIS_JSON, ("generators", 0, "weight"), 1.0))
    assert pres.to_json() == heisenberg(1).to_json()
    pres = Presentation.from_json(with_value(HEIS_JSON, ("products", 0, "n"), "1"))
    assert pres.to_json() == heisenberg(1).to_json()


@pytest.mark.parametrize("path, value, message", [
    (("generators", 0, "weight"), 1.5, "weight must be an integer, got 1.5"),
    (("generators", 0, "weight"), True, "weight must be an integer, got True"),
    (("products", 0, "n"), 1.2, "n must be an integer, got 1.2"),
    (("products", 0, "result", 0, "d"), 0.5, "d must be an integer, got 0.5"),
    (("generators", 1, "torsion"), "no", "torsion must be true or false, got 'no'"),
    (("generators", 1, "torsion"), 1, "torsion must be true or false, got 1")])
def test_from_json_refuses_coercion(path, value, message):
    with pytest.raises(InputError) as err:
        Presentation.from_json(with_value(HEIS_JSON, path, value))
    assert str(err.value) == f"malformed presentation JSON: {message}"

