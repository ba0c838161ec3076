import enum
import json
import os
from collections import OrderedDict
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexkernel import serialize as ser
from vertexkernel.constructions import BL, SemigroupL
from vertexkernel.current import Mode
from vertexkernel.enveloping import VacuumModule
from vertexkernel.errors import InputError
from vertexkernel.lincomb import LinComb
from vertexkernel.vla import abelian, heisenberg, virasoro


def W(*modes):
    return tuple(Mode(g, n) for g, n in modes)


def S(vm, word, coeff=1):
    """The state coeff·word of vm, built through its edge API."""
    return coeff * vm.word_state(word)


def test_mode_roundtrip():
    m = Mode("L", -3)
    assert ser.parse_mode(str(m)) == m
    assert ser.mode_to_json(m) == {"gen": "L", "n": -3}
    with pytest.raises(InputError):
        ser.parse_mode("L[3]")
    # a product row without its mode index
    with pytest.raises(InputError, match="^malformed presentation JSON: 'n'$"):
        ser.load_presentation({"generators": [{"name": "L", "weight": 2}],
                               "products": [{"left": "L", "right": "L", "result": []}]})


def test_parse_element_forms():
    pres = virasoro()
    assert ser.parse_element(pres, "L") == pres.element("L")
    assert ser.parse_element(pres, "DL") == pres.make_element({("L", 1): 1})
    assert ser.parse_element(pres, "D^2L") == pres.make_element({("L", 2): 1})
    got = ser.parse_element(pres, "2·L + 1/2·DL - c")
    want = (2 * pres.element("L") + Fraction(1, 2) * pres.make_element({("L", 1): 1})
            - pres.element("c"))
    assert got == want
    assert ser.parse_element(pres, "2*L") == 2 * pres.element("L")
    assert ser.parse_element(pres, "-L") == -pres.element("L")
    assert not ser.parse_element(pres, "0")


def test_parse_element_rejects_junk():
    pres = virasoro()
    with pytest.raises(InputError):
        ser.parse_element(pres, "Q")
    with pytest.raises(InputError):
        ser.parse_element(pres, "2·")
    with pytest.raises(InputError):
        ser.parse_element(pres, "")


def test_element_json_roundtrip():
    pres = virasoro()
    e = 2 * pres.element("L") - Fraction(1, 3) * pres.make_element({("L", 2): 1})
    assert ser.element_from_json(pres, ser.element_to_json(e.sorted_items())) == e


def test_parse_state_sorted_and_ket_variants():
    vm = VacuumModule(virasoro())
    want = S(vm, W(("L", -2), ("L", -1)))
    assert ser.parse_state(vm, "L(-2)L(-1)|0⟩") == want
    assert ser.parse_state(vm, "L(-2)L(-1)|0>") == want
    assert ser.parse_state(vm, "|0>") == vm.vacuum()
    assert not ser.parse_state(vm, "0")


def test_parse_state_applies_modes_in_order():
    # words are operator strings, so out-of-order input straightens
    vm = VacuumModule(virasoro())
    got = ser.parse_state(vm, "L(-1)L(-2)|0>")
    assert got == vm.straighten(vm.word_id(W(("L", -1), ("L", -2))))
    # positive modes act too: h(1)h(-1)|0> = [h(1), h(-1)]|0> = c(-1)|0>
    vmh = VacuumModule(heisenberg(1))
    assert ser.parse_state(vmh, "h(1)h(-1)|0>") == S(vmh, W(("c", -1)))


def test_parse_state_coefficients():
    vm = VacuumModule(virasoro())
    got = ser.parse_state(vm, "2·L(-2)|0> - 1/2·|0>")
    assert got == S(vm, W(("L", -2)), 2) + S(vm, (), Fraction(-1, 2))


def test_parse_state_rejects_junk():
    vm = VacuumModule(virasoro())
    with pytest.raises(InputError):
        ser.parse_state(vm, "L(-2)")
    with pytest.raises(InputError):
        ser.parse_state(vm, "L(-2)|0> +")


def test_state_and_tensor_json():
    vm = VacuumModule(virasoro())
    s = S(vm, W(("L", -2)), Fraction(1, 2))
    assert ser.state_to_json(vm, s.sorted_items(vm.word)) == [
        {"coeff": "1/2", "word": [{"gen": "L", "n": -2}]}]
    d = vm.delta(S(vm, W(("L", -1))))
    rows = ser.tensor_to_json(vm, d.sorted_items(vm.pair_order))
    assert {"coeff": "1", "left": [], "right": [{"gen": "L", "n": -1}]} in rows
    assert len(rows) == 2


def test_diff_state_json_shares_each_word_list():
    bl = BL(SemigroupL(1))
    state = (bl.monomial([("h", -2), ("h", -1)], [1]) - Fraction(1, 2) * bl.monomial([], [2])
             + 3 * bl.monomial([("h", -1), ("h", -2)]) + bl.monomial([], [-1]))
    rows = ser.diff_state_to_json(bl, state.sorted_items(bl.key_order))
    word = [{"gen": "h", "n": -2}, {"gen": "h", "n": -1}]
    assert rows == [{"coeff": "1", "word": [], "alpha": [-1]},
                    {"coeff": "-1/2", "word": [], "alpha": [2]},
                    {"coeff": "3", "word": word, "alpha": [0]},
                    {"coeff": "1", "word": word, "alpha": [1]}]
    assert rows[0]["word"] is rows[1]["word"] and rows[2]["word"] is rows[3]["word"]
    assert rows[2]["word"][0] is rows[3]["word"][0]
    assert ser.to_json_text(rows) == stdlib_text(rows)


# -- text round trips ------------------------------------------------------------------

SL2_HALF = os.path.join(os.path.dirname(__file__), "affine_sl2_level_half.json")
ROUND_TRIP = {"virasoro": virasoro, "heisenberg-2": lambda: heisenberg(2),
              "sl2-half": lambda: ser.load_presentation(ser.read_json_file(SL2_HALF))}
_vacuum_module = cache(lambda name: VacuumModule(ROUND_TRIP[name]()))
_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
round_trip = pytest.mark.parametrize("name", sorted(ROUND_TRIP))
derandomized = settings(derandomize=True, deadline=None, database=None)


def _names(pres):
    return st.sampled_from([g.name for g in pres.generators])


@round_trip
@derandomized
@given(data=st.data())
def test_state_text_round_trip(name, data):
    vm = _vacuum_module(name)
    modes = st.tuples(_names(vm.pres), st.integers(-4, 1))
    state = LinComb()
    for word, c in data.draw(st.lists(st.tuples(st.lists(modes, max_size=3), _COEFFS),
                                      max_size=4)):
        state.add_into(vm.straighten(vm.word_id(word)), c)
    assert ser.parse_state(vm, vm.format_state(state)) == state


@round_trip
@derandomized
@given(data=st.data())
def test_element_text_round_trip(name, data):
    pres = _vacuum_module(name).pres
    terms = data.draw(st.dictionaries(st.tuples(_names(pres), st.integers(0, 3)), _COEFFS,
                                      max_size=4))
    elt = pres.make_element(terms)
    assert ser.parse_element(pres, pres.format_element(elt)) == elt


@round_trip
@derandomized
@given(data=st.data())
def test_mode_text_round_trip(name, data):
    m = Mode(data.draw(_names(_vacuum_module(name).pres)), data.draw(st.integers(-99, 99)))
    assert ser.parse_mode(str(m)) == m


def test_alpha_forms():
    assert ser.format_alpha((3,)) == "(3)"
    assert ser.format_alpha((1, -2)) == "(1,-2)"


def test_load_presentation_builtin_and_inline():
    pres = ser.load_presentation({"builtin": "heisenberg", "rank": 2})
    assert [g.name for g in pres.generators] == ["h1", "h2", "c"]
    inline = virasoro().to_json()
    pres2 = ser.load_presentation(inline)
    assert pres2.to_json() == inline
    with pytest.raises(InputError):
        ser.load_presentation({"builtin": "nope"})
    with pytest.raises(InputError):
        ser.load_presentation([1, 2])


def test_load_construction():
    data = {
        "presentation": {"builtin": "abelian", "rank": 1},
        "semigroup": {"rank": 1, "group": True},
        "phi": [[{"coeff": "1", "d": 0, "gen": "h"}]],
    }
    pres, rank, group, targets = ser.load_construction(data)
    assert rank == 1 and group is True
    assert targets == [pres.element("h")]
    assert ser.is_construction(data)
    assert not ser.is_construction({"builtin": "abelian"})


def test_load_construction_defaults_and_errors():
    base = {"presentation": {"builtin": "abelian", "rank": 2},
            "semigroup": {"rank": 2, "group": False}}
    pres, rank, group, targets = ser.load_construction(base)
    assert (rank, group, targets) == (2, False, None)
    with pytest.raises(InputError):
        ser.load_construction({"semigroup": {"rank": 1}})
    with pytest.raises(InputError):
        ser.load_construction({"presentation": {"builtin": "abelian"}})
    with pytest.raises(InputError):
        ser.load_construction({"presentation": {"builtin": "abelian"},
                               "semigroup": {"rank": 2},
                               "phi": [[{"coeff": "1", "d": 0, "gen": "h"}]]})


@pytest.mark.parametrize("semigroup, message", [
    ({"rank": 1, "group": "false"}, "group must be true or false, got 'false'"),
    ({"rank": 1, "group": 0}, "group must be true or false, got 0"),
    ({"rank": 1.5, "group": True}, "rank must be an integer, got 1.5"),
    ({"rank": True}, "rank must be an integer, got True")])
def test_load_construction_refuses_coerced_semigroup(semigroup, message):
    with pytest.raises(InputError) as err:
        ser.load_construction({"presentation": {"builtin": "abelian"}, "semigroup": semigroup})
    assert str(err.value) == f"malformed semigroup block: {message}"


def test_json_integers_refuse_fractions_and_booleans():
    pres = abelian(1)
    assert ser.element_from_json(pres, [{"coeff": "1", "d": 2.0, "gen": "h"}]) == \
        pres.make_element({("h", 2): 1})
    with pytest.raises(InputError, match="d must be an integer, got 1.5"):
        ser.element_from_json(pres, [{"coeff": "1", "d": 1.5, "gen": "h"}])
    with pytest.raises(InputError, match="n must be an integer, got -1.5"):
        ser.load_presentation({"generators": [{"name": "h", "weight": 1}],
                               "products": [{"left": "h", "right": "h", "n": -1.5,
                                             "result": []}]})
    with pytest.raises(InputError, match="gen must be an identifier, got 7"):
        ser.element_from_json(pres, [{"coeff": "1", "d": 0, "gen": 7}])
    with pytest.raises(InputError, match="rank must be an integer, got 1.5"):
        ser.load_presentation({"builtin": "heisenberg", "rank": 1.5})


def test_read_json_file_errors(tmp_path):
    with pytest.raises(InputError):
        ser.read_json_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"builtin": "vira')
    with pytest.raises(InputError):
        ser.read_json_file(bad)


# -- the JSON renderer ---------------------------------------------------------------


def stdlib_text(value):
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)


_TEXT = st.text(st.sampled_from('"\\{}[]:,⟩⊗·/ aL\n\t\r\x00\x1f\x7f\u2028\ud800') | st.characters(),
                max_size=8)
_LEAVES = (_TEXT | st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10**40, max_value=10**40))


def _containers(kids):
    return (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(_TEXT, kids, max_size=4))


# st.shared draws one object per example, so each of these can sit at several
# positions and depths of one payload, as mode dicts and word lists do in the
# CLI's; the first is a dict of str and int values, the shape of a mode
_SHARED = (st.shared(st.dictionaries(_TEXT, _TEXT | st.integers(), max_size=3), key="leaf dict")
           | st.shared(st.recursive(_LEAVES, _containers, max_leaves=6), key="container"))
_PAYLOADS = st.recursive(_LEAVES | _SHARED, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_to_json_text_matches_the_stdlib(value):
    assert ser.to_json_text(value) == stdlib_text(value)


def test_to_json_text_on_deep_and_empty_containers():
    deep = "⟩"
    for i in range(60):
        deep = {"k{}": [deep, (), {}], "": i} if i % 2 else [deep, [], ("x", None)]
    for value in (deep, {}, [], (), [{}], {"a": []}, -0, True, -(10**50), "\\\"{"):
        assert ser.to_json_text(value) == stdlib_text(value)


def test_to_json_text_renders_a_shared_container_at_each_depth():
    mode = {"gen": "L", "n": -2}
    shared = [mode, ["x", None], 3, mode]
    for value in ({"a": shared, "b": [shared, {"c": shared}]},  # at three depths
                  [shared, shared, {"a": shared, "b": shared}],  # twice at one depth
                  {"terms": [{"left": shared, "right": shared}, {"left": shared}]},
                  [mode, [mode, {"m": mode}], (mode, mode)]):
        assert ser.to_json_text(value) == stdlib_text(value)


def test_to_json_text_keeps_no_memo_between_calls():
    shared = [1, {"k": 2}]
    value = {"a": shared, "b": [shared]}
    assert ser.to_json_text(value) == stdlib_text(value)
    shared.append("three")
    assert ser.to_json_text(value) == stdlib_text(value)
    shared[1]["k"] = [3]
    assert ser.to_json_text(value) == stdlib_text(value)
    shared.clear()
    assert ser.to_json_text(value) == stdlib_text(value)


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@pytest.mark.parametrize("value", [
    1.5, float("nan"), [2.0], {1: "a"}, {"a": 1, 2: "b"}, {(1,): 0}, {None: 0}, {True: 0},
    {1, 2}, Fraction(1, 2), b"x", {"a": [Mode("L", -2), object()]},
    OrderedDict([("b", [1]), ("a", "x")]), _Str("⟩\n"), {_Str("k"): _Str("v"), "a": 1},
    _Level.HIGH, {"n": _Level.LOW, "gen": "L"}, [Mode("L", -2), Mode("c", -1)],
    # one key set in two insertion orders under one parent, leaves and not
    {"p": {"gen": "L", "n": -2}, "q": {"n": -1, "gen": "c"}, "r": [{"n": [1], "gen": "L"}]}])
def test_to_json_text_refuses_or_renders_like_the_stdlib(value):
    try:
        text = ser.to_json_text(value)
    except TypeError:
        return
    assert text == stdlib_text(value)
