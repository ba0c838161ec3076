import hashlib
import json
import os
import re
from fractions import Fraction

import pytest

from vertexkernel import cli
from vertexkernel.cli import main
from vertexkernel.enveloping import VacuumModule

HEISENBERG_CENTRE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs",
                                 "heisenberg_centre.json")
HEISENBERG = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs",
                          "heisenberg.json")


@pytest.fixture
def vir_file(tmp_path):
    p = tmp_path / "vir.json"
    p.write_text(json.dumps({"builtin": "virasoro"}))
    return str(p)


@pytest.fixture
def ab_construction(tmp_path):
    p = tmp_path / "ab.json"
    p.write_text(json.dumps({
        "presentation": {"builtin": "abelian", "rank": 1},
        "semigroup": {"rank": 1, "group": True},
        "phi": [[{"coeff": "1", "d": 0, "gen": "h"}]],
    }))
    return str(p)


def test_validate_virasoro(vir_file, capsys):
    assert main(["validate", "--input", vir_file]) == 0
    out = capsys.readouterr().out
    assert "presentation: PASS" in out
    assert "skew-symmetry" in out


def test_validate_perturbed_exits_one(tmp_path, capsys):
    data = {"generators": [{"name": "L", "weight": 2},
                           {"name": "c", "weight": 0, "torsion": True}],
            "products": [
                {"left": "L", "right": "L", "n": 0,
                 "result": [{"coeff": "1", "d": 0, "gen": "L"}]},
                {"left": "L", "right": "L", "n": 1,
                 "result": [{"coeff": "3", "d": 0, "gen": "L"}]},
                {"left": "L", "right": "L", "n": 3,
                 "result": [{"coeff": "1/2", "d": 0, "gen": "c"}]}]}
    p = tmp_path / "pert.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--input", str(p)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_malformed_exits_two(tmp_path, capsys):
    p = tmp_path / "trunc.json"
    p.write_text('{"builtin": "vira')
    assert main(["validate", "--input", str(p)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["validate", "--input", str(tmp_path / "no.json")]) == 2


def test_compute_bracket(vir_file, capsys):
    assert main(["compute", "bracket", "L(3)", "L(-1)", "--input", vir_file]) == 0
    assert capsys.readouterr().out.strip() == "bracket L(3) L(-1) → 4·L(1) + 1/2·c(-1)"


def test_compute_delta(vir_file, capsys):
    assert main(["compute", "delta", "L(-1)|0>", "--input", vir_file]) == 0
    out = capsys.readouterr().out
    assert "|0⟩ ⊗ L(-1)|0⟩ + L(-1)|0⟩ ⊗ |0⟩" in out


def test_compute_mode_truncates(vir_file, capsys):
    assert main(["compute", "mode", "L", "5", "L(-1)|0>", "--input", vir_file]) == 0
    assert capsys.readouterr().out.strip().endswith("→ 0")


def test_compute_product(vir_file, capsys):
    assert main(["compute", "product", "L", "1", "L", "--input", vir_file]) == 0
    assert capsys.readouterr().out.strip() == "product L 1 L → 2·L"


@pytest.mark.parametrize("field, value", [("weight", 1.5), ("torsion", "no")])
def test_coerced_json_values_exit_two(tmp_path, capsys, field, value):
    # a weight of 1.5 used to read as 1 and a torsion flag "no" as true, so this
    # file validated as PASS as if it were Heisenberg
    gens = [{"name": "h", "weight": 1}, {"name": "c", "weight": 0, "torsion": True}]
    gens[0 if field == "weight" else 1][field] = value
    p = tmp_path / "heis.json"
    p.write_text(json.dumps({"generators": gens, "products": [
        {"left": "h", "right": "h", "n": 1, "result": [{"coeff": "1", "d": 0, "gen": "c"}]}]}))
    assert main(["validate", "--input", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_compute_json_value(vir_file, capsys):
    assert main(["compute", "bracket", "L(3)", "L(-1)", "--input", vir_file,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["value"]["text"] == "4·L(1) + 1/2·c(-1)"
    assert {"coeff": "4", "mode": {"gen": "L", "n": 1}} in data["value"]["terms"]


def test_compute_errors(vir_file, capsys):
    assert main(["compute", "bracket", "Q(1)", "L(-1)", "--input", vir_file]) == 2
    assert main(["compute", "bracket", "L(1)", "--input", vir_file]) == 2
    assert main(["compute", "mode", "L", "x", "L(-1)|0>", "--input", vir_file]) == 2
    capsys.readouterr()
    assert main(["compute", "bracket", "c(-1)", "Q(1)", "--input", vir_file]) == 2
    assert capsys.readouterr().err == "error: unknown generator 'Q'\n"


@pytest.mark.parametrize("argv, term", [
    (["mode", "L", "-1", "x(-1)|0>"], "x(-1)|0>"),
    (["delta", "x(-1)|0>"], "x(-1)|0>"),
    (["delta", "L(-2)|0> + 2*L(-1)x(-1)|0>"], "L(-1)x(-1)|0>")])
def test_compute_unknown_generator_in_state_exits_two(vir_file, capsys, argv, term):
    assert main(["compute", *argv, "--input", vir_file]) == 2
    assert capsys.readouterr().err == f"error: unknown generator 'x' in state term {term!r}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "mode", "1/0*L", "-1", "|0>"],
    ["compute", "delta", "1/0*L(-2)|0>"]])
def test_compute_zero_denominator_exits_two(vir_file, capsys, argv):
    assert main([*argv, "--input", vir_file]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: zero denominator in '1/0'\n"


def test_validate_zero_denominator_exits_two(tmp_path, capsys):
    p = tmp_path / "vir.json"
    p.write_text(json.dumps({
        "generators": [{"name": "L", "weight": 2}, {"name": "c", "weight": 0, "torsion": True}],
        "products": [{"left": "L", "right": "L", "n": 3,
                      "result": [{"coeff": "1/0", "d": 0, "gen": "c"}]}]}))
    assert main(["validate", "--input", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "zero denominator" in err


@pytest.mark.parametrize("field, value", [("name", 5), ("left", "5h"), ("right", 1), ("gen", "c-1")])
def test_non_identifier_names_exit_two(tmp_path, capsys, field, value):
    # {"name": 5} used to read as a generator "5", which no state or mode text can name
    data = {"generators": [{"name": "h", "weight": 1}, {"name": "c", "weight": 0, "torsion": True}],
            "products": [{"left": "h", "right": "h", "n": 1,
                          "result": [{"coeff": "1", "d": 0, "gen": "c"}]}]}
    row = data["generators"][0] if field == "name" else data["products"][0]
    (row["result"][0] if field == "gen" else row)[field] = value
    p = tmp_path / "heis.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--input", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: malformed presentation JSON: {field} must be an "
                                 f"identifier, got {value!r}\n")


def test_d_prefixed_generator_name_exits_two(tmp_path, capsys):
    # D applied to L prints as "DL", which would read back as the generator DL
    p = tmp_path / "dl.json"
    p.write_text(json.dumps({"generators": [{"name": "L", "weight": 2},
                                            {"name": "DL", "weight": 3}]}))
    assert main(["validate", "--input", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: generator name 'DL' reads as D applied to 'L'\n"


def test_dims_virasoro(vir_file, capsys):
    assert main(["dims", "--input", vir_file, "--max-weight", "6",
                 "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert [r["dim"] for r in table] == [1, 0, 1, 1, 2, 2, 4]
    assert [r["primitive"] for r in table] == [0, 0, 1, 1, 1, 1, 1]


def test_dims_weight_zero_torsion(vir_file, capsys):
    assert main(["dims", "--input", vir_file, "--max-weight", "0",
                 "--torsion-bound", "1", "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert table == [{"weight": 0, "dim": 2, "primitive": 1}]


def test_dims_abelian(tmp_path, capsys):
    p = tmp_path / "ab.json"
    p.write_text(json.dumps({"builtin": "abelian", "rank": 1}))
    assert main(["dims", "--input", str(p), "--max-weight", "3",
                 "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert [r["dim"] for r in table] == [1, 1, 2, 3]
    assert [r["primitive"] for r in table] == [0, 1, 1, 1]


@pytest.mark.parametrize("command,flag,value", [
    pytest.param(["check", "--suite", "skew"], "--max-weight", "-1", id="--max-weight--1"),
    pytest.param(["check", "--suite", "skew"], "--mode-window", "-2", id="--mode-window--2"),
    pytest.param(["check", "--suite", "skew"], "--torsion-bound", "-3",
                 id="--torsion-bound--3"),
    pytest.param(["dims"], "--max-weight", "-1", id="dims---max-weight--1"),
    pytest.param(["dims"], "--torsion-bound", "-3", id="dims---torsion-bound--3")])
def test_check_rejects_negative_bounds(vir_file, capsys, command, flag, value):
    assert main([*command, "--input", vir_file, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be nonnegative, got {value}\n"


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_errors_exit_two(vir_file, capsys, monkeypatch, exc):
    def exhausted(args):
        raise exc()
    monkeypatch.setattr(cli, "cmd_dims", exhausted)
    assert main(["dims", "--input", vir_file]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_deep_word_is_not_an_axiom_failure(tmp_path, capsys):
    # 1100 modes nest deeper than Python's default recursion limit.  Exit 1
    # is reserved for a failed axiom, and no traceback may escape.
    p = tmp_path / "heis.json"
    p.write_text(json.dumps({"builtin": "heisenberg", "rank": 1}))
    state = "h(-1)" * 1100 + "|0⟩"
    code = main(["compute", "mode", "h", "1", state, "--input", str(p)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_mode_on_a_long_word_is_computed(capsys):
    # h(1) moves past 1200 letters in a loop: the value, not "input nests too deeply"
    state = "h(-1)" * 1200 + "|0⟩"
    assert main(["compute", "mode", "h", "1", state, "--input", HEISENBERG]) == 0
    out = capsys.readouterr().out
    assert out == f"mode h 1 {state} → 1200·{'h(-1)' * 1199}c(-1)|0⟩\n"


def test_check_json_does_not_depend_on_the_cpu_count(shard_over, capsys):
    argv = ["check", "--input", HEISENBERG_CENTRE, "--suite", "all", "--format", "json",
            "--max-weight", "1", "--mode-window", "0"]
    runs = []
    for cpus in (1, 2):
        shard_over(cpus)
        runs.append((main(argv), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and '"tensor-phi-jacobi"' in runs[0][1]


def test_deep_word_in_a_sharded_sweep_exits_two(tmp_path, capsys, monkeypatch, shard_over):
    # state_mode on a state of weight >= 2 stands in for a word too deep for the
    # evaluator; the sweep meets it in every block, in this process and in the workers
    p = tmp_path / "heis.json"
    p.write_text(json.dumps({"builtin": "heisenberg", "rank": 1}))
    state_mode = VacuumModule.state_mode

    def deep(self, u, n, v):
        if self.state_weight(u) >= 2:
            raise RecursionError("maximum recursion depth exceeded")
        return state_mode(self, u, n, v)
    monkeypatch.setattr(VacuumModule, "state_mode", deep)
    shard_over(2)
    assert main(["check", "--input", str(p), "--suite", "commutator", "--format", "json",
                 "--max-weight", "2", "--mode-window", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: input nests too deeply") and err.count("\n") == 1


def test_check_single_suites(vir_file, capsys):
    for suite in ("skew", "jacobi", "coalgebra", "morphism"):
        assert main(["check", "--input", vir_file, "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert "check:morphism: PASS" in out


def test_check_all_virasoro(vir_file, capsys):
    assert main(["check", "--input", vir_file, "--suite", "all",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    ids = [c["check"] for c in data["report"]["checks"]]
    assert ids == sorted(ids)
    assert "borcherds-commutator" in ids and "d-rule-sign" in ids


def test_check_construction_all(ab_construction, capsys):
    assert main(["check", "--input", ab_construction, "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "bl-equals-tensor-phi-modes" in out
    assert "group-like-semigroup-law" in out
    assert "morphism-delta" in out


def test_check_tensor_phi_centrality_rejection(tmp_path, capsys):
    p = tmp_path / "heis.json"
    p.write_text(json.dumps({
        "presentation": {"builtin": "heisenberg", "rank": 1},
        "semigroup": {"rank": 1, "group": True},
        "phi": [[{"coeff": "1", "d": 0, "gen": "h"}]],
    }))
    assert main(["check", "--input", str(p), "--suite", "tensor-phi"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] phi-centrality" in out
    assert "phi(e_1)_1 h = c != 0" in out


def test_check_tensor_phi_without_a_default_phi_exits_two(tmp_path, capsys):
    # no "phi": the default is the first 2 free generators, and heisenberg has one
    p = tmp_path / "heis.json"
    p.write_text(json.dumps({"presentation": {"builtin": "heisenberg"},
                             "semigroup": {"rank": 2, "group": True}}))
    assert main(["check", "--input", str(p), "--suite", "tensor-phi"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no default phi: 2 directions but 1 free generators\n"


def test_check_construction_suite_needs_construction(vir_file, capsys):
    assert main(["check", "--input", vir_file, "--suite", "bl"]) == 2
    assert "construction" in capsys.readouterr().err


def test_check_presentation_suites_on_construction(ab_construction, capsys):
    # vertex-algebra suites run against the underlying presentation
    assert main(["check", "--input", ab_construction, "--suite", "skew",
                 "--max-weight", "2"]) == 0
    capsys.readouterr()


def test_check_json_deterministic(ab_construction, capsys, monkeypatch):
    argv = ["check", "--input", ab_construction, "--suite", "morphism",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    monkeypatch.setenv("VERTEXKERNEL_THREADS", "4")
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert "timings" not in first and data["passed"] is True


def test_seed_flag_refused(vir_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", vir_file, "--suite", "coalgebra", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# -- byte-identity snapshots of check --suite all ------------------------------------------

HEIS = {"builtin": "heisenberg", "rank": 1}
ABELIAN = {"builtin": "abelian", "rank": 1}
H_PHI = [[{"coeff": "1", "d": 0, "gen": "h"}]]
VIR_DOUBLED_L0 = {
    "generators": [{"name": "L", "weight": 2}, {"name": "c", "weight": 0, "torsion": True}],
    "products": [{"left": "L", "right": "L", "n": 0, "result": [{"coeff": "2", "d": 1, "gen": "L"}]},
                 {"left": "L", "right": "L", "n": 1, "result": [{"coeff": "2", "d": 0, "gen": "L"}]},
                 {"left": "L", "right": "L", "n": 3, "result": [{"coeff": "1/2", "d": 0, "gen": "c"}]}]}

with open(os.path.join(os.path.dirname(__file__), "affine_sl2_level1.json"),
          encoding="utf-8") as fh:
    SL2_LEVEL1 = json.load(fh)

# (input, --max-weight, --mode-window, exit code, sha256 of the JSON report); affine
# sl2 stays at weight 1, as --max-weight 2 takes about 100 s
SNAPSHOTS = {
    "affine-sl2-level1": (SL2_LEVEL1, 1, 1, 0,
                          "23f0366b0d8a9e49dc818fce3eb0a1b45a265eba9c04b204c8324eb368e6c23b"),
    "heisenberg": (HEIS, 2, 1, 0,
                   "281792addc8370fb557e71fb8707e9556726aacffce5f87488b1e5b4a99f276c"),
    "heisenberg-centre": ({"presentation": HEIS, "semigroup": {"rank": 1, "group": True},
                           "phi": [[{"gen": "c", "coeff": "1"}]]}, 1, 1, 0,
                          "19341b8d4436ecd1f87e914449a33796646c91c83ef57a72a7b431704e9c1569"),
    "virasoro": ({"builtin": "virasoro"}, 2, 1, 0,
                 "1797ae869d9467b580c6c6e9400fa47821c03281f4e013afbe204144b9835ecc"),
    "abelian-z": ({"presentation": ABELIAN, "semigroup": {"rank": 1, "group": True},
                   "phi": H_PHI}, 1, 1, 0,
                  "2955bbdc60a598eace6ed1801296760cdccaed03523256e1a80db4e858767365"),
    "abelian-n": ({"presentation": ABELIAN, "semigroup": {"rank": 1, "group": False},
                   "phi": H_PHI}, 1, 1, 0,
                  "1b8b768ed3260cddab2cadad803b3f1048f8d16cb9e154ab135eff8e9e80a1a2"),
    "virasoro-doubled-l0": (VIR_DOUBLED_L0, 2, 1, 1,
                            "20155105358a90fa37192b28033e0434d26aff8e69602e7ea3354071d1c70e57"),
    "heisenberg-phi-h": ({"presentation": HEIS, "semigroup": {"rank": 1, "group": True},
                          "phi": H_PHI}, 1, 1, 1,
                         "2f89c3a7d9a3fb84e312ad190308fe62185fd3dd265cb18c0f2eb36be5b7b292"),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_check_all_json_snapshot(tmp_path, capsys, name):
    data, mw, win, code, digest = SNAPSHOTS[name]
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(data))
    assert main(["check", "--input", str(p), "--suite", "all", "--format", "json",
                 "--max-weight", str(mw), "--mode-window", str(win)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_suites_are_the_table_rows():
    assert cli.SUITES == tuple(n for n in cli._SUITE_TABLE if n != "validate") + ("all",)
    assert set(cli.ALL_PRESENTATION + cli.ALL_CONSTRUCTION) <= set(cli._SUITE_TABLE)


# -- the CLI edge: the JSON renderer and the reused parser ---------------------------------

# (input fixture, argv) of calls whose --format json output is checked
JSON_CALLS = [
    ("vir_file", ["compute", "product", "L", "1", "L"]),
    ("vir_file", ["compute", "bracket", "L(3)", "L(-1)"]),
    ("vir_file", ["compute", "delta", "L(-2)L(-2)|0>"]),
    # repeated letters: Delta's legs repeat words, whose mode lists the renderer shares
    pytest.param("vir_file", ["compute", "delta", "L(-2)L(-2)L(-1)|0>"],
                 id="vir_file-compute-delta-repeated-letters"),
    ("vir_file", ["compute", "mode", "L", "0", "L(-3)L(-2)|0>"]),
    # unsorted words of 8 and 7 modes: hundreds of rows share word lists and mode dicts
    pytest.param("vir_file", ["compute", "delta", "L(-1)L(-3)L(-2)L(-1)L(-4)L(-2)c(-1)L(-1)|0>"],
                 id="vir_file-compute-delta-eight-unsorted-modes"),
    pytest.param("vir_file", ["compute", "mode", "L", "-1", "L(-1)L(-3)L(1)L(-2)L(-1)L(-4)L(-2)|0>"],
                 id="vir_file-compute-mode-seven-unsorted-modes"),
    ("vir_file", ["dims", "--max-weight", "5", "--torsion-bound", "1"]),
    ("vir_file", ["validate"]),
    ("vir_file", ["check", "--max-weight", "1", "--mode-window", "1"]),
    ("ab_construction", ["compute", "product", "h", "1", "h"]),
    ("ab_construction", ["compute", "bracket", "h(1)", "h(-1)"]),
    ("ab_construction", ["compute", "delta", "h(-1)h(-1)h(-2)|0>"]),
    ("ab_construction", ["compute", "mode", "h", "1", "h(-1)h(-1)|0>"]),
    ("ab_construction", ["dims", "--max-weight", "4"]),
    ("ab_construction", ["validate"]),
    ("ab_construction", ["check", "--max-weight", "1", "--mode-window", "1"]),
]


@pytest.mark.parametrize("fixture, argv", JSON_CALLS,
                         ids=lambda x: x if isinstance(x, str) else "-".join(x[:2]))
def test_json_output_is_the_stdlib_rendering(request, capsys, fixture, argv):
    path = request.getfixturevalue(fixture)
    assert main(argv + ["--input", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), ensure_ascii=False, sort_keys=True,
                             indent=2) + "\n"


def _word_text(modes):
    return "".join(f"{m['gen']}({m['n']})" for m in modes) + "|0⟩"


# compute expression -> the text of one JSON row's basis key
_KEY_TEXT = {
    "product": lambda row: row["gen"] if row["d"] == 0 else (
        f"D{row['gen']}" if row["d"] == 1 else f"D^{row['d']}{row['gen']}"),
    "bracket": lambda row: f"{row['mode']['gen']}({row['mode']['n']})",
    "delta": lambda row: f"{_word_text(row['left'])} ⊗ {_word_text(row['right'])}",
    "mode": lambda row: _word_text(row["word"]),
}


COMPUTE_CALLS = [c for c in JSON_CALLS if getattr(c, "values", c)[1][0] == "compute"]


@pytest.mark.parametrize("fixture, argv", COMPUTE_CALLS,
                         ids=lambda x: x if isinstance(x, str) else "-".join(x[:2]))
def test_compute_text_terms_follow_the_json_rows(request, capsys, fixture, argv):
    """The text of a compute value lists its terms in the order of its JSON rows:
    each " + "/" - " chunk is the next row's coefficient and key."""
    assert main(argv + ["--input", request.getfixturevalue(fixture), "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    rows = value["terms"]
    chunks = [] if value["text"] == "0" else re.split(r" ([+-]) ", value["text"])
    want = []
    for sign, chunk in zip(["+"] + chunks[1::2], chunks[::2]):
        if chunk.startswith("-"):
            sign, chunk = "-", chunk[1:]
        coeff, _, key = chunk.rpartition("·") if "·" in chunk else ("1", "", chunk)
        want.append((Fraction(sign + coeff), key))
    assert [(Fraction(r["coeff"]), _KEY_TEXT[argv[1]](r)) for r in rows] == want


def test_the_reused_parser_keeps_no_state(vir_file, capsys):
    assert cli.build_parser() is cli.build_parser()
    plain = ["check", "--suite", "skew", "--input", vir_file, "--format", "json"]
    cli.build_parser.cache_clear()
    assert main(plain) == 0
    fresh = capsys.readouterr().out
    assert main(plain + ["--max-weight", "1", "--mode-window", "1"]) == 0
    bounded = capsys.readouterr().out
    assert main(plain) == 0
    assert capsys.readouterr().out == fresh != bounded
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nope", "--max-weight", "1", "--input", vir_file])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(plain) == 0
    assert capsys.readouterr().out == fresh


PHI_C = [[{"gen": "c", "coeff": "1", "d": 0}]]
C_ONLY = {"generators": [{"name": "c", "weight": 0, "torsion": True}], "products": []}
SMALLEST_BOUNDS_INPUTS = {
    "heisenberg": HEISENBERG,
    "heisenberg-centre": HEISENBERG_CENTRE,
    "virasoro": os.path.join(os.path.dirname(HEISENBERG), "virasoro.json"),
    "affine-sl2-level1": os.path.join(os.path.dirname(__file__), "affine_sl2_level1.json"),
    "virasoro-phi-c": {"presentation": {"builtin": "virasoro"}, "semigroup": {"rank": 1},
                       "phi": PHI_C},
    "torsion-only-phi-c": {"presentation": C_ONLY, "semigroup": {"rank": 1}, "phi": PHI_C},
    "abelian": {"builtin": "abelian"},
}


@pytest.mark.parametrize("name", SMALLEST_BOUNDS_INPUTS)
def test_no_check_passes_over_nothing(tmp_path, capsys, name):
    """At --max-weight 1 --mode-window 1 every check reads some instances, but the
    table checks on a table without product rows: there they have none to read."""
    source = SMALLEST_BOUNDS_INPUTS[name]
    if isinstance(source, dict):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(source))
        source = str(path)
    assert main(["check", "--suite", "all", "--max-weight", "1", "--mode-window", "1",
                 "--format", "json", "--input", source]) == 0
    empty = {c["check"] for c in json.loads(capsys.readouterr().out)["report"]["checks"]
             if c["details"] == "0 instances checked"}
    no_rows = name in ("torsion-only-phi-c", "abelian")
    assert empty == ({"weight-homogeneity", "torsion-rows-zero"} if no_rows else set())
