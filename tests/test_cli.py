import json

import pytest

from vertexkernel import cli
from vertexkernel.cli import main


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


def test_dims_rejects_negative_bounds(vir_file, capsys):
    assert main(["dims", "--input", vir_file, "--max-weight", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag,value", [("--max-weight", "-1"), ("--mode-window", "-2"),
                                        ("--torsion-bound", "-3")])
def test_check_rejects_negative_bounds(vir_file, capsys, flag, value):
    assert main(["check", "--input", vir_file, "--suite", "skew", flag, value]) == 2
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


def test_seed_flag_accepted(vir_file, capsys):
    assert main(["check", "--input", vir_file, "--suite", "coalgebra",
                 "--seed", "7"]) == 0
    capsys.readouterr()
