"""Tests of the benchmark itself: request generation, the tracer's wrappers
and the golden gate.  They use the cheapest pooled requests, so they run in
seconds."""

import copy
import fractions
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import workloads  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return workloads.import_cli()


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.fixture(scope="module")
def costs():
    return workloads.load_vir_costs()


@pytest.fixture(scope="module")
def cheap(costs):
    return sorted(range(len(costs)), key=costs.__getitem__)[:4]


def test_vir_requests_depend_only_on_the_seed():
    assert workloads.vir_requests(7, 50) == workloads.vir_requests(7, 50)
    assert workloads.vir_requests(7, 50) != workloads.vir_requests(8, 50)


def test_vir_sequence_depends_only_on_the_seed(costs):
    seq = workloads.vir_sequence(5, costs)
    assert seq == workloads.vir_sequence(5, costs)
    assert seq != workloads.vir_sequence(6, costs)
    n = workloads.VIR_ALWAYS
    assert len(set(seq)) == len(seq) == n + (len(costs) - n) // 2


def test_request_pool_matches_golden(golden):
    pool = workloads.vir_pool()
    assert workloads.pool_digest(pool) == golden["vir-explore"]["pool_digest"]
    assert len(pool) == len(golden["vir-explore"]["digests"]) == len(workloads.load_vir_costs())


def _attributes():
    """Every attribute of vertexkernel's modules and classes, and of Fraction."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "vertexkernel" or name.startswith("vertexkernel."):
            for attr, value in vars(mod).items():
                out[name, attr] = value
                if isinstance(value, type):
                    for a, v in vars(value).items():
                        out[name, attr, a] = v
    for a, v in vars(fractions.Fraction).items():
        out["Fraction", a] = v
    return out


def test_tracer_restores_every_wrapped_attribute(cli, golden, cheap):
    wl = workloads.VirExplore(cli, golden["vir-explore"], seed=0, sequence=cheap)
    before = _attributes()
    tracer = Tracer()
    with tracer:
        assert _attributes() != before
        res = wl.run_pass(after_call=tracer.harvest)
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert res.failed == 0 and tracer.missing == []
    metrics = tracer.metrics(overhead_s=0.0, output_bytes=res.output_bytes)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["lincomb.add_into.calls"][0] > 0


def test_tracer_lists_an_absent_memo(cli, golden, cheap, monkeypatch):
    """A memo the program stops keeping must not read as 0 entries."""
    wl = workloads.VirExplore(cli, golden["vir-explore"], seed=0, sequence=cheap[:1])
    monkeypatch.setitem(tracer_mod.MEMOS, "enveloping.smode",
                        ("enveloping", "VacuumModule._state_mode_word", "_no_such_memo"))
    tracer = Tracer()
    with tracer:
        wl.run_pass(after_call=tracer.harvest)
    assert tracer.missing == ["VacuumModule._no_such_memo"]


def test_tracer_lists_an_absent_target(cli, monkeypatch):
    monkeypatch.setitem(tracer_mod.SPANS, "linalg",
                        tracer_mod.SPANS["linalg"] + [("linalg", "no_such_function")])
    tracer = Tracer()
    with tracer:
        pass
    assert tracer.missing == ["linalg:no_such_function"]


def test_tracer_restores_after_an_exception(cli):
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_attributes()[k] is v for k, v in before.items())


def test_altered_vir_digest_counts_as_failure(cli, golden, cheap):
    g = copy.deepcopy(golden["vir-explore"])
    assert workloads.VirExplore(cli, g, 0, cheap).run_pass().failed == 0
    g["digests"][cheap[1]] = "0" * 16
    res = workloads.VirExplore(cli, g, 0, cheap).run_pass()
    assert (res.attempted, res.failed) == (len(cheap), 1)


def _check_output(order, suites):
    """What ``check --suite all --format json`` prints for these suite results,
    the suites having run in the given order."""
    checks = sorted((c for s in order for c in suites[s]), key=lambda c: c["check"])
    return json.dumps({"command": "check", "suite": "all", "passed": True,
                       "report": {"subject": "check:all", "passed": True, "checks": checks}},
                      ensure_ascii=False, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(workloads.CHECK_WORKLOADS))
def test_check_gate_pins_a_changed_total_on_its_suite(cli, golden, name):
    wl = workloads.CheckWorkload(name, cli, golden[name])
    suites = copy.deepcopy(golden[name]["suites"])

    def failed(code, out):
        return wl.failed_suites(workloads.Call(code, out, 0.0, 0.0, ""))

    assert failed(0, _check_output(wl.suites, suites)) == []
    entry = next(c for c in suites["morphism"] if "instances checked" in c.get("details", ""))
    entry["details"] = "1 instances checked"
    assert failed(0, _check_output(wl.suites, suites)) == ["morphism"]
    assert failed(1, "") == list(wl.suites)
    assert failed(0, "not a report") == list(wl.suites)


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency(list(range(300))) == (95, 284)
    assert run.tail_latency([3, 1, 2]) == (100, 3)


def test_benchmark_json_lists_every_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
