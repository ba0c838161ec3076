"""The pure parts of tools/bench_record.py, which writes every BENCH record: the
acceptance budgets it reads, the counts and output digests it reports as moved, the
spread of a metric over runs, the src line count and the copy of a checkout's listed
files.  Nothing here starts a process."""

import importlib.util
from pathlib import Path

import vertexkernel

ROOT = Path(__file__).parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def test_acceptance_budgets_are_the_literal_seconds():
    budgets = bench_record.acceptance_budgets(ROOT / "tests" / "test_acceptance.py")
    assert len(budgets) == 11
    assert [seconds for seconds, _ in budgets.values()] == [5, 5, 10, 60, 120, 60, 30, 10,
                                                           30, 10, 10]
    assert budgets["test_07_differential_bialgebra_equivalence"] == (
        30.0, "differential bialgebra comparison")


def test_counts_moved_lists_only_the_counts_that_differ():
    parent = {"heis-all": {"trace_counts": {"a.calls": 1, "b.calls": 2, "gone.calls": 3}},
              "vir-explore": {"trace_counts": {"a.calls": 5}}}
    change = {"heis-all": {"trace_counts": {"a.calls": 1, "b.calls": 4, "new.calls": 6}},
              "vir-explore": {"trace_counts": {"a.calls": 5}}}
    assert bench_record.counts_moved(parent, change) == {
        "heis-all": {"b.calls": [2, 4], "gone.calls": [3, None], "new.calls": [None, 6]}}
    assert bench_record.counts_moved(parent, parent) == {}


def test_counts_moved_reads_a_failed_trace_as_no_counts():
    parent = {"heisc-all": {"trace_counts": {"a.calls": 1}}}
    change = {"heisc-all": {"exit": 1, "stderr": "boom"}}
    assert bench_record.counts_moved(parent, change) == {"heisc-all": {"a.calls": [1, None]}}


def test_digests_moved_names_each_output_whose_exit_or_digest_differs():
    parent = {"check-all-heisenberg": {"exit": 0, "sha256": "aa"},
              "check-all-virasoro": {"exit": 0, "sha256": "bb"},
              "dims-virasoro": {"exit": 0, "sha256": "cc"},
              "gone": {"exit": 0, "sha256": "dd"}}
    change = {"check-all-heisenberg": {"exit": 0, "sha256": "aa"},
              "check-all-virasoro": {"exit": 1, "sha256": "bb"},
              "dims-virasoro": {"exit": 0, "sha256": "ce"},
              "new": {"exit": 0, "sha256": "ee"}}
    assert bench_record.digests_moved(parent, change) == [
        "check-all-virasoro", "dims-virasoro", "gone", "new"]
    assert bench_record.digests_moved(parent, parent) == []


def test_digests_run_on_the_perfbench_inputs():
    inputs = [args[args.index("--input") + 1] for args in bench_record.DIGESTS.values()]
    assert len(inputs) == 7 and all((ROOT / path).is_file() for path in inputs)
    assert sorted(set(inputs)) == ["perfbench/inputs/heisenberg.json",
                                   "perfbench/inputs/heisenberg_centre.json",
                                   "perfbench/inputs/virasoro.json"]


def test_spread_is_the_median_and_the_quartiles():
    assert bench_record.spread([1, 2, 3, 4, 5]) == {"median": 3, "q1": 1.5, "q3": 4.5}


def test_src_lines_totals_the_package_files():
    files = sorted(Path(vertexkernel.__file__).parent.glob("*.py"))
    want = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    counted = bench_record.src_lines(str(ROOT))
    assert counted["total"] == want == sum(counted["files"].values())
    assert sorted(counted["files"]) == [f.name for f in files]


def test_copy_files_copies_the_listed_files_and_skips_missing_names(tmp_path):
    root, into = tmp_path / "root", tmp_path / "into"
    (root / "pkg").mkdir(parents=True)
    (root / "top.txt").write_text("top\n", encoding="utf-8")
    (root / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    names = ["top.txt", "pkg/mod.py", "deleted.py"]
    assert bench_record.copy_files(names, str(into), str(root)) == str(into)
    assert sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file()) == [
        "pkg/mod.py", "top.txt"]
    assert (into / "pkg" / "mod.py").read_text(encoding="utf-8") == "x = 1\n"
    assert (into / "top.txt").read_text(encoding="utf-8") == "top\n"
