#!/usr/bin/env python3
"""Write one benchmark record as JSON: the perfbench end-to-end results, the
exact work counts of one traced pass, the tier-1 wall time, each acceptance
test's time against its budget, and the src line count.

    python3 tools/bench_record.py --out BENCH_<n>.json [--parent REV]

It runs ``perfbench/run.py --seed 0 --trace 0`` once per workload that
BENCHMARK.json declares, for its ``run_seconds``, and ``--seed 0 --trace 1``
once per workload, pinned to one CPU, recording under ``trace`` every per-layer
metric counted in calls, entries or bytes, which no timing noise moves, with
the run's ``trace_missing`` and ``trace_output_identical``; then the tier-1
suite once with ``--durations=0``.  With ``--parent REV`` it also exports
commit REV with ``git archive``, copies this checkout's tracked and untracked,
unignored files (uncommitted edits included), and runs PAIRS pairs of the two
copies per workload, seeds 1 to PAIRS, alternating which side runs first (both
from a temporary directory, so that only their code differs), and records
each side's median and quartiles of every end-to-end metric and how many pairs
the change won (one run per side cannot show a trend), REV's traced pass, and
the src line count of REV's tree, so that the record states its own src delta;
``counts_moved`` lists each count that differs, as [REV's, this tree's].  Under
``output_digests`` it records the exit code and the sha256 of stdout of each
DIGESTS command, run with the tree's ``src`` on PYTHONPATH; with ``--parent``
also REV's, and ``digests_moved`` names each command on which the two differ.  A
traced pass that does not read ``correct`` makes the exit code 1.  No run of a
pair reads or writes cached bytecode, so both sides compile their sources
alike.  The budgets are the literal seconds of each ``_budget(t0, seconds,
label)`` call in tests/test_acceptance.py, read with ast.  Nothing else should
run on the machine meanwhile: every number but the counts is a wall time.  The
record names the CPUs this process may use, since the sweeps shard over them.
"""

import argparse
import ast
import glob
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ACCEPTANCE = os.path.join("tests", "test_acceptance.py")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=0"]
_DURATION_RE = re.compile(r"^\s*([\d.]+)s (call|setup|teardown)\s+(\S+)\s*$")
_COUNT_RE = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")


SEED = 0
PAIRS = 10
# name -> the vertexkernel arguments of each output whose digest a record keeps
DIGESTS = {
    **{f"check-all-{name}": ["check", "--suite", "all", "--format", "json",
                             "--input", f"perfbench/inputs/{name}.json"]
       for name in ("heisenberg", "heisenberg_centre", "virasoro")},
    "dims-virasoro": ["dims", "--max-weight", "11", "--torsion-bound", "1", "--format", "json",
                      "--input", "perfbench/inputs/virasoro.json"],
    **{f"validate-{name}": ["validate", "--format", "json",
                            "--input", f"perfbench/inputs/{name}.json"]
       for name in ("heisenberg", "virasoro")},
    "compute-bracket-virasoro": ["compute", "bracket", "L(3)", "L(-1)", "--format", "json",
                                 "--input", "perfbench/inputs/virasoro.json"],
}


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def perfbench(workload, seconds, root=ROOT, seed=SEED, env=None, trace=0):
    """The result object and the run record of one perfbench run in the tree at root.
    A traced run is pinned to one CPU (the child alone), as its counts are per pass."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, env=env, capture_output=True, text=True, check=False,
                          preexec_fn=_one_cpu if trace else None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])}


def trace_counts(workload, root=ROOT):
    """The count and byte metrics of one traced seed-0 pass in the tree at root."""
    run = perfbench(workload, 0, root, trace=1)
    if "result" not in run:
        return run
    result, record = run["result"], run["record"]["run"]
    return {"correct": result["correct"],
            "trace_counts": {name: m["value"] for name, m in result["metrics"].items()
                             if m["unit"] in ("count", "B")},
            "trace_missing": record["trace_missing"],
            "trace_output_identical": record["trace_output_identical"]}


def counts_moved(parent, change):
    """{workload: {metric: [parent's, change's]}} for every count the two traces differ on."""
    out = {}
    for workload, p in parent.items():
        pc, cc = p.get("trace_counts", {}), change[workload].get("trace_counts", {})
        moved = {m: [pc.get(m), cc.get(m)] for m in sorted(pc.keys() | cc.keys())
                 if pc.get(m) != cc.get(m)}
        if moved:
            out[workload] = moved
    return out


def output_digests(root=ROOT):
    """{name: {"exit", "sha256"}}: the exit code and the sha256 of stdout of each DIGESTS
    command, run in the tree at root with its src first on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")) if p))
    out = {}
    for name, args in DIGESTS.items():
        proc = subprocess.run([sys.executable, "-m", "vertexkernel.cli", *args], cwd=root,
                              env=env, capture_output=True, check=False)
        out[name] = {"exit": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return out


def digests_moved(parent, change):
    """The names, sorted, whose exit code or digest differ between two output_digests."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def export(rev, into):
    """The tree of commit rev, written under the directory into by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return into


def copy_files(names, into, root=ROOT):
    """The files among names (paths relative to root) copied under the directory into,
    each name that is not a file skipped."""
    for name in names:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            os.makedirs(os.path.join(into, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(path, os.path.join(into, name))
    return into


def export_checkout(into):
    """This checkout as it stands, untracked files in and ignored ones out, under into."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, capture_output=True,
                           check=True).stdout.decode().split("\0")
    return copy_files([n for n in names if n], into)


def spread(values):
    """The median and the quartiles of some runs' values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def pairs(workload, seconds, parent_root, change_root, metrics):
    """PAIRS alternating runs of the parent's tree and the change's, each a copy: each
    side's spread of every end-to-end metric, the pairs the change won on it, and every
    run."""
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        sides = [("parent", parent_root), ("change", change_root)]
        for side, root in sides if i % 2 == 0 else sides[::-1]:
            with tempfile.TemporaryDirectory() as pycache:
                env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
                runs[side].append(perfbench(workload, seconds, root, i + 1, env))
    out = {"runs": runs}
    if not all("result" in r for side_runs in runs.values() for r in side_runs):
        return out
    for name, better in metrics:
        values = {side: [r["result"]["metrics"][name]["value"] for r in side_runs]
                  for side, side_runs in runs.items()}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {side: spread(v) for side, v in values.items()}
        out[name]["change_wins"] = wins
    return out


def tier1():
    """Wall time, outcome counts and per-test durations of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH", "")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    durations = {}
    for line in proc.stdout.splitlines():
        m = _DURATION_RE.match(line)
        if m:
            durations[m.group(3)] = durations.get(m.group(3), 0.0) + float(m.group(1))
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind.rstrip("s") if kind.startswith("error") else kind: int(n)
              for n, kind in _COUNT_RE.findall(summary)}
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "summary": summary,
            "counts": counts}, durations


def acceptance_budgets(path):
    """test name -> (budget in seconds, label) from its _budget(...) call."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = {}
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_budget"):
                out[fn.name] = (ast.literal_eval(node.args[1]), ast.literal_eval(node.args[2]))
    return out


def src_lines(root=ROOT):
    files = sorted(glob.glob(os.path.join(root, "src", "vertexkernel", "*.py")))
    per_file = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            per_file[os.path.basename(path)] = sum(1 for _ in fh)
    return {"total": sum(per_file.values()), "files": per_file}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--parent", metavar="REV",
                   help="also run PAIRS alternating pairs against commit REV's tree")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    bench = {w["name"]: perfbench(w["name"], seconds) for w in declared["workloads"]}
    traces = {w["name"]: trace_counts(w["name"]) for w in declared["workloads"]}
    compared = None
    if args.parent:
        metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as copy:
            parent_root, change_root = export(args.parent, tmp), export_checkout(copy)
            compared = {"parent": args.parent, "pairs": PAIRS,
                        "src_lines": src_lines(parent_root),
                        "output_digests": output_digests(parent_root),
                        "trace": {w["name"]: trace_counts(w["name"], parent_root)
                                  for w in declared["workloads"]},
                        "workloads": {w["name"]: pairs(w["name"], seconds, parent_root,
                                                       change_root, metrics)
                                      for w in declared["workloads"]}}
    suite, durations = tier1()
    acceptance = {}
    for name, (budget, label) in acceptance_budgets(os.path.join(ROOT, ACCEPTANCE)).items():
        took = durations.get(f"{ACCEPTANCE.replace(os.sep, '/')}::{name}")
        acceptance[name] = {"seconds": None if took is None else round(took, 2),
                            "budget_s": budget, "label": label}
    record = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))},
        "perfbench": {"seed": SEED, "seconds": seconds, "workloads": bench},
        "trace": traces,
        "tier1": suite,
        "acceptance": acceptance,
        "src_lines": src_lines(),
        "output_digests": output_digests(),
    }
    if compared is not None:
        record["parent_pairs"] = compared
        record["counts_moved"] = counts_moved(compared["trace"], traces)
        record["digests_moved"] = digests_moved(compared["output_digests"],
                                                record["output_digests"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = suite["exit"] == 0 and all("result" in b for b in bench.values())
    ok = ok and all(t.get("correct") is True for t in traces.values())
    if compared is not None:
        ok = ok and all("run_s" in w for w in compared["workloads"].values())
        ok = ok and all(t.get("correct") is True for t in compared["trace"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
