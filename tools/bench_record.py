#!/usr/bin/env python3
"""Write one benchmark record as JSON: the perfbench end-to-end results, the
tier-1 wall time, each acceptance test's time against its budget, and the src
line count.

    python3 tools/bench_record.py --out BENCH_<n>.json [--parent REV]

It runs ``perfbench/run.py --seed 0 --trace 0`` once per workload that
BENCHMARK.json declares, for its ``run_seconds``, then the tier-1 suite once
with ``--durations=0``.  With ``--parent REV`` it also exports commit REV with
``git archive`` and runs PAIRS pairs of that tree and this one per workload,
seeds 1 to PAIRS, alternating which side runs first, and records each side's
median and quartiles of every end-to-end metric and how many pairs the change
won (one run per side cannot show a trend), and the src line count of REV's
tree, so that the record states its own src delta.  No run of a pair reads or writes
cached bytecode, so both sides compile their sources alike.  The budgets are
the literal seconds of each ``_budget(t0, seconds, label)`` call in
tests/test_acceptance.py, read with ast.  Nothing else should run on the
machine meanwhile: every number is a wall time.  The record names the CPUs
this process may use, since the sweeps shard over them.
"""

import argparse
import ast
import glob
import io
import json
import os
import platform
import re
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


def perfbench(workload, seconds, root=ROOT, seed=SEED, env=None):
    """The result object and the run record of one perfbench run in the tree at root."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])}


def export(rev, into):
    """The tree of commit rev, written under the directory into by git archive."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return into


def spread(values):
    """The median and the quartiles of some runs' values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def pairs(workload, seconds, parent_root, metrics):
    """PAIRS alternating runs of the parent tree and this one: each side's spread of
    every end-to-end metric, the pairs the change won on it, and every run."""
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        sides = [("parent", parent_root), ("change", ROOT)]
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
    compared = None
    if args.parent:
        metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
        with tempfile.TemporaryDirectory() as tmp:
            parent_root = export(args.parent, tmp)
            compared = {"parent": args.parent, "pairs": PAIRS,
                        "src_lines": src_lines(parent_root),
                        "workloads": {w["name"]: pairs(w["name"], seconds, parent_root, metrics)
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
        "tier1": suite,
        "acceptance": acceptance,
        "src_lines": src_lines(),
    }
    if compared is not None:
        record["parent_pairs"] = compared
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = suite["exit"] == 0 and all("result" in b for b in bench.values())
    if compared is not None:
        ok = ok and all("run_s" in w for w in compared["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
