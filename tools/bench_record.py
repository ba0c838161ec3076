#!/usr/bin/env python3
"""Write one benchmark record as JSON: the perfbench end-to-end results, the
tier-1 wall time, each acceptance test's time against its budget, and the src
line count.

    python3 tools/bench_record.py --out BENCH_<n>.json

It runs ``perfbench/run.py --seed 0 --trace 0`` once per workload that
BENCHMARK.json declares, for its ``run_seconds``, then the tier-1 suite once
with ``--durations=0``.  The budgets are the literal seconds of each
``_budget(t0, seconds, label)`` call in tests/test_acceptance.py, read with
ast.  Nothing else should run on the
machine meanwhile: every number is a wall time.
"""

import argparse
import ast
import glob
import json
import os
import platform
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ACCEPTANCE = os.path.join("tests", "test_acceptance.py")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=0", "--durations-min=0"]
_DURATION_RE = re.compile(r"^\s*([\d.]+)s (call|setup|teardown)\s+(\S+)\s*$")
_COUNT_RE = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")


SEED = 0


def perfbench(workload, seconds):
    """The result object and the run record of one perfbench run."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])}


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


def src_lines():
    files = sorted(glob.glob(os.path.join(ROOT, "src", "vertexkernel", "*.py")))
    per_file = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            per_file[os.path.basename(path)] = sum(1 for _ in fh)
    return {"total": sum(per_file.values()), "files": per_file}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    bench = {w["name"]: perfbench(w["name"], seconds) for w in declared["workloads"]}
    suite, durations = tier1()
    acceptance = {}
    for name, (budget, label) in acceptance_budgets(os.path.join(ROOT, ACCEPTANCE)).items():
        took = durations.get(f"{ACCEPTANCE.replace(os.sep, '/')}::{name}")
        acceptance[name] = {"seconds": None if took is None else round(took, 2),
                            "budget_s": budget, "label": label}
    record = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "perfbench": {"seed": SEED, "seconds": seconds, "workloads": bench},
        "tier1": suite,
        "acceptance": acceptance,
        "src_lines": src_lines(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ok = suite["exit"] == 0 and all("result" in b for b in bench.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
