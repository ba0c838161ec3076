#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the current program.

    python3 perfbench/make_golden.py

Run it only at a commit whose output is trusted: the file is what every later
benchmark run is checked against.  It records, per check workload, the digest
of the ``--format json`` output, the instance total and each suite's check
entries; for vir-explore, a digest for every pooled request.

The vir-explore costs in inputs/vir_costs.json (the median of five cold calls
per pooled request) decide which requests each seed runs.  They are written
only when that file is missing, so regenerating the golden data never changes
the workload.  Deleting the file defines a new workload: give it a new name.
"""

import json
import os
import statistics
import sys

from workloads import (CHECK_WORKLOADS, GOLDEN_PATH, INPUTS, VIR_COSTS_PATH, call,
                       digest, import_cli, instances_of, pool_digest, report_checks,
                       vir_argv, vir_pool)

COST_REPEATS = 5


def check_golden(cli, name):
    fname, suites = CHECK_WORKLOADS[name]
    base = ["check", "--input", os.path.join(INPUTS, fname), "--format", "json"]
    c = call(cli, base + ["--suite", "all"])
    checks = report_checks(c)
    if checks is None:
        sys.exit(f"{name}: check --suite all failed: {c.error}")
    per_suite = {}
    for s in suites:
        # the validate suite is the validate command's report
        one = call(cli, ["validate", *base[1:]] if s == "validate" else base + ["--suite", s])
        per_suite[s] = report_checks(one)
        if per_suite[s] is None:
            sys.exit(f"{name}: suite {s} failed: {one.error}")
    union = sorted(json.dumps(x, sort_keys=True) for v in per_suite.values() for x in v)
    if union != sorted(json.dumps(x, sort_keys=True) for x in checks):
        sys.exit(f"{name}: the suites' checks do not add up to --suite all")
    return {"digest": digest(c.out), "instances": instances_of(checks),
            "output_bytes": len(c.out.encode("utf-8")), "suites": per_suite}


def vir_golden(cli):
    pool = vir_pool()
    digests, costs = [], []
    for req in pool:
        calls = [call(cli, vir_argv(req)) for _ in range(COST_REPEATS)]
        if any(c.code != 0 or c.out != calls[0].out for c in calls):
            sys.exit(f"vir-explore request {req} failed or is not deterministic: "
                     f"{calls[0].error}")
        digests.append(digest(calls[0].out))
        costs.append(round(1000 * statistics.median(c.seconds for c in calls), 2))
    return {"pool_digest": pool_digest(pool), "digests": digests}, costs


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main():
    os.environ.pop("VERTEXKERNEL_THREADS", None)
    cli = import_cli()
    golden = {name: check_golden(cli, name) for name in CHECK_WORKLOADS}
    golden["vir-explore"], costs = vir_golden(cli)
    write_json(GOLDEN_PATH, golden)
    if not os.path.exists(VIR_COSTS_PATH):
        write_json(VIR_COSTS_PATH, {"pool_digest": golden["vir-explore"]["pool_digest"],
                                    "cost_ms": costs})


if __name__ == "__main__":
    main()
