#!/usr/bin/env python3
"""The vertexkernel benchmark.

    python3 perfbench/run.py --workload heis-all --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and benchmarks the vertexkernel sources in
its src/ directory.  With ``--trace 0`` it sets up, then repeats passes of
the workload until ``--seconds`` is spent, and reports the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics.  Outputs are checked against golden.json
either way.  The last line of stdout is the result object; the line before
it records the run's environment.  See perfbench/README.md.
"""

import argparse
import bisect
import gc
import glob
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

from tracer import Tracer
from workloads import (CHECK_WORKLOADS, INPUTS, ROOT, SRC, VIR_INPUT, WORKLOADS,
                       SourceMissing, import_cli, load_golden, make_workload)

SETUP_PAIRS = 9
END_TO_END = ("setup_s", "run_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms",
              "latency_tail_ms")
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
PROBE_INTERVAL_S = 0.05
# Duration of one reference loop at nominal speed (about the typical reading
# on a 2-core x86-64 sandbox); measured times are scaled to this speed.
REF_NOMINAL_S = 0.0006
# A call is scaled by the mean of the reference samples taken during it, or
# by the nearest this many (about half a second) when it spans fewer.
LOCAL_SAMPLES = 10
# A run record flags a pass whose mean reference loop was this much slower
# than nominal: a slowdown the scaling may have hidden (see README).
REF_SLOW_FLAG = 1.5
# Start-up time of the reference interpreter (_REF_START) at nominal speed.
REF_START_NOMINAL_S = 0.06

# A fresh interpreter that imports vertexkernel and loads the input the way
# the CLI does, then says so: the set-up every CLI invocation pays before it
# does any work.
_PROBE = """
import argparse, sys
sys.path.insert(0, sys.argv[1])
from vertexkernel import cli
from vertexkernel.enveloping import VacuumModule
VacuumModule(cli._load(argparse.Namespace(input=sys.argv[2]))[0])
print("ready", flush=True)
"""
# A fresh interpreter that imports a fixed set of standard modules: set-up
# work of the same kind (start, unmarshal, module bodies) that no change to
# vertexkernel touches.  Set-up is timed relative to it.
_REF_START = """
import argparse, concurrent.futures, dataclasses, fractions, inspect, json, logging, tempfile
print("ready", flush=True)
"""


def _reference_loop():
    d = {}
    for i in range(3000):
        k = (i * 7919) % 503
        d[k] = d.get(k, 0) + i
    return d


class SpeedProbe:
    """The speed of this core while measured work runs.

    Shared machines drift between slow and fast phases lasting seconds to
    minutes, by up to 25% on a 2-core sandbox.  A timer signal interrupts the
    work every PROBE_INTERVAL_S and times a fixed reference loop in this
    thread, so the samples see the phase the work itself ran in.
    ``nominal`` turns the duration of a call measured under the probe into
    its duration at nominal speed, without the samples that interrupted it,
    using the samples taken during or near the call: the phases last seconds.

    The scaling cannot see a change that slows every bytecode, since it slows
    the reference loop as much as the work.  A profile or trace hook is the
    likely case; it is switched off while the loop runs, so such hooks show.
    """

    def __init__(self):
        self.times = []         # when each sample started
        self.samples = []       # how long its reference loop took

    def _sample(self, *_):
        # a profile or trace hook the program installs must not slow the
        # reference down with it, or its cost would be scaled away
        profile, trace = sys.getprofile(), sys.gettrace()
        sys.setprofile(None)
        sys.settrace(None)
        t0 = time.perf_counter()
        _reference_loop()
        self.times.append(t0)
        self.samples.append(time.perf_counter() - t0)
        sys.settrace(trace)
        sys.setprofile(profile)

    def __enter__(self):
        self.times, self.samples = [], []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def nominal(self, start, seconds):
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, start + seconds)
        work = seconds - sum(self.samples[lo:hi])
        if hi - lo < LOCAL_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - LOCAL_SAMPLES // 2, len(self.samples) - LOCAL_SAMPLES))
            hi = lo + LOCAL_SAMPLES
        return work * REF_NOMINAL_S / statistics.fmean(self.samples[lo:hi])


def input_path(workload):
    fname = CHECK_WORKLOADS[workload][0] if workload in CHECK_WORKLOADS else VIR_INPUT
    return os.path.join(INPUTS, fname)


def time_to_ready(*argv):
    """Seconds from starting ``python -c argv...`` until it prints "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", *argv], stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return seconds


def setup_time(workload):
    """Set-up seconds at nominal speed, and the median raw wall time.

    Process start-up drifts with the machine's phase by 30% and more between
    runs.  Each set-up probe is therefore paired with a reference interpreter
    started right before or after it, and the probe's time is taken relative
    to the reference's: the median ratio, times REF_START_NOMINAL_S."""
    ratios, walls = [], []
    for k in range(SETUP_PAIRS):
        ref = time_to_ready(_REF_START) if k % 2 else None
        wall = time_to_ready(_PROBE, SRC, input_path(workload))
        if ref is None:
            ref = time_to_ready(_REF_START)
        ratios.append(wall / ref)
        walls.append(wall)
    return statistics.median(ratios) * REF_START_NOMINAL_S, statistics.median(walls)


def tail_latency(samples):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    fits = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    if not fits:
        return 100, s[-1]
    p = fits[-1]
    return p, s[math.ceil(p / 100 * n) - 1]


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(workload, name, seconds):
    setup_s, wall_setup_s = setup_time(name)
    passes, nominal = [], []    # nominal: per pass, each call's nominal-speed seconds
    ref_ratios = []             # per pass: mean reference loop over REF_NOMINAL_S
    t0 = time.perf_counter()
    while True:
        gc.collect()
        with SpeedProbe() as probe:
            res = workload.run_pass()
        passes.append(res)
        nominal.append([probe.nominal(s, t) for s, t in zip(res.starts, res.latencies)])
        ref_ratios.append(statistics.fmean(probe.samples) / REF_NOMINAL_S)
        spent = time.perf_counter() - t0
        # start another pass only if half of one fits in the time left
        if spent + statistics.median(p.seconds for p in passes) / 2 > seconds:
            break
    run_s = statistics.median(sum(calls) for calls in nominal)
    # one latency per call of the pass: its median over the passes
    lat = [statistics.median(col) for col in zip(*nominal)]
    pct, tail = tail_latency(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (statistics.median(p.items for p in passes) / run_s, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
    }
    info = {"passes": len(passes), "latency_samples": len(lat), "latency_tail_pct": pct,
            "measured_s": round(spent, 3), "wall_setup_s": wall_setup_s,
            "wall_run_s": statistics.median(p.seconds for p in passes),
            "ref_ratio": ref_ratios, "ref_slow": max(ref_ratios) > REF_SLOW_FLAG}
    return metrics, passes, info


def traced(workload):
    gc.collect()
    plain = workload.run_pass()
    tracer = Tracer()
    gc.collect()
    with tracer:
        traced_pass = workload.run_pass(after_call=tracer.harvest)
    metrics = tracer.metrics(overhead_s=traced_pass.seconds - plain.seconds,
                             output_bytes=plain.output_bytes)
    info = {"untraced_s": plain.seconds, "traced_s": traced_pass.seconds,
            "trace_output_identical": plain.digests == traced_pass.digests,
            "trace_missing": tracer.missing}
    return metrics, [plain, traced_pass], info


def run_record(seed, threads_env):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "vertexkernel", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sympy": version("sympy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "vertexkernel_threads_removed": True,
        "vertexkernel_threads_was": threads_env,
        "src_lines": src_lines,
        "seed": seed,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # measure the default one-thread path
    threads_env = os.environ.pop("VERTEXKERNEL_THREADS", None)
    os.chdir(ROOT)
    try:
        cli = import_cli()
        workload = make_workload(args.workload, cli, load_golden(), args.seed)
    except (SourceMissing, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, passes, info = traced(workload)
    else:
        metrics, passes, info = end_to_end(workload, args.workload, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for e in errors[:20]:
        print(f"perfbench: FAILED {e}", file=sys.stderr)

    missing = info.get("trace_missing", [])
    for name in missing:
        print(f"perfbench: trace target missing: {name}", file=sys.stderr)

    record = run_record(args.seed, threads_env)
    record.update(info, workload=args.workload, trace=args.trace,
                  failed_frac=failed / attempted, output_bytes=passes[0].output_bytes)
    print(json.dumps({"run": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
