"""The benchmark's workloads and their correctness gate.

Every operation goes through ``vertexkernel.cli.main`` in this process, with
stdout captured, exactly as the installed ``vertexkernel`` script would run
it.  Each call builds its own model objects, so memos start cold per call.

* ``heis-all`` / ``heisc-all``: one pass is ``check --suite all --format json``
  on the Heisenberg rank-1 builtin / the Heisenberg-centre construction.  An
  operation is one suite of that call.
* ``vir-explore``: one pass is a sequence of one-shot ``compute mode``,
  ``compute delta`` and ``dims`` requests on the Virasoro builtin.  An
  operation is one request.

An operation fails on a nonzero exit, an exception escaping the CLI, output
that differs from the golden digest, or (for suites) a changed instance total.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
# Frozen per-request costs that fix which pooled requests each vir-explore
# seed runs, and in what order; make_golden.py never rewrites them.
VIR_COSTS_PATH = os.path.join(INPUTS, "vir_costs.json")

CHECK_WORKLOADS = {
    "heis-all": ("heisenberg.json",
                 ("validate", "skew", "commutator", "jacobi", "coalgebra", "morphism")),
    "heisc-all": ("heisenberg_centre.json",
                  ("validate", "tensor-phi", "bl", "morphism")),
}
VIR_INPUT = "virasoro.json"
# The request pool is the generator's output for these seeds: the default
# seed first, then a held-out one, so run seeds draw from both.
VIR_POOL_SEEDS = (0, 1)
VIR_POOL_PER_SEED = 300
# The costliest pooled requests run in every sequence: they set the tail
# latency and, printing the most, the peak memory, which thus do not depend
# on the seed.
VIR_ALWAYS = 40
# A pass visits the cost-ranked sequence in this many strata, round robin.
VIR_STRATA = 8
WORKLOADS = tuple(CHECK_WORKLOADS) + ("vir-explore",)

_INSTANCES_RE = re.compile(r"^(\d+) instances checked$")


class SourceMissing(RuntimeError):
    """The checkout holds no vertexkernel sources to benchmark."""


def import_cli():
    """vertexkernel.cli from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vertexkernel", "cli.py")):
        raise SourceMissing(f"no vertexkernel sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from vertexkernel import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"vertexkernel imported from {cli.__file__}, not {SRC}")
    return cli


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_vir_costs(path=VIR_COSTS_PATH):
    """The frozen cost of every pooled vir-explore request, in ms."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["pool_digest"] != pool_digest(vir_pool()):
        raise ValueError(f"{path} does not match the vir-explore request pool")
    return data["cost_ms"]


class Call:
    """Outcome of one in-process CLI call."""

    __slots__ = ("code", "out", "started", "seconds", "error")

    def __init__(self, code, out, started, seconds, error):
        self.code, self.out, self.error = code, out, error
        self.started, self.seconds = started, seconds


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if code != 0 and not error:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return Call(code, out.getvalue(), t0, seconds, error)


class PassResult:
    """One pass: wall time, per-operation outcomes and latencies."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.items = 0            # instances checked, or requests answered
        self.starts = []          # perf_counter() at the start of each CLI call
        self.latencies = []       # seconds per CLI call, in call order
        self.output_bytes = 0
        self.digests = []
        self.errors = []


# -- check workloads -----------------------------------------------------------------


def report_checks(c):
    """The check entries of a call's JSON report; None if the call failed or
    printed no such report."""
    if c.code != 0:
        return None
    try:
        return json.loads(c.out)["report"]["checks"]
    except (ValueError, KeyError, TypeError):
        return None


def instances_of(checks):
    total = 0
    for c in checks:
        m = _INSTANCES_RE.match(c.get("details", ""))
        if m:
            total += int(m.group(1))
    return total


class CheckWorkload:
    """``check --suite all`` on one input; each pass is one CLI call."""

    def __init__(self, name, cli, golden):
        self.name = name
        self.cli = cli
        self.golden = golden
        fname, self.suites = CHECK_WORKLOADS[name]
        self.argv = ["check", "--input", os.path.join(INPUTS, fname),
                     "--suite", "all", "--format", "json"]

    def run_pass(self, after_call=None):
        res = PassResult()
        c = call(self.cli, self.argv)
        if after_call:
            after_call()
        res.seconds = c.seconds
        res.starts.append(c.started)
        res.latencies.append(c.seconds)
        res.output_bytes = len(c.out.encode("utf-8"))
        res.digests.append(digest(c.out))
        res.attempted = len(self.suites)
        failed = self.failed_suites(c)
        res.failed = len(failed)
        res.errors += [f"{self.name} suite {s}: {c.error or 'output differs from golden'}"
                       for s in failed]
        res.items = instances_of(report_checks(c) or [])
        return res

    def failed_suites(self, c):
        """Suites whose result differs from the golden; all of them when the
        call itself failed or a difference cannot be pinned on one suite."""
        g = self.golden
        checks = report_checks(c)
        if checks is None:
            return list(self.suites)
        if digest(c.out) == g["digest"] and instances_of(checks) == g["instances"]:
            return []
        seen = [json.dumps(x, sort_keys=True) for x in checks]
        failed = []
        for s in self.suites:
            want = [json.dumps(x, sort_keys=True) for x in g["suites"][s]]
            pool = list(seen)
            for w in want:
                if w in pool:
                    pool.remove(w)
                else:
                    failed.append(s)
                    break
        return failed or list(self.suites)


# -- vir-explore ------------------------------------------------------------------------


def _vir_word(rng):
    """5-8 modes, indices in [-4, 1], so most words need straightening and
    some carry annihilators; about one mode in ten is the central c(-1)."""
    return "".join("c(-1)" if rng.random() < 0.1 else f"L({rng.randint(-4, 1)})"
                   for _ in range(rng.randint(5, 8))) + "|0⟩"


def vir_requests(seed, count):
    """``count`` request argv tails (without --input/--format) from ``seed``:
    about 50% ``compute mode``, 40% ``compute delta``, 10% ``dims``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r = rng.random()
        if r < 0.5:
            out.append(["compute", "mode", rng.choice("LLLc"), str(rng.randint(-3, 3)),
                        _vir_word(rng)])
        elif r < 0.9:
            out.append(["compute", "delta", _vir_word(rng)])
        else:
            out.append(["dims", "--max-weight", str(rng.randint(6, 11)),
                        "--torsion-bound", "1"])
    return out


def vir_pool():
    return [req for s in VIR_POOL_SEEDS for req in vir_requests(s, VIR_POOL_PER_SEED)]


def pool_digest(pool):
    return digest(json.dumps(pool))


def vir_sequence(seed, costs):
    """Pool indices for one pass.  Its requests are the VIR_ALWAYS costliest,
    then the rest of the pool, sorted by frozen cost, cut into pairs of
    neighbours of which ``seed`` picks one each.  Every seed thus gets
    different requests with nearly the same costs.

    The pass runs them in cost rank order taken round robin over VIR_STRATA
    strata: costliest, then the top of the next stratum, and so on.  So each
    request follows requests of the same cost ranks whatever the seed (a
    call's latency depends on the heap the calls before it left behind), and
    cheap calls are spread over the whole pass instead of bunched at one end,
    where a slow phase of the machine would catch all of them at once."""
    rng = random.Random(seed)
    ranked = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    seq = ranked[:VIR_ALWAYS] + [rng.choice(ranked[i:i + 2])
                                 for i in range(VIR_ALWAYS, len(ranked), 2)]
    n = len(seq) // VIR_STRATA
    return ([seq[j * n + i] for i in range(n) for j in range(VIR_STRATA)]
            + seq[VIR_STRATA * n:])


def vir_argv(req):
    """A pool entry as CLI argv: the subcommand, the shared options, the rest."""
    return [req[0], "--input", os.path.join(INPUTS, VIR_INPUT), "--format", "json",
            *req[1:]]


class VirExplore:
    """A seeded closed loop of one-shot requests, one client."""

    def __init__(self, cli, golden, seed, sequence=None):
        self.cli = cli
        self.golden = golden
        pool = vir_pool()
        if pool_digest(pool) != golden["pool_digest"]:
            raise ValueError("vir-explore request pool does not match golden.json")
        self.sequence = (vir_sequence(seed, load_vir_costs())
                         if sequence is None else list(sequence))
        self.requests = [(i, vir_argv(pool[i]), golden["digests"][i])
                         for i in self.sequence]

    def run_pass(self, after_call=None):
        res = PassResult()
        for i, argv, want in self.requests:
            c = call(self.cli, argv)
            if after_call:
                after_call()
            res.seconds += c.seconds
            res.starts.append(c.started)
            res.latencies.append(c.seconds)
            res.output_bytes += len(c.out.encode("utf-8"))
            got = digest(c.out)
            res.digests.append(got)
            res.attempted += 1
            if c.code != 0 or got != want:
                res.failed += 1
                res.errors.append(f"vir-explore request {i} {argv[5:]}: "
                                  f"{c.error or 'output differs from golden'}")
            else:
                res.items += 1
        return res


def make_workload(name, cli, golden, seed):
    if name in CHECK_WORKLOADS:
        return CheckWorkload(name, cli, golden[name])
    if name == "vir-explore":
        return VirExplore(cli, golden[name], seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
