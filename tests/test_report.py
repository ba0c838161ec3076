"""ValidationReport.tally: the one runner that counts every check.

The sweeps hand it CaseBlocks, which it may share among forked workers.  The
tests of that path set the CPU count it sees (the shard_over fixture) and
check that the report, the exception raised and the processes left are those
of a serial run."""

import os
import time

import pytest

from vertexkernel import workers
from vertexkernel.errors import InputError
from vertexkernel.lincomb import LinComb
from vertexkernel.report import CaseBlocks, ValidationReport


def only(rep):
    (check,) = rep.checks
    return check


def test_tally_counts_a_generator_exactly():
    rep = ValidationReport().tally("c", ((n,) for n in range(7)), lambda n: False, str)
    assert only(rep).passed and only(rep).details == "7 instances checked"


def test_tally_renders_only_failing_cases():
    # the witness runs exactly once, on the first of several failing cases;
    # the others are only counted
    rendered = []

    def witness(n, m):
        rendered.append((n, m))
        return f"{n}+{m} is odd"
    cases = [(n, m) for n in range(3) for m in range(3)]
    rep = ValidationReport().tally("even", cases, lambda n, m: (n + m) % 2, witness)
    assert rendered == [(0, 1)]
    assert not only(rep).passed and only(rep).witness == "0+1 is odd (+3 more)"


def test_tally_reports_the_first_witness_and_the_rest_as_a_count():
    rep = ValidationReport().tally("small", zip(range(10)), lambda n: n > 6, lambda n: f"{n} > 6")
    assert only(rep).witness == "7 > 6 (+2 more)"
    rep = ValidationReport().tally("small", zip(range(8)), lambda n: n > 6, lambda n: f"{n} > 6")
    assert only(rep).witness == "7 > 6"


def test_tally_passes_a_zero_lincomb_defect():
    x = LinComb.single("x", 3)
    rep = ValidationReport().tally("cancel", [(x, x), (x, 2 * x)], lambda a, b: a - b,
                                   lambda a, b: "differ")
    assert only(rep).witness == "differ"
    rep = ValidationReport().tally("cancel", [(x, x)], lambda a, b: a - b, lambda a, b: "differ")
    assert only(rep).passed and only(rep).details == "1 instances checked"


def test_tally_over_no_cases_passes_with_a_zero_count():
    rep = ValidationReport().tally("empty", [], lambda: True, lambda: "never")
    assert rep.to_json() == {"subject": "", "passed": True, "checks": [
        {"check": "empty", "passed": True, "details": "0 instances checked"}]}


# -- CaseBlocks, counted serially and over forked workers --------------------------------


@pytest.fixture(params=[1, 2, 3])
def cpus(request, shard_over):
    shard_over(request.param)
    return request.param


def blocks_of(rows):
    """CaseBlocks whose block a yields the cases (a, x) for x in rows[a]."""
    return CaseBlocks(len(rows), lambda a: ((a, x) for x in rows[a]))


def test_blocks_iterate_in_block_order():
    assert list(blocks_of([[1, 2], [], [3]])) == [(0, 1), (0, 2), (2, 3)]


def test_tally_of_blocks_is_the_serial_tally(cpus):
    # the second set has more blocks than the workers' queue holds; the rest run here
    for rows in ([list(range(a % 4 * 5)) for a in range(11)], [[0, 1]] * 1100):
        for fails in (lambda a, x: False, lambda a, x: a >= 3 and x % 3 == 1,
                      lambda a, x: a == 10 and x == 0):
            got = ValidationReport().tally("c", blocks_of(rows), fails, lambda a, x: f"{a}:{x}")
            want = ValidationReport().tally("c", list(blocks_of(rows)), fails,
                                            lambda a, x: f"{a}:{x}")
            assert got.to_json() == want.to_json()
        assert only(got).witness == "10:0"


def test_the_workers_counts_are_used(cpus):
    # this process sleeps in its blocks, so the workers count some of them,
    # and those are not run again here
    parent, here = os.getpid(), []

    def defect(a, x):
        if os.getpid() == parent:
            here.append(a)
            time.sleep(0.05)
        return a % 3 == 1
    got = ValidationReport().tally("c", blocks_of([[0]] * 6), defect, lambda a, x: str(a))
    assert only(got).witness == "1 (+1 more)"
    assert len(here) < 6 if cpus > 1 else here == list(range(6))


def test_a_raising_block_surfaces_the_lowest_blocks_exception(cpus):
    def defect(a, x):
        if a in (4, 7, 9):
            raise InputError(f"block {a}")
        return False
    with pytest.raises(InputError, match="^block 4$"):
        ValidationReport().tally("c", blocks_of([[0]] * 10), defect, lambda a, x: "")


def test_a_worker_that_dies_in_a_block_leaves_the_serial_report(cpus, tmp_path):
    # every worker dies on its first block, after leaving a file named by its pid;
    # this process sleeps in its blocks, so the workers take some of them
    parent = os.getpid()

    def defect(a, x):
        if os.getpid() != parent:
            (tmp_path / str(os.getpid())).write_text(str(workers._sharding))
            os._exit(3)
        time.sleep(0.05)
        return a % 2
    rows = [[0]] * 6
    got = ValidationReport().tally("c", blocks_of(rows), defect, lambda a, x: str(a))
    assert only(got).witness == "1 (+2 more)"
    pids = list(tmp_path.iterdir())
    assert 1 <= len(pids) <= cpus - 1 if cpus > 1 else not pids
    # a worker never shards again
    assert all(p.read_text() == "True" for p in pids)


def test_an_interrupt_here_stops_the_workers(cpus):
    # the workers would sleep for a minute in each block; they are killed and reaped
    parent = os.getpid()

    def defect(a, x):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        ValidationReport().tally("c", blocks_of([[0]] * 4), defect, lambda a, x: "")
    assert time.monotonic() - t0 < 30
