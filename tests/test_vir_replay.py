"""The costliest vir-explore requests, replayed through the CLI against the
benchmark's golden digests.

Six of the eight are Delta of an 8-mode word and print 0.75-2.1 MB of JSON
each, whose rows share word lists and mode dicts, so they pin the renderer's
bytes where its memos do the most work.  The benchmark's own tests replay only
its cheapest requests.  perfbench/ is read, never written.
"""

import contextlib
import importlib.util
import io
import os

import pytest

from vertexkernel.cli import main

WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
COSTLIEST = 8


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
_COSTS = workloads.load_vir_costs()
_RANKED = sorted(range(len(_COSTS)), key=lambda i: (-_COSTS[i], i))[:COSTLIEST]


@pytest.mark.parametrize("index", _RANKED)
def test_costliest_vir_request_prints_its_golden_bytes(index):
    argv = workloads.vir_argv(workloads.vir_pool()[index])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    golden = workloads.load_golden()["vir-explore"]["digests"]
    assert workloads.digest(out.getvalue()) == golden[index]
