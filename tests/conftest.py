import os

import pytest

from vertexkernel import workers


@pytest.fixture
def shard_over(monkeypatch):
    """shard_over(n) makes ValidationReport.tally see n usable CPUs; with n >= 2
    it shards every sweep from its first block.  No child process may be left
    after the test."""
    monkeypatch.setattr(workers, "_SHARD_AFTER_S", 0)
    yield lambda n: monkeypatch.setattr(workers, "_usable_cpus", lambda: n)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
