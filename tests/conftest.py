import os

import pytest

from vertexkernel import enveloping, workers
from vertexkernel.enveloping import commutator_defect_on, commutator_sweep, pack
from vertexkernel.lincomb import LinComb


@pytest.fixture
def shard_over(monkeypatch):
    """shard_over(n) makes ValidationReport.tally see n usable CPUs; with n >= 2
    it shards every sweep from its first block.  No child process may be left
    after the test."""
    monkeypatch.setattr(workers, "_SHARD_AFTER_S", 0)
    yield lambda n: monkeypatch.setattr(workers, "_usable_cpus", lambda: n)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Table:
    """A mode algebra given by a table {(key, n, key): {key: int}} of its products on
    basis keys, every key of weight 1."""

    def __init__(self, table):
        self.table = table

    def state_mode(self, u, n, v):
        out = LinComb()
        for ku, cu in u.items():
            for kv, cv in v.items():
                out.add_into(LinComb(self.table.get((ku, n, kv), {})), cu * cv)
        return out

    def packed_mode(self, u, n, v, slots):
        return pack(self.state_mode(u, n, v), slots)

    def state_weight(self, state):
        return 1


@pytest.fixture
def packed_zero_case():
    """run() -> (the failing instances of the commutator sweep, those of its reference
    loop, one instance whose defect is 2^W y - z) on a table algebra, mode 0.
    At u = s0, v = s1, w = s0 the defect is s0_0(s1_0 s0) - (s0_0 s1)_0 s0, that is
    (2^W x + 2^W y) - (2^W x + z), and x, y, z take the slots 0, 1 and 2 of that sweep
    block, so both terms pack to 2^W + 2^(2W), at whatever W the module has.  The
    second is added with scale -1, so a bound that grew by scale * top would be 0."""
    def run():
        s0, s1, big = LinComb.single("s0"), LinComb.single("s1"), 1 << enveloping.W
        alg = _Table({("s1", 0, "s0"): {"a": 1}, ("s0", 0, "a"): {"x": big, "y": big},
                      ("s0", 0, "s1"): {"b": 1}, ("b", 0, "s0"): {"x": big, "z": 1}})
        states = [s0, s1]
        got = [case[:-1] for case in commutator_sweep(alg, states, [0]) if case[-1]]
        want = [(u, 0, v, 0, w) for u in states for v in states for w in states
                if commutator_defect_on(alg, u, 0, v, 0, w)]
        return got, want, (s0, 0, s1, 0, s0)
    return run
