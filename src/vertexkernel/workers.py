"""Running a sweep's blocks in order, shared with forked workers when that pays.

ValidationReport.tally counts CaseBlocks through in_order, and imports this
module on its first sweep, so that importing the package stays as cheap.
"""

import os
import pickle
import signal
import threading
import time

__all__ = ["in_order"]

# A sweep is sharded only once its first blocks, run here in order, have taken
# this long (a fork, its copy-on-write faults and its reaping cost a few ms), so
# a small sweep never forks, and the forked workers find the memos those first
# blocks filled.
_SHARD_AFTER_S = 0.02
_INDEX = 4   # bytes per block index in the queue pipe
# The queue is written whole before the first fork, in one atomic write of at
# most PIPE_BUF bytes (4096 on Linux), so it holds at most this many indices.
_QUEUED = 1024
_sharding = False   # true while this process shards a sweep, and in a worker


def _usable_cpus():
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def in_order(n, count):
    """Yield count(a) for a in range(n), in order: the values, and the
    exception raised (that of the lowest a that raises), are those of the
    plain loop.  With two or more usable CPUs, no other thread, and two or
    more blocks left once the blocks run so far have taken _SHARD_AFTER_S,
    the rest are computed ahead by this process and forked workers (_run);
    a block _run leaves out, one that raised among them, is run here in its
    turn and raises here as in the plain loop."""
    global _sharding
    cpus = 1 if _sharding else _usable_cpus()
    done, t0 = None, time.perf_counter()
    for a in range(n):
        if (done is None and cpus > 1 and n - a > 1
                and time.perf_counter() - t0 >= _SHARD_AFTER_S
                and threading.active_count() == 1):   # forking a threaded process is unsafe
            _sharding = True
            try:
                done = _run(count, range(a, n), cpus)
            finally:
                _sharding = False
        got = done.get(a) if done else None
        yield count(a) if got is None else got


def _take(count, queue):
    """count(a) for each block index a this process reads from the queue pipe,
    until it is empty: {a: count(a)}.  A block that raises is left out."""
    out = {}
    while index := os.read(queue, _INDEX):
        a = int.from_bytes(index, "little")
        try:
            out[a] = count(a)
        except Exception:   # rerun by in_order in its turn, where it raises
            pass
    return out


def _run(count, todo, cpus):
    """count(a) for the block indices todo (a sequence), in this process and
    in up to cpus - 1 forked workers: {a: count(a)} for the blocks that ran
    to the end.

    Every process takes indices from one pipe, heaviest (last) first; only
    the last _QUEUED of todo are queued.  A worker pickles its results back
    and leaves by os._exit, so it flushes no stdio buffer of this process and
    runs none of its exit code.  No process keeps an exception.  So a block
    left out of the queue, a block that raised here or in a worker, and every
    block of a worker that ended without a result are missing from the
    result, for the caller to run.  Every worker is reaped before this
    returns or raises; on an exception here, such as KeyboardInterrupt, the
    workers are killed first."""
    todo = todo[-_QUEUED:]
    queue, feed = os.pipe()
    workers = []   # [pid, the read end of its result pipe, or None once read]
    try:
        with open(feed, "wb") as fh:
            fh.write(b"".join(a.to_bytes(_INDEX, "little") for a in reversed(todo)))
        for _ in range(min(cpus, len(todo)) - 1):
            result, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no more processes: the ones started do the work
                os.close(result)
                os.close(out)
                break
            if pid == 0:
                try:
                    os.close(result)
                    with open(out, "wb") as fh:
                        pickle.dump(_take(count, queue), fh)
                finally:
                    os._exit(0)
            os.close(out)
            workers.append([pid, result])
        done = _take(count, queue)
        for worker in workers:
            with open(worker[1], "rb") as fh:
                worker[1] = None
                data = fh.read()
            if data:
                try:
                    done.update(pickle.loads(data))
                except (pickle.UnpicklingError, EOFError):   # cut short: left to the caller
                    pass
        return done
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, result in workers:
            if result is not None:
                os.close(result)
            os.waitpid(pid, 0)
