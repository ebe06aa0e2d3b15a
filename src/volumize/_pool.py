"""The two ways volumize forks: an ordered map over worker processes, and
one process that answers requests while the caller works.

Sweep cells and theory grid points are independent tasks, each seeded from
its own stable_hash-derived stream, so where a task runs changes no bit of
its result. started_map starts the tasks on N forked workers and hands back
their results, in input order, when the caller asks; in between the caller
may do its own work (theorem3 runs its flows while the workers run its
estimates). With no workers the tasks run in-process when the results are
asked for, so the caller's own work comes first, and its errors win, at
every worker count. map_ordered is started_map with the caller waiting.
Each theory table starts at most one pool. Workers are forked: they start
with the caller's modules already imported, in milliseconds, where a
spawned worker would import numpy and volumize again for each grid.

served forks one process that answers the caller's requests in order, raw
bytes each way, over a duplex pipe: training's evaluator, which computes an
epoch's metrics while the caller trains the next. It is a plain
multiprocessing Process, not an executor, because an executor feeds its
workers and collects their results through helper threads in the caller,
and those threads take the GIL from the training loop between its steps.
The pipe needs no thread: the caller writes a request, and reads the reply
only when it needs it.

A process that _pool forks starts no children of its own: sweep cells and
theory points already fill the CPUs, so inside one every map and every
evaluator runs in-process.
"""

import contextlib
import math
import multiprocessing
import os
import pickle
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import ConfigError, VolumizeError

_FORK = multiprocessing.get_context("fork")
_SERVED = "evaluator"  # the name of the process served forks
_forked = False  # True in started_map's workers

# cgroup v2, then v1: "<quota> <period>" in microseconds, quota "max" or -1 if none
_CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                     "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _cpu_quota():
    """CPUs the cgroup's CFS quota grants, rounded up; None if unlimited or unknown."""
    for paths in _CPU_QUOTA_FILES:
        try:
            fields = []
            for p in paths:
                with open(p) as f:
                    fields += f.read().split()
            quota, period = fields[0], int(fields[1])
            return None if quota in ("max", "-1") else max(1, math.ceil(int(quota) / period))
        except (OSError, IndexError, ValueError, ZeroDivisionError):
            continue
    return None


def available_cpus() -> int:
    """CPUs this process may use: its affinity mask (so taskset limits it),
    capped by its cgroup's CPU quota when there is one."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this OS: stay in-process
        return 1
    quota = _cpu_quota()
    return n if quota is None else min(n, quota)


def _mark_forked() -> None:
    global _forked
    _forked = True


def _nested() -> bool:
    """True in a process that starts no children: a started_map worker
    (marked, since an executor's workers are not daemonic), or a daemonic
    one, such as the served process or a multiprocessing.Pool worker,
    which may not have any."""
    return _forked or multiprocessing.current_process().daemon


def spare_cpu() -> bool:
    """True when a helper process may run beside this one: at least two
    CPUs are available and this process may start children (see _nested)."""
    return not _nested() and available_cpus() >= 2


@contextlib.contextmanager
def started_map(fn, items, workers: int):
    """Starts [fn(*item) for item in items] on `workers` forked processes;
    the value of the block is a function that returns the results, in input
    order, once they are done.

    workers == 0, no items, or a caller that starts no children (see
    _nested) means in-process: the items run when the results are asked
    for. Otherwise min(workers, len(items)) workers are forked on entry and
    take one item at a time. fn must be a module-level function. An
    exception raised by a task reaches the caller as the same class when
    the results are asked for; a worker that dies (killed, say) loses the
    items the pool held, and asking for the results then raises
    VolumizeError naming the first lost item. On leaving the block, by any
    path, the items not yet started are cancelled and every worker has
    exited.
    """
    items = list(items)
    if workers == 0 or not items or _nested():
        yield lambda: [fn(*item) for item in items]
        return
    pool = ProcessPoolExecutor(max_workers=min(workers, len(items)),
                               mp_context=_FORK, initializer=_mark_forked)
    futures = []
    try:
        with contextlib.suppress(BrokenProcessPool):  # the results name the lost item
            for item in items:
                futures.append(pool.submit(fn, *item))
        yield lambda: _results(futures, len(items))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _results(futures, n):
    """The futures' results in order, for n items; an item whose worker
    died, or that a broken pool refused, raises VolumizeError."""
    results = []
    with contextlib.suppress(BrokenProcessPool):
        for f in futures:
            results.append(f.result())
    if len(results) < n:
        raise VolumizeError(f"a worker process died: the item at index {len(results)} "
                            f"of {n} returned no result")
    return results


def require_workers(workers: int) -> None:
    """Raises ConfigError unless workers >= 1."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def map_ordered(fn, items, workers: int) -> list:
    """[fn(*item) for item in items], spread over up to `workers` processes.

    Runs in-process when workers == 1 or there is at most one item, and
    otherwise as started_map does, the caller waiting for the results.
    An exception raised by a task reaches the caller as the same class,
    after the pool has shut down.
    """
    require_workers(workers)
    items = list(items)
    forked = workers if workers > 1 and len(items) > 1 else 0
    with started_map(fn, items, forked) as results:
        return results()


class _Server:
    """The caller's end of the pipe to a process that served forked."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, request) -> None:
        """Queues a request (any bytes-like object) for an answer."""
        try:
            self._conn.send_bytes(request)
        except OSError:  # the process died; receive says so
            pass

    def receive(self, what: str) -> bytes:
        """The answer to the oldest request not yet received; what names it
        in the VolumizeError raised when the process has died."""
        try:
            reply = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise VolumizeError(
                f"the {_SERVED} process died before it sent {what}") from None
        if reply[:1] == b"\0":
            return reply[1:]
        raise pickle.loads(reply[1:])


def _serve(here, there, answer) -> None:
    """The served process: answers each request until the caller closes
    its end. An exception raised by answer goes back in its place. It is
    daemonic, so _nested holds in it."""
    here.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller ends it by closing the pipe
    while True:
        try:
            request = there.recv_bytes()
        except EOFError:
            return
        try:
            reply = b"\0" + answer(request)
        except Exception as exc:
            reply = b"\1" + pickle.dumps(exc)
        try:
            there.send_bytes(reply)
        except OSError:  # the caller has gone
            return


@contextlib.contextmanager
def served(answer):
    """Forks one process that answers requests, and makes the caller's end
    of the pipe (a _Server) the value of the block.

    Each request, sent as raw bytes, gets one answer(request), raw bytes
    too, in request order; the caller reads each answer when it needs it.
    answer runs in a snapshot of the caller taken on entry, so it reads any
    state the caller held then. An exception raised by answer is raised by
    receive as the same class; a process that dies makes receive raise
    VolumizeError. On leaving the block, by any path, the process has
    exited, after the answer it was computing, if any.
    """
    here, there = _FORK.Pipe()
    proc = _FORK.Process(target=_serve, args=(here, there, answer), daemon=True,
                         name=_SERVED)
    proc.start()
    there.close()
    try:
        yield _Server(here)
    finally:
        here.close()
        proc.join()
