"""The two ways volumize forks: an ordered map over worker processes, and
one process that answers requests while the caller works.

Sweep cells and theory grid points are independent tasks, each seeded from
its own stable_hash-derived stream, so where a task runs changes no bit of
its result. map_ordered runs the tasks on N forked workers and returns
their results in input order; each theory table starts at most one pool.
Workers are forked: they start with the caller's modules already imported,
in milliseconds, where a spawned worker would import numpy and volumize
again for each grid.

served forks one process that answers the caller's requests in order, raw
bytes each way, over a duplex pipe. It has two users. Training's evaluator
computes an epoch's metrics while the caller trains the next. A gradient
flow's helper updates the upper half of the flow's weights while the
caller updates the lower half, once per iteration; the two halves live in
buffers from shared_zeros, anonymous shared memory allocated before the
fork, so only the iteration's settings and its largest change cross the
pipe. served is a plain multiprocessing Process, not an executor, because
an executor feeds its workers and collects their results through helper
threads in the caller, and those threads take the GIL from the caller's
loop. The pipe needs no thread: the caller writes a request, and reads the
reply only when it needs it.

A process that _pool forks starts no children of its own: sweep cells and
theory points already fill the CPUs, so inside one every map, evaluator
and flow runs in-process.
"""

import contextlib
import math
import mmap
import multiprocessing
import os
import pickle
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .errors import ConfigError, VolumizeError

_FORK = multiprocessing.get_context("fork")
_forked = False  # True in map_ordered's workers

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
    """True in a process that starts no children: a map_ordered worker
    (marked, since an executor's workers are not daemonic), or a daemonic
    one, such as the served process or a multiprocessing.Pool worker,
    which may not have any."""
    return _forked or multiprocessing.current_process().daemon


def spare_cpu() -> bool:
    """True when a helper process may run beside this one: at least two
    CPUs are available and this process may start children (see _nested)."""
    return not _nested() and available_cpus() >= 2


def require_workers(workers: int) -> None:
    """Raises ConfigError unless workers >= 1."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")


def map_ordered(fn, items, workers: int) -> list:
    """[fn(*item) for item in items], spread over up to `workers` processes.

    Runs in-process when workers == 1, there is at most one item, or the
    caller starts no children (see _nested). Otherwise min(workers,
    len(items)) workers are forked and take one item at a time; fn must be
    a module-level function. An exception raised by a task reaches the
    caller as the same class; a worker that dies (killed, say) loses the
    items the pool held, and VolumizeError names the first lost item.
    Either way the items not yet started are cancelled and every worker has
    exited before the call returns or raises.
    """
    require_workers(workers)
    items = list(items)
    if workers == 1 or len(items) <= 1 or _nested():
        return [fn(*item) for item in items]
    pool = ProcessPoolExecutor(max_workers=min(workers, len(items)),
                               mp_context=_FORK, initializer=_mark_forked)
    futures, results = [], []
    try:
        # a dead worker breaks the pool, and submit and result then raise
        # BrokenProcessPool; the count of results names the first lost item
        with contextlib.suppress(BrokenProcessPool):
            for item in items:
                futures.append(pool.submit(fn, *item))
        with contextlib.suppress(BrokenProcessPool):
            for f in futures:
                results.append(f.result())
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if len(results) < len(items):
        raise VolumizeError(f"a worker process died: the item at index {len(results)} "
                            f"of {len(items)} returned no result")
    return results


def shared_zeros(n: int) -> np.ndarray:
    """n float64 zeros in anonymous shared memory: a process forked after
    this call and the caller see each other's writes to it."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


class _Server:
    """The caller's end of the pipe to a process that served forked."""

    def __init__(self, conn, name):
        self._conn = conn
        self._name = name

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
                f"the {self._name} process died before it sent {what}") from None
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
def served(answer, name: str):
    """Forks one process, called name, that answers requests, and makes the
    caller's end of the pipe (a _Server) the value of the block.

    Each request, sent as raw bytes, gets one answer(request), raw bytes
    too, in request order; the caller reads each answer when it needs it.
    answer runs in a snapshot of the caller taken on entry, so it reads any
    state the caller held then, and the buffers from shared_zeros as they
    are written. An exception raised by answer is raised by receive as the
    same class; a process that dies makes receive raise VolumizeError
    naming it. On leaving the block, by any path, the process has exited,
    after the answer it was computing, if any.
    """
    here, there = _FORK.Pipe()
    proc = _FORK.Process(target=_serve, args=(here, there, answer), daemon=True,
                         name=name)
    proc.start()
    there.close()
    try:
        yield _Server(here, name)
    finally:
        here.close()
        proc.join()
