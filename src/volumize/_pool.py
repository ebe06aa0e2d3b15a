"""The one parallel path: an ordered map over forked worker processes.

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
"""

import contextlib
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import ConfigError, VolumizeError

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


@contextlib.contextmanager
def started_map(fn, items, workers: int):
    """Starts [fn(*item) for item in items] on `workers` forked processes;
    the value of the block is a function that returns the results, in input
    order, once they are done.

    workers == 0, no items, or a daemonic caller (a multiprocessing.Pool
    worker may not have children) means in-process: the items run when the
    results are asked for. Otherwise min(workers, len(items)) workers are
    forked on entry and take one item at a time. fn must be a module-level
    function. An exception raised by a task reaches the caller as the same
    class when the results are asked for; a worker that dies (killed, say)
    loses the items the pool held, and asking for the results then raises
    VolumizeError naming the first lost item. On leaving the block, by any
    path, the items not yet started are cancelled and every worker has
    exited.
    """
    items = list(items)
    if workers == 0 or not items or multiprocessing.current_process().daemon:
        yield lambda: [fn(*item) for item in items]
        return
    pool = ProcessPoolExecutor(max_workers=min(workers, len(items)),
                               mp_context=multiprocessing.get_context("fork"))
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
