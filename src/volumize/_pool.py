"""The one parallel path: an ordered map over forked worker processes.

Sweep cells and theory grid points are independent tasks, each seeded from
its own stable_hash-derived stream, so where a task runs changes no bit of
its result. map_ordered returns results in input order whatever the worker
count, which is all the callers need to keep their output bytes fixed.
Workers are forked: they start with the caller's modules already imported,
in milliseconds, where a spawned worker would import numpy and volumize
again for each grid.
"""

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError

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


def map_ordered(fn, items, workers: int) -> list:
    """[fn(*item) for item in items], spread over up to `workers` processes.

    Runs in-process when workers == 1, there is at most one item, or the
    caller is itself a daemonic worker (a multiprocessing.Pool worker may
    not have children); otherwise forks min(workers, len(items)) workers
    and hands them one item at a time. fn must be a module-level function.
    An exception raised by a task reaches the caller as the same class,
    after the pool has shut down.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1 or multiprocessing.current_process().daemon:
        return [fn(*item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, *zip(*items)))
