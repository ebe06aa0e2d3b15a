"""How volumize forks: served, one process that answers the caller's
requests over a pipe, and map_ordered, an ordered map over a few of them.

served forks one process that answers requests in order over a duplex
pipe; the caller writes a request and reads the reply when it needs it.
Requests and replies are Python values, pickled here and nowhere else, so a
float or an array crosses with its bits. It is a plain multiprocessing
Process, not an executor, whose helper threads in the caller would take the
GIL from the caller's loop. Training's evaluator computes an epoch's
metrics while the caller trains the next. A gradient flow's helper updates
the upper half of the flow's weights while the caller updates the lower
half, once per iteration; the halves live in buffers from shared_zeros,
anonymous shared memory allocated before the fork, so only the iteration's
settings and its largest change cross the pipe.

Sweep cells and theory grid points are independent tasks, each seeded from
its own stable_hash-derived stream, so where a task runs changes no bit of
its result. map_ordered runs them on served workers, one item in flight on
each, and returns the results in input order; each theory table starts at
most one map. Forked workers start with the caller's modules imported, in
milliseconds, where spawned ones would import numpy and volumize again.

Every process _pool forks is daemonic and forks nothing itself: sweep cells
and theory points already fill the CPUs, so inside one every map,
evaluator and flow runs in-process.
"""

import contextlib
import math
import mmap
import multiprocessing
import os
import pickle
import signal
from multiprocessing.connection import wait

import numpy as np

from .errors import ConfigError, VolumizeError

_FORK = multiprocessing.get_context("fork")

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


def _nested() -> bool:
    """True in a process that starts no children: a daemonic one, as every
    process _pool forks and every multiprocessing.Pool worker is."""
    return multiprocessing.current_process().daemon


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
    len(items)) workers are forked through served, and a worker that
    returns an item is sent the next item's index. fn and the items are
    read from the fork snapshot, so neither is pickled and fn may be any
    callable, a closure included.

    Once an item raises or its worker dies (killed, say), no further item
    starts; the items in flight finish, and the lowest-index error is
    raised, as in process. An interrupt ends every worker at once (see
    served). A task's exception keeps its class, unless it
    cannot be pickled and rebuilt, or a result cannot be pickled (see
    served); a lost worker is a VolumizeError naming its item. Every worker
    has exited before the call returns or raises.
    """
    require_workers(workers)
    items = list(items)
    if workers == 1 or len(items) <= 1 or _nested():
        return [fn(*item) for item in items]
    n = len(items)
    results, errors, sent, running = [None] * n, {}, 0, {}
    with contextlib.ExitStack() as stack:
        ready = [stack.enter_context(served(lambda i: fn(*items[i]), "worker"))
                 for _ in range(min(workers, n))]
        while True:
            # indices go out after every ready reply is read: none follows an error
            for server in ready:
                if not errors and sent < n:
                    server.send(sent)
                    running[server] = sent
                    sent += 1
            if not running:
                break
            ready = wait(list(running))
            for server in ready:
                i = running.pop(server)
                try:
                    results[i] = server.receive(f"the item at index {i} of {n}")
                except Exception as exc:
                    errors[i] = exc
    if errors:
        raise errors[min(errors)]
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

    def fileno(self) -> int:  # for multiprocessing.connection.wait
        return self._conn.fileno()

    def send(self, request) -> None:
        """Queues a request, any picklable value, for an answer."""
        try:
            self._conn.send_bytes(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
        except OSError:  # the process died; receive says so
            pass

    def receive(self, what: str):
        """The answer to the oldest request not yet received, or the
        exception answer raised for it; what names the request in the
        VolumizeError raised when the process has died."""
        try:
            reply = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise VolumizeError(
                f"the {self._name} process died before it sent {what}") from None
        failed, value = pickle.loads(reply)
        if failed:
            raise value
        return value


def _pickled(failed: bool, value) -> bytes:
    """The reply (failed, value), pickled. A value that cannot be pickled,
    or an exception that cannot be rebuilt from its pickle (its __init__
    takes other arguments than its args), goes as VolumizeError("<Class>:
    <message>") in its place: the class and message of the exception, or
    for a result, of its pickling error. Results are volumize's own values,
    so only exceptions are unpickled to check."""
    try:
        reply = pickle.dumps((failed, value), pickle.HIGHEST_PROTOCOL)
        if failed:
            pickle.loads(reply)
        return reply
    except Exception as exc:
        unsent = value if failed else exc
        return pickle.dumps((True, VolumizeError(f"{type(unsent).__name__}: {unsent}")),
                            pickle.HIGHEST_PROTOCOL)


def _serve(here, there, answer) -> None:
    """The served process: answers each request until the caller closes
    its end. An exception raised by answer goes back in its place."""
    here.close()
    for signum in (signal.SIGINT, signal.SIGTERM):  # the caller ends it by closing the pipe
        signal.signal(signum, signal.SIG_IGN)
    while True:
        try:
            request = pickle.loads(there.recv_bytes())
        except (EOFError, OSError):  # closed, or reset with a reply unread
            return
        try:
            reply = _pickled(False, answer(request))
        except Exception as exc:
            reply = _pickled(True, exc)
        try:
            there.send_bytes(reply)
        except OSError:  # the caller has gone
            return


@contextlib.contextmanager
def served(answer, name: str):
    """Forks one process, called name, that answers requests, and makes the
    caller's end of the pipe (a _Server) the value of the block.

    Each request, any picklable value, gets one answer(request), a value
    too, in request order; the caller reads each answer when it needs it.
    answer runs in a snapshot of the caller taken on entry, so it reads any
    state the caller held then, and the buffers from shared_zeros as they
    are written. An exception raised by answer is raised by receive as the
    same class, and a reply that cannot be pickled, or an exception that
    cannot be rebuilt, as a VolumizeError naming its class; a process that
    dies makes receive raise VolumizeError naming it. On leaving the block,
    by any path, the process has exited: after the answer it was computing,
    if any, unless the block is left by a BaseException that is not an
    Exception (KeyboardInterrupt, or the CLI's SIGTERM), which kills it at
    once. Files are written atomically, so a killed answer leaves no file
    part-written under its name.
    """
    here, there = _FORK.Pipe()
    proc = _FORK.Process(target=_serve, args=(here, there, answer), daemon=True,
                         name=name)
    proc.start()
    there.close()
    try:
        yield _Server(here, name)
    except Exception:
        raise
    except BaseException:
        proc.kill()  # it ignores SIGINT and SIGTERM
        raise
    finally:
        here.close()
        proc.join()
