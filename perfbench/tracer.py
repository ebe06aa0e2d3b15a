"""Span tracing of volumize's layers, installed from outside the package.

Each public function of a layer module is wrapped on the name its callers
look up: ``from x import y`` binds early, so ``training.loss_and_grad``,
``optimizers.apply_volumization``, ``theory.sample_uniform`` and the like are
replaced on every module that imported them, and the ``_kernels`` attributes
are replaced on ``_kernels`` itself (callers reach them as
``_kernels.name``). There is one wrapper per original function, built with
``functools.wraps``, so pickle still resolves a wrapped function by its
import path and forked sweep workers inherit the wrappers.

A span is (key, parent key, name, start, end, operation id, info), where a
key is (pid, counter). Spans stay in memory; a worker process appends its
spans to a file each time its top-level call returns, and the benchmark
collects those files after each operation.
"""

import functools
import json
import os
import time

import numpy as np

# The layers of the program, in the order reports list them.
LAYERS = ("_kernels", "linalg", "net", "optimizers", "volumization",
          "training", "theory", "spectral", "quantizer", "checkpoint",
          "csvio", "sweep", "data", "runs")


def label(layer):
    """Layer name as metrics print it: names start with a letter."""
    return layer.lstrip("_")


_SEEDED_RNG_METHODS = ("random", "uniform", "normal", "integers",
                       "choice_without_replacement", "permutation", "spawn")


def _shapes(args):
    return tuple(a.shape for a in args if isinstance(a, np.ndarray))


def _volumize_info(args):
    # (w, mom, vol, alpha, clamp): count crossings before w is rewritten.
    # The kernel leaves everything in place when alpha == 1 or vol is inf.
    w, _, vol, alpha, _ = args
    active = alpha != 1.0 and np.isfinite(vol)
    crossed = int(np.count_nonzero(np.abs(w) > vol)) if active else 0
    return (_shapes(args), crossed, int(w.size))


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# info recorded before the call (inputs are rewritten in place) ...
_BEFORE = {"kernels.volumize": _volumize_info}
# ... or after it, from the arguments and the result
_AFTER = {
    "kernels.clip_sq_cv_values":
        lambda args, z: (_shapes(args), int(np.count_nonzero(z))),
    "theory.gradient_flow_sim": lambda args, res: res.iterations,
    "checkpoint.save_checkpoint": _file_bytes,
    "quantizer.save_quantized_weights": _file_bytes,
    "csvio.write_csv": _file_bytes,
}


class Tracer:
    """Span-recording wrappers over the volumize layer modules.

    ``install()`` and ``uninstall()`` may alternate within one run; spans
    accumulate until ``take()`` hands them over.
    """

    def __init__(self, vz, spool_dir):
        self._modules = {layer: getattr(vz, layer) for layer in LAYERS}
        self._spool_dir = spool_dir
        self._main_pid = os.getpid()
        self._pid = self._main_pid
        self._base_depth = 0
        self._stack = []
        self._records = []
        self._counter = 0
        self.op_id = None
        self._patches = self._plan()
        os.register_at_fork(after_in_child=self._after_fork)

    def _plan(self):
        """(owner, attribute, original, wrapper) for every lookup name."""
        wrappers = {}
        for layer in LAYERS:
            mod = self._modules[layer]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and not attr.endswith(("_np", "_nb"))
                        and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{label(layer)}.{attr}", obj)
        patches = []
        for layer in LAYERS:
            mod = self._modules[layer]
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers and not attr.endswith(("_np", "_nb")):
                    patches.append((mod, attr, obj, wrappers[id(obj)]))
        rng_cls = self._modules["linalg"].SeededRng
        for attr in _SEEDED_RNG_METHODS:
            fn = vars(rng_cls)[attr]
            patches.append((rng_cls, attr, fn,
                            self._wrap(f"linalg.SeededRng.{attr}", fn)))
        return patches

    def _wrap(self, name, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        if before is None and after is None and name.startswith("kernels."):
            before = _shapes
        stack = self._stack
        records = self._records
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter += 1
            key = (self._pid, self._counter)
            if stack:
                parent = stack[-1]
            else:  # a runner call the benchmark made: a new operation
                parent = None
                self.op_id = key
            info = before(args) if before is not None else None
            stack.append(key)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            if after is not None:
                info = after(args, result)
            records.append((key, parent, name, t0, t1, self.op_id, info))
            if self._pid != self._main_pid and len(stack) == self._base_depth:
                self._flush_worker()
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _after_fork(self):
        # a forked worker starts with no spans of its own; its first spans
        # hang under the parent's span that was open when it was forked
        self._pid = os.getpid()
        del self._records[:]
        self._base_depth = len(self._stack)

    def _flush_worker(self):
        path = os.path.join(self._spool_dir, f"spans-worker-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for rec in self._records:
                f.write(json.dumps(rec) + "\n")
        del self._records[:]

    def take(self):
        """All spans recorded since the last take, worker spans included."""
        for fname in sorted(os.listdir(self._spool_dir)):
            if not fname.startswith("spans-worker-"):
                continue
            path = os.path.join(self._spool_dir, fname)
            with open(path, encoding="utf-8") as f:
                for line in f:
                    key, parent, name, t0, t1, op, info = json.loads(line)
                    self._records.append((tuple(key), parent and tuple(parent), name,
                                          t0, t1, op and tuple(op), _as_tuples(info)))
            os.remove(path)
        out = list(self._records)
        del self._records[:]
        return out


def _as_tuples(info):
    # JSON turns the shape tuples into lists
    if isinstance(info, list):
        return tuple(_as_tuples(x) for x in info)
    return info
