"""The benchmark's workloads: inputs made from a seed, one pass of
operations, and the checks that decide whether an operation failed.

Each workload is a closed loop: an operation (one runner call, sweep cell or
theory table) starts after the previous one completes. The seed given on the
command line is the seed every runner receives; configs are fixed.
"""

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from statistics import median

import numpy as np


@dataclass
class OpResult:
    name: str
    seconds: float    # time of the runner call the operation belongs to
    ok: bool
    digest: str       # sha256 over the operation's output files
    samples: int = 0  # training examples or MC samples the call processed
    note: str = ""


def tree_digest(paths, base):
    """sha256 over (relative path, bytes) of the given files, sorted."""
    h = hashlib.sha256()
    for path in sorted(paths):
        rel = os.path.relpath(path, base).replace(os.sep, "/")
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def dir_files(out_dir):
    return [os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs]


def pass_seconds(results):
    """Time of the runner calls in one pass."""
    return sum(r.seconds for r in results)


def pass_rate(results):
    """Samples per second over the runner calls of a pass that process any."""
    sampled = [r for r in results if r.samples]
    return sum(r.samples for r in sampled) / sum(r.seconds for r in sampled)


def percentiles_ms(seconds, percents=(50, 90)):
    """Percentiles of durations given in seconds, in ms."""
    return [float(v) for v in np.percentile(np.array(seconds) * 1000.0, percents)]


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class Workload:
    """Base: subclasses set ``name`` and implement ``inputs`` and ``run_pass``."""

    name = ""
    workers = 1

    def __init__(self, vz, seed, work_dir):
        self.vz = vz
        self.seed = seed
        self.work_dir = work_dir

    def _dataset(self, cfg):
        """The dataset a training runner derives from (cfg, seed)."""
        vz = self.vz
        root = vz.SeededRng(vz.stable_hash(self.seed, "dataset"))
        data = vz.gen_blobs(root.spawn("blobs"), n_classes=cfg["n_classes"],
                            n_per_class=cfg["n_per_class"], dim=cfg["dim"],
                            spread=cfg["spread"])
        return vz.inject_label_noise(data, cfg["noise_ratio"], root.spawn("noise"))

    def _out(self, tag):
        return _fresh(os.path.join(self.work_dir, tag))

    def extra_metrics(self, passes, clock):
        """(name, value, unit, sample count) for the workload's own figures."""
        return []


# The README configuration: 8 -> 64 -> 4 relu, adam, walls v=0.25 alpha=0.5.
_README = {
    "n_classes": "4", "n_per_class": "250", "dim": "8", "spread": "0.8",
    "noise_ratio": "0.6", "hidden_dims": "64", "optimizer": "adam",
    "lr": "3e-3", "batch_size": "128",
}
_README_WALLS = {"v": "0.25", "alpha": "0.5"}


class TrainSmall(Workload):
    """run_train (100 epochs, checkpoint every 25), run_quantize and
    run_spectral at the README shapes: time goes to per-call overhead."""

    name = "train-small"

    def inputs(self):
        from volumize import config
        self.cfg_train = config.apply_schema(
            {**_README, **_README_WALLS, "epochs": "100", "checkpoint_every": "25"},
            config.TRAIN_SCHEMA)
        self.cfg_quantize = config.apply_schema(
            {**_README, **_README_WALLS, "epochs": "20", "mode": "ternary",
             "period_epochs": "2"}, config.QUANTIZE_SCHEMA)
        self.cfg_spectral = config.apply_schema(
            {**_README, "epochs": "20", "probe_pairs": "2000"},
            config.SPECTRAL_SCHEMA)
        self.n_train = self._dataset(self.cfg_train).n_train

    def run_pass(self):
        runs = self.vz.runs
        results = []

        out = self._out("train")
        (_, traj), dt = _timed(runs.run_train, self.cfg_train, out, self.seed)
        ok = traj.n_epochs == self.cfg_train["epochs"]
        results.append(OpResult("train", dt, ok, tree_digest(dir_files(out), out),
                                self.n_train * traj.n_epochs))

        out = self._out("quantize")
        captured = []
        save = runs.save_quantized_weights

        def capture(path, named_tensors, vols, mode):
            captured.extend((n, np.array(t, copy=True)) for n, t in named_tensors)
            return save(path, named_tensors, vols, mode)

        runs.save_quantized_weights = capture
        try:
            _, dt = _timed(runs.run_quantize, self.cfg_quantize, out, self.seed)
        finally:
            runs.save_quantized_weights = save
        mode, loaded = self.vz.load_quantized_weights(os.path.join(out, "weights.vzqw"))
        ok = (mode == self.cfg_quantize["mode"] and len(loaded) == len(captured)
              and all(n1 == n2 and t1.dtype == t2.dtype and np.array_equal(t1, t2)
                      for (n1, t1), (n2, t2) in zip(loaded, captured)))
        results.append(OpResult("quantize", dt, ok, tree_digest(dir_files(out), out),
                                self.n_train * self.cfg_quantize["epochs"],
                                "" if ok else "loaded weights differ from the quantized net"))

        out = self._out("spectral")
        (_, report), dt = _timed(runs.run_spectral, self.cfg_spectral, out, self.seed)
        results.append(OpResult("spectral", dt, bool(report.ok),
                                tree_digest(dir_files(out), out),
                                self.n_train * self.cfg_spectral["epochs"],
                                "" if report.ok else "spectral report not ok"))
        return results

    def extra_metrics(self, passes, clock):
        p50, p90 = percentiles_ms(clock.epochs)
        return [("train_samples_per_s", median(pass_rate(p) for p in passes), "1/s",
                 len(passes)),
                ("epoch_ms_p50", p50, "ms", len(clock.epochs)),
                ("epoch_ms_p90", p90, "ms", len(clock.epochs))]


class SweepWide(Workload):
    """A 2x2 (v, alpha) sweep on 2 workers at hidden 256,256: time goes to
    arithmetic on products far beyond L2."""

    name = "sweep-wide"
    workers = 2

    def inputs(self):
        from volumize import config
        self.cfg = config.apply_schema(
            {"dim": "32", "hidden_dims": "256,256", "optimizer": "laprop",
             "lr": "1e-3", "epochs": "5", "repeats": "1",
             "v_grid": "0.25, inf", "alpha_grid": "0, 1"}, config.SWEEP_SCHEMA)
        self.n_train = self._dataset(self.cfg).n_train

    def run_pass(self):
        out = self._out("sweep")
        _, dt = _timed(self.vz.runs.run_sweep_cmd, self.cfg, out, self.seed,
                       workers=self.workers)
        cell_dir = os.path.join(out, "cells")
        top = [os.path.join(out, f) for f in ("sweep.csv", "effective_config.txt")]
        sweep_digest = tree_digest(top, out)
        cells = sorted(os.listdir(cell_dir))
        share = dt / len(cells)
        results = []
        for fname in cells:
            path = os.path.join(cell_dir, fname)
            with open(path, encoding="utf-8") as f:
                status = self.vz.CellResult.from_json(json.load(f)).status
            digest = tree_digest([path], out) + ":" + sweep_digest
            results.append(OpResult(fname[:-len(".json")], share, status == "ok", digest,
                                    self.n_train * self.cfg["epochs"], status))
        return results

    def extra_metrics(self, passes, clock):
        return [("train_samples_per_s", median(pass_rate(p) for p in passes), "1/s",
                 len(passes)),
                ("sweep_cells_per_min",
                 median(60.0 * len(p) / pass_seconds(p) for p in passes), "1/min",
                 len(passes))]


class TheoryMc(Workload):
    """theorem1, fig4a, fig4b and theorem3 at reduced sample counts: no
    network work, time splits between sampling, the clip kernels and the
    Euler flow."""

    name = "theory-mc"

    def inputs(self):
        from volumize import config
        kinds = {
            "theorem1": {"n_samples": "2000000"},
            "fig4a": {"n_samples": "200000", "sigma_grid": "0.3, 0.7",
                      "v_grid_points": "41"},
            "fig4b": {"n_samples": "200000"},
            "theorem3": {"n_samples": "2000000", "flow_dim": "200000"},
        }
        self.cfgs = {k: config.apply_schema({"kind": k, **v}, config.THEORY_SCHEMA)
                     for k, v in kinds.items()}
        self.flow_dim = self.cfgs["theorem3"]["flow_dim"]

    def _mc_samples(self, kind):
        cfg = self.cfgs[kind]
        n = cfg["n_samples"]
        if kind == "theorem1":
            return len(cfg["sigma_grid"]) * n
        if kind == "fig4a":
            return len(cfg["sigma_grid"]) * cfg["v_grid_points"] * n
        if kind == "fig4b":
            # 40 wall positions plus the unregularized stream
            return 41 * n
        return 0  # theorem3's time is the flow; it counts in steps instead

    def _fig4b_ok(self, csv_path):
        """fig4b's built-in checks without the growth comparison.

        The built-in ``ok`` also asks that the truncated Cauchy mean over all
        n samples exceed the one over the first 10**4. That is a property of
        the draw, not of the code: it fails for about 14% of seeds at n=2e5
        (8% at 1e6, 4% at 4e6). The other checks are deterministic.
        """
        a = self.cfgs["fig4b"]["a"]
        _, rows = self.vz.csvio.read_csv(csv_path)
        err = {m: [float(r["error"]) for r in rows if r["method"] == m]
               for m in ("unregularized", "weight_decay", "volumization")}
        best = min(err["volumization"])
        return (best < a * a / 3.0 and err["weight_decay"][0] == a * a / 3.0
                and err["unregularized"][-1] > 10.0 * best)

    def run_pass(self):
        results = []
        for kind, cfg in self.cfgs.items():
            out = self._out(kind)
            (path, ok), dt = _timed(self.vz.runs.run_theory, cfg, out, self.seed)
            note = "" if ok else "built-in checks failed"
            if kind == "fig4b" and not ok:
                ok = self._fig4b_ok(path)
                note = "growth comparison did not hold" if ok else note
            results.append(OpResult(kind, dt, bool(ok), tree_digest(dir_files(out), out),
                                    self._mc_samples(kind), note))
        return results

    def extra_metrics(self, passes, clock):
        return [("mc_samples_per_s", median(pass_rate(p) for p in passes), "1/s",
                 len(passes)),
                ("flow_coord_steps_per_s", self.flow_dim / median(clock.steps), "1/s",
                 len(clock.steps))]


WORKLOADS = {w.name: w for w in (TrainSmall, SweepWide, TheoryMc)}
