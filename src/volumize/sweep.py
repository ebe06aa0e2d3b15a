"""Deterministic (v, alpha) grid sweeps with per-cell resume.

Each grid cell (v-index, alpha-index, repeat) trains an independent model;
its seed is stable_hash(base_seed, v_idx, alpha_idx, repeat), so any cell
can be recomputed in isolation and a sweep is reproducible regardless of
worker count or completion order. All cells of one repeat share the repeat's
dataset (seed stable_hash(base_seed, "dataset", repeat)), which pairs the
comparisons across (v, alpha) and cuts variance at desk scale. A cell's
weights start from stable_hash(cell_seed, "init") and its shuffle stream
from the cell seed; the dataset, model, optimizer and walls come from the
same config.py builders a single `train` run uses.

Results land as one JSON file per cell under <out>/cells/; the canonical
CSV is regenerated from those files in grid order, one row per cell plus a
mean row per (v, alpha) aggregating the ok repeats. A cell that fails with
a numeric or other runtime error becomes a row with a status message and
never aborts the sweep; a ConfigError aborts it, since no cell of a bad
config can succeed.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ._container import write_atomic
from .config import (SWEEP_SCHEMA, dataset_from_cfg, model_from_cfg,
                     optimizer_from_cfg, walls_from_cfg)
from .csvio import write_csv
from .errors import ConfigError, VolumizeError
from .linalg import SeededRng, stable_hash
from .training import train_model

SWEEP_CSV_HEADER = ("v", "alpha", "repeat", "seed", "best", "last", "gap", "status")


class SweepSpec:
    """A (v, alpha) grid over typed SWEEP_SCHEMA values, as
    config.apply_schema returns them, plus the seed every cell and dataset
    seed derives from. The config is the only copy of the sweep's settings;
    the dataset, model and optimizer come from the config.py builders."""

    def __init__(self, cfg: dict, base_seed: int):
        missing = sorted(set(SWEEP_SCHEMA) - set(cfg))
        if missing:
            raise ConfigError(f"sweep config lacks keys {missing}")
        if cfg["repeats"] < 1:
            raise ConfigError(f"repeats must be >= 1, got {cfg['repeats']}")
        if not 0.0 <= cfg["noise_ratio"] < 1.0:
            raise ConfigError(f"noise_ratio must be in [0, 1), got {cfg['noise_ratio']}")
        if cfg["epochs"] < 1:
            raise ConfigError(f"epochs must be >= 1, got {cfg['epochs']}")
        if not cfg["v_grid"] or not cfg["alpha_grid"]:
            raise ConfigError("v_grid and alpha_grid must be non-empty")
        self.cfg = dict(cfg)
        self.base_seed = base_seed
        self.v_grid = cfg["v_grid"]
        self.alpha_grid = cfg["alpha_grid"]
        self.repeats = cfg["repeats"]
        # the walls of every grid point, built (and so checked) up front
        self.walls = [[walls_from_cfg({**cfg, "v": v, "alpha": a})
                       for a in self.alpha_grid] for v in self.v_grid]

    def cells(self):
        """Canonical cell order: v-major, then alpha, then repeat."""
        for vi in range(len(self.v_grid)):
            for ai in range(len(self.alpha_grid)):
                for r in range(self.repeats):
                    yield vi, ai, r

    def cell_seed(self, v_idx: int, alpha_idx: int, repeat: int) -> int:
        return stable_hash(self.base_seed, v_idx, alpha_idx, repeat)

    def dataset_seed(self, repeat: int) -> int:
        return stable_hash(self.base_seed, "dataset", repeat)


@dataclass(eq=False)
class CellResult:
    v_idx: int
    alpha_idx: int
    repeat: int
    v: float
    alpha: float
    seed: int
    best: float = float("nan")
    last: float = float("nan")
    gap: float = float("nan")
    status: str = "ok"

    def to_json(self) -> dict:
        return {
            "v_idx": self.v_idx, "alpha_idx": self.alpha_idx,
            "repeat": self.repeat, "seed": self.seed,
            "v": float(self.v).hex(), "alpha": float(self.alpha).hex(),
            "best": float(self.best).hex(), "last": float(self.last).hex(),
            "gap": float(self.gap).hex(), "status": self.status,
        }

    @classmethod
    def from_json(cls, d: dict) -> "CellResult":
        return cls(
            v_idx=d["v_idx"], alpha_idx=d["alpha_idx"], repeat=d["repeat"],
            seed=d["seed"], v=float.fromhex(d["v"]),
            alpha=float.fromhex(d["alpha"]), best=float.fromhex(d["best"]),
            last=float.fromhex(d["last"]), gap=float.fromhex(d["gap"]),
            status=d["status"],
        )


def run_cell(spec: SweepSpec, v_idx: int, alpha_idx: int, repeat: int) -> CellResult:
    """Train one cell. A ConfigError propagates, since the config is bad for
    every cell; any other VolumizeError becomes the cell's status row."""
    walls = spec.walls[v_idx][alpha_idx]
    seed = spec.cell_seed(v_idx, alpha_idx, repeat)
    result = CellResult(v_idx=v_idx, alpha_idx=alpha_idx, repeat=repeat,
                        v=float(walls.v), alpha=float(walls.alpha), seed=seed)
    cfg = spec.cfg
    try:
        data = dataset_from_cfg(cfg, spec.dataset_seed(repeat))
        net = model_from_cfg(cfg, stable_hash(seed, "init"))
        traj = train_model(net, data, optimizer_from_cfg(cfg), walls, SeededRng(seed),
                           epochs=cfg["epochs"], batch_size=cfg["batch_size"])
        result.best = traj.best
        result.last = traj.last
        result.gap = traj.gap
    except ConfigError:
        raise
    except VolumizeError as exc:
        result.status = f"error: {exc}"
    return result


def _cell_path(out_dir: str, vi: int, ai: int, r: int) -> str:
    return os.path.join(out_dir, "cells", f"cell_v{vi}_a{ai}_r{r}.json")


def _read_cell(spec: SweepSpec, path: str, vi: int, ai: int, r: int) -> CellResult:
    """Load a cell file, refusing one computed for another grid or seed."""
    with open(path, encoding="utf-8") as f:
        res = CellResult.from_json(json.load(f))
    want = {"v": float(spec.v_grid[vi]), "alpha": float(spec.alpha_grid[ai]),
            "seed": spec.cell_seed(vi, ai, r)}
    differ = [key for key, value in want.items() if getattr(res, key) != value]
    if differ:
        raise ConfigError(f"{path} belongs to another sweep: {', '.join(differ)} "
                          f"differ from this spec")
    return res


def _run_cell_to_file(args) -> None:
    spec, vi, ai, r, path = args
    write_atomic(path, json.dumps(run_cell(spec, vi, ai, r).to_json(),
                                  sort_keys=True).encode("utf-8"))


def run_sweep(spec: SweepSpec, out_dir: str, workers: int = 1,
              resume: bool = False) -> str:
    """Execute (or finish) a sweep; returns the canonical CSV path.

    With resume=True, cells whose JSON already exists are skipped; without
    it, every cell is recomputed and rewritten. A kept cell whose v, alpha
    or seed differs from this spec's raises ConfigError before any cell
    runs. The CSV is always rebuilt from the cell files in canonical order,
    so its bytes depend only on the spec, never on scheduling.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)
    pending = []
    for vi, ai, r in spec.cells():
        path = _cell_path(out_dir, vi, ai, r)
        if resume and os.path.exists(path):
            _read_cell(spec, path, vi, ai, r)
            continue
        pending.append((spec, vi, ai, r, path))
    if workers == 1 or len(pending) <= 1:
        for args in pending:
            _run_cell_to_file(args)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_run_cell_to_file, pending))

    results = [_read_cell(spec, _cell_path(out_dir, vi, ai, r), vi, ai, r)
               for vi, ai, r in spec.cells()]

    rows = []
    by_cell = {}
    for res in results:
        rows.append({
            "v": res.v, "alpha": res.alpha, "repeat": res.repeat,
            "seed": res.seed, "best": res.best, "last": res.last,
            "gap": res.gap, "status": res.status,
        })
        by_cell.setdefault((res.v_idx, res.alpha_idx), []).append(res)
    for vi in range(len(spec.v_grid)):
        for ai in range(len(spec.alpha_grid)):
            ok = [r for r in by_cell.get((vi, ai), ()) if r.status == "ok"]
            if not ok:
                continue
            k = len(ok)
            rows.append({
                "v": float(spec.v_grid[vi]), "alpha": float(spec.alpha_grid[ai]),
                "repeat": "mean", "seed": "",
                "best": sum(r.best for r in ok) / k,
                "last": sum(r.last for r in ok) / k,
                "gap": sum(r.gap for r in ok) / k,
                "status": f"ok ({k} repeats)",
            })
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_csv(csv_path, SWEEP_CSV_HEADER, rows)
    return csv_path
