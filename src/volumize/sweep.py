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

A cell reports best, last and gap, all three from its per-epoch test
accuracy, so cells train with train_metrics=False: the training split is
never evaluated and the cell's trajectory has empty train lists.

Pending cells run through _pool.map_ordered, on the caller's explicit
worker count (the CLI default is 1), each forked worker writing its cells'
files. A cell that raises, or a worker that dies, starts no further cell;
the cells already written stay for a resume.
Results land as one JSON file per cell under <out>/cells/; the canonical
CSV is regenerated from those files in grid order, one row per cell plus a
mean row per (v, alpha) aggregating the ok repeats. A bad config is
refused when the SweepSpec is built; a cell that fails at run time
becomes a row with a status message and never aborts the sweep.
"""

import json
import os
from dataclasses import dataclass

from ._container import from_record, remove_stale_temps, to_record, write_atomic
from ._pool import map_ordered, require_workers
from .config import (EFFECTIVE_CONFIG, SWEEP_SCHEMA, dataset_from_cfg, model_from_cfg,
                     optimizer_from_cfg, run_from_cfg, walls_from_cfg)
from .csvio import write_csv
from .errors import CheckpointError, ConfigError, VolumizeError
from .linalg import SeededRng, stable_hash
from .training import train_model

SWEEP_CSV_HEADER = ("v", "alpha", "repeat", "seed", "best", "last", "gap", "status")


class SweepSpec:
    """A (v, alpha) grid over typed SWEEP_SCHEMA values, as
    config.apply_schema returns them, plus the seed every cell and dataset
    seed derives from. The config is the only copy of the sweep's settings.
    The config.py builders make every cell's objects, and on construction
    the first cell's run, so a spec refuses what `train` refuses."""

    def __init__(self, cfg: dict, base_seed: int):
        missing = sorted(set(SWEEP_SCHEMA) - set(cfg))
        if missing:
            raise ConfigError(f"sweep config lacks keys {missing}")
        if cfg["repeats"] < 1:
            raise ConfigError(f"repeats must be >= 1, got {cfg['repeats']}")
        if not cfg["v_grid"] or not cfg["alpha_grid"]:
            raise ConfigError("v_grid and alpha_grid must be non-empty")
        self.cfg = dict(cfg)
        self.base_seed = base_seed
        self.v_grid = cfg["v_grid"]
        self.alpha_grid = cfg["alpha_grid"]
        self.repeats = cfg["repeats"]
        self.walls = [[walls_from_cfg({**cfg, "v": v, "alpha": a})
                       for a in self.alpha_grid] for v in self.v_grid]
        seed = self.cell_seed(0, 0, 0)
        run_from_cfg(cfg, self.dataset_seed(0), stable_hash(seed, "init"), seed,
                     self.walls[0][0])

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
    """One cell's outcome; its file under <out>/cells/ is its to_record
    image (volumize._container)."""

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
        return to_record(self)

    @classmethod
    def from_json(cls, d: dict) -> "CellResult":
        return from_record(cls, d)


def run_cell(spec: SweepSpec, v_idx: int, alpha_idx: int, repeat: int) -> CellResult:
    """Train one cell; a VolumizeError, a run-time failure since the spec
    refused every config error, becomes the cell's status row."""
    walls = spec.walls[v_idx][alpha_idx]
    seed = spec.cell_seed(v_idx, alpha_idx, repeat)
    result = CellResult(v_idx=v_idx, alpha_idx=alpha_idx, repeat=repeat,
                        v=float(walls.v), alpha=float(walls.alpha), seed=seed)
    cfg = spec.cfg
    try:
        data = dataset_from_cfg(cfg, spec.dataset_seed(repeat))
        net = model_from_cfg(cfg, stable_hash(seed, "init"))
        traj = train_model(net, data, optimizer_from_cfg(cfg), walls, SeededRng(seed),
                           epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                           train_metrics=False)
        result.best = traj.best
        result.last = traj.last
        result.gap = traj.gap
    except VolumizeError as exc:
        result.status = f"error: {exc}"
    return result


def _cell_path(out_dir: str, vi: int, ai: int, r: int) -> str:
    return os.path.join(out_dir, "cells", f"cell_v{vi}_a{ai}_r{r}.json")


def _read_cell(spec: SweepSpec, path: str, vi: int, ai: int, r: int) -> CellResult:
    """Load a cell file, refusing one computed for another grid or seed and,
    as an integrity error, one that is damaged: unreadable, or naming
    indices other than its file name's beside this spec's seed."""
    try:
        with open(path, encoding="utf-8") as f:
            res = CellResult.from_json(json.load(f))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"integrity: unreadable cell file {path} ({exc})") from exc
    want = {"v": float(spec.v_grid[vi]), "alpha": float(spec.alpha_grid[ai]),
            "seed": spec.cell_seed(vi, ai, r)}
    differ = [key for key, value in want.items() if getattr(res, key) != value]
    if differ:
        raise ConfigError(f"{path} belongs to another sweep: {', '.join(differ)} "
                          f"differ from this spec")
    # the seed derives from the indices, so these can only differ by damage
    named = {"v_idx": vi, "alpha_idx": ai, "repeat": r}
    moved = [key for key, value in named.items() if getattr(res, key) != value]
    if moved:
        raise CheckpointError(f"integrity: cell file {path} records {', '.join(moved)} "
                              f"other than its file name's")
    return res


def _run_cell_to_file(spec: SweepSpec, vi: int, ai: int, r: int, path: str) -> None:
    write_atomic(path, json.dumps(run_cell(spec, vi, ai, r).to_json(),
                                  sort_keys=True).encode("utf-8"))


def run_sweep(spec: SweepSpec, out_dir: str, workers: int = 1,
              resume: bool = False) -> str:
    """Execute (or finish) a sweep; returns the canonical CSV path.

    With resume=True, a killed writer's temp files are deleted and cells
    whose JSON already exists are skipped; without it, every cell is
    recomputed and rewritten. A kept cell whose v, alpha
    or seed differs from this spec's raises ConfigError, and a damaged one
    CheckpointError, before any cell runs. The CSV is always rebuilt from
    the cell files in canonical order, so its bytes depend only on the spec,
    never on scheduling. workers < 1 raises ConfigError before anything
    is created.
    """
    require_workers(workers)
    os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    if resume:
        remove_stale_temps([csv_path, os.path.join(out_dir, EFFECTIVE_CONFIG),
                            *(_cell_path(out_dir, *cell) for cell in spec.cells())])
    pending = []
    for vi, ai, r in spec.cells():
        path = _cell_path(out_dir, vi, ai, r)
        if resume and os.path.exists(path):
            _read_cell(spec, path, vi, ai, r)
            continue
        pending.append((spec, vi, ai, r, path))
    map_ordered(_run_cell_to_file, pending, workers)

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
    write_csv(csv_path, SWEEP_CSV_HEADER, rows)
    return csv_path
