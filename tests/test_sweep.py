"""Grid sweeps: cell seeding, resume, and byte-stable CSV output."""

import json
import os

import pytest

import volumize.sweep as sweep_mod
import volumize.training as training_mod
from volumize import runs
from volumize.cli import main
from volumize.config import (
    SWEEP_SCHEMA,
    TRAIN_SCHEMA,
    apply_schema,
    dataset_from_cfg,
    model_from_cfg,
    optimizer_from_cfg,
)
from volumize.errors import ConfigError, NumericError
from volumize.linalg import SeededRng, stable_hash
from volumize.quantizer import QuantizationScheme, quantized_training
from volumize.training import new_run, train_model
from volumize.volumization import VolumizationConfig
from volumize.sweep import (
    SWEEP_CSV_HEADER,
    CellResult,
    SweepSpec,
    run_cell,
    run_sweep,
)

_SPEC_CFG = {
    "v_grid": "0, 0.5", "alpha_grid": "0, 0.9", "repeats": "2",
    "n_classes": "3", "n_per_class": "25", "dim": "4", "spread": "0.6",
    "hidden_dims": "8", "optimizer": "sgd", "lr": "0.05", "mu": "0.9",
    "epochs": "3", "batch_size": "16",
}


def _spec(base_seed=17, **kw):
    """A small sweep; kw overrides config keys with typed values."""
    raw = {k: ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
           for k, v in kw.items()}
    return SweepSpec(apply_schema({**_SPEC_CFG, **raw}, SWEEP_SCHEMA), base_seed)


def _repeat_dataset(spec, repeat):
    return dataset_from_cfg(spec.cfg, spec.dataset_seed(repeat))


class TestSweepSpec:
    def test_cell_order_is_v_major(self):
        spec = _spec(v_grid=(0.0, 1.0), alpha_grid=(0.5,), repeats=2)
        assert list(spec.cells()) == [
            (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1),
        ]

    def test_cell_seed_is_stable_hash(self):
        spec = _spec()
        assert spec.cell_seed(1, 0, 1) == stable_hash(17, 1, 0, 1)
        assert spec.cell_seed(0, 1, 1) != spec.cell_seed(1, 0, 1)

    def test_dataset_shared_across_cells_of_a_repeat(self):
        spec = _spec()
        a = _repeat_dataset(spec, 0)
        b = _repeat_dataset(spec, 0)
        c = _repeat_dataset(spec, 1)
        assert (a.x_train == b.x_train).all()
        assert not (a.x_train == c.x_train).all()

    def test_noise_applied_to_repeat_dataset(self):
        spec = _spec(noise_ratio=0.4, n_per_class=50)
        d = _repeat_dataset(spec, 0)
        assert d.corrupted_indices.size == int(0.4 * d.n_train)

    @pytest.mark.parametrize("kw", [
        dict(v_grid=()), dict(alpha_grid=()), dict(v_grid=(-0.1,)),
        dict(alpha_grid=(1.5,)), dict(repeats=0), dict(noise_ratio=1.0),
        dict(epochs=0), dict(spread=0.0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            _spec(**kw)

    def test_missing_schema_key_is_config_error(self):
        cfg = dict(_spec().cfg)
        del cfg["batch_size"]
        with pytest.raises(ConfigError, match="batch_size"):
            SweepSpec(cfg, 17)


class TestRunCell:
    def test_cell_is_deterministic(self):
        spec = _spec(repeats=1)
        a = run_cell(spec, 1, 1, 0)
        b = run_cell(spec, 1, 1, 0)
        assert a.status == b.status == "ok"
        assert (a.best, a.last, a.gap) == (b.best, b.last, b.gap)
        assert a.seed == spec.cell_seed(1, 1, 0)
        assert (a.v, a.alpha) == (0.5, 0.9)

    def test_json_round_trip_bitwise(self):
        res = run_cell(_spec(repeats=1), 0, 1, 0)
        back = CellResult.from_json(json.loads(json.dumps(res.to_json())))
        assert (back.best, back.last, back.gap) == (res.best, res.last, res.gap)
        assert back.seed == res.seed
        assert back.status == "ok"

    def test_cell_file_text_is_pinned(self):
        res = CellResult(v_idx=1, alpha_idx=0, repeat=2, v=0.5, alpha=-0.0,
                         seed=12345678901234567890, best=0.75, last=float("nan"),
                         gap=float("-inf"), status="error: diverged")
        assert json.dumps(res.to_json(), sort_keys=True) == (
            '{"alpha": "-0x0.0p+0", "alpha_idx": 0, "best": "0x1.8000000000000p-1", '
            '"gap": "-inf", "last": "nan", "repeat": 2, "seed": 12345678901234567890, '
            '"status": "error: diverged", "v": "0x1.0000000000000p-1", "v_idx": 1}')

    def test_failures_become_status_rows(self, monkeypatch):
        def boom(*a, **kw):
            raise NumericError("non-finite loss at epoch 1")

        monkeypatch.setattr(sweep_mod, "train_model", boom)
        res = run_cell(_spec(repeats=1), 0, 0, 0)
        assert res.status.startswith("error:")
        assert "non-finite" in res.status
        import math
        assert math.isnan(res.best) and math.isnan(res.last)


    def test_config_errors_abort_the_cell(self, monkeypatch):
        def bad(*a, **kw):
            raise ConfigError("batch_size must be >= 1, got 0")

        monkeypatch.setattr(sweep_mod, "train_model", bad)
        with pytest.raises(ConfigError, match="batch_size"):
            run_cell(_spec(repeats=1), 0, 0, 0)


class TestRunSweep:
    def test_csv_bytes_depend_only_on_spec(self, tmp_path):
        spec = _spec()
        p1 = run_sweep(spec, str(tmp_path / "one"))
        p2 = run_sweep(spec, str(tmp_path / "two"))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_csv_shape_and_mean_rows(self, tmp_path):
        spec = _spec()
        path = run_sweep(spec, str(tmp_path / "out"))
        lines = open(path).read().splitlines()
        assert lines[0] == ",".join(SWEEP_CSV_HEADER)
        n_cells = len(spec.v_grid) * len(spec.alpha_grid) * spec.repeats
        n_means = len(spec.v_grid) * len(spec.alpha_grid)
        assert len(lines) == 1 + n_cells + n_means
        mean_rows = [l for l in lines[1:] if ",mean," in l]
        assert len(mean_rows) == n_means
        assert all(f"ok ({spec.repeats} repeats)" in l for l in mean_rows)

    def test_resume_skips_existing_cells(self, tmp_path, monkeypatch):
        spec = _spec(v_grid=(0.5,), alpha_grid=(0.0,), repeats=2)
        out = str(tmp_path / "out")
        run_sweep(spec, out)

        cell0 = os.path.join(out, "cells", "cell_v0_a0_r0.json")
        cell1 = os.path.join(out, "cells", "cell_v0_a0_r1.json")
        os.remove(cell1)
        kept = json.load(open(cell0))

        calls = []
        real = sweep_mod.run_cell

        def spying(spec_, vi, ai, r):
            calls.append((vi, ai, r))
            return real(spec_, vi, ai, r)

        monkeypatch.setattr(sweep_mod, "run_cell", spying)
        run_sweep(spec, out, resume=True)
        assert calls == [(0, 0, 1)]
        assert json.load(open(cell0)) == kept

    def test_without_resume_everything_recomputes(self, tmp_path, monkeypatch):
        spec = _spec(v_grid=(0.5,), alpha_grid=(0.0,), repeats=1)
        out = str(tmp_path / "out")
        run_sweep(spec, out)
        calls = []
        real = sweep_mod.run_cell

        def spying(spec_, vi, ai, r):
            calls.append((vi, ai, r))
            return real(spec_, vi, ai, r)

        monkeypatch.setattr(sweep_mod, "run_cell", spying)
        run_sweep(spec, out)
        assert calls == [(0, 0, 0)]

    def test_resumed_sweep_matches_uninterrupted_csv(self, tmp_path):
        spec = _spec()
        whole = run_sweep(spec, str(tmp_path / "whole"))

        out = str(tmp_path / "partial")
        run_sweep(spec, out)
        # drop half the cells, then finish with resume
        cells = sorted(os.listdir(os.path.join(out, "cells")))
        for name in cells[::2]:
            os.remove(os.path.join(out, "cells", name))
        resumed = run_sweep(spec, out, resume=True)
        assert open(whole, "rb").read() == open(resumed, "rb").read()

    @pytest.mark.parametrize("changed, differ", [
        ({"v_grid": (2.0,), "base_seed": 7}, "v, seed"),
        ({"alpha_grid": (0.5,)}, "alpha"),
        ({"base_seed": 7}, "seed"),
    ], ids=["v-and-seed", "alpha", "seed"])
    def test_resume_refuses_cells_of_another_grid(self, tmp_path, monkeypatch,
                                                  changed, differ):
        first = dict(v_grid=(0.5,), alpha_grid=(0.0,), repeats=1, base_seed=1)
        out = str(tmp_path / "out")
        csv = run_sweep(_spec(**first), out)
        before = open(csv, "rb").read()
        calls = []
        monkeypatch.setattr(sweep_mod, "run_cell", lambda *a: calls.append(a))
        # a second repeat is missing; the kept cell is refused before it runs
        with pytest.raises(ConfigError, match=rf"cell_v0_a0_r0\.json.*: {differ} differ"):
            run_sweep(_spec(**{**first, **changed, "repeats": 2}), out, resume=True)
        assert calls == []
        assert open(csv, "rb").read() == before

    def test_resume_into_another_grid_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_per_class = 10\ndim = 4\nhidden_dims = 8\nepochs = 1\n"
                       "repeats = 1\nv_grid = 0.5\nalpha_grid = 0\n")
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", str(cfg), "--out", out, "--seed", "1"]) == 0
        cfg.write_text(cfg.read_text().replace("v_grid = 0.5", "v_grid = 2"))
        assert main(["sweep", "--config", str(cfg), "--out", out, "--seed", "7",
                     "--resume"]) == 1
        assert "cell_v0_a0_r0.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "gap"}),
        lambda text: json.dumps({**json.loads(text), "best": 0.5}),
    ], ids=["truncated", "missing-gap", "number-for-hex"])
    def test_damaged_cell_on_resume_exits_two(self, tmp_path, capsys, damage):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_per_class = 10\ndim = 4\nhidden_dims = 8\nepochs = 1\n"
                       "repeats = 1\nv_grid = 0.5\nalpha_grid = 0\n")
        out = str(tmp_path / "out")
        argv = ["sweep", "--config", str(cfg), "--out", out, "--seed", "1"]
        assert main(argv) == 0
        cell = os.path.join(out, "cells", "cell_v0_a0_r0.json")
        with open(cell, encoding="utf-8") as f:
            text = f.read()
        with open(cell, "w", encoding="utf-8") as f:
            f.write(damage(text))
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: integrity: unreadable cell file")
        assert "cell_v0_a0_r0.json" in err
        assert "Traceback" not in err

    def test_cell_with_indices_not_its_name_on_resume_exits_two(self, tmp_path, capsys):
        # the seed still matches, so only damage can have moved the indices;
        # kept, the CSV would report repeat 5 and lose the (v, alpha) mean row
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_per_class = 10\ndim = 4\nhidden_dims = 8\nepochs = 1\n"
                       "repeats = 1\nv_grid = 0.5\nalpha_grid = 0\n")
        out = str(tmp_path / "out")
        argv = ["sweep", "--config", str(cfg), "--out", out, "--seed", "1"]
        assert main(argv) == 0
        csv = os.path.join(out, "sweep.csv")
        before = open(csv, "rb").read()
        cell = os.path.join(out, "cells", "cell_v0_a0_r0.json")
        with open(cell, encoding="utf-8") as f:
            record = json.load(f)
        with open(cell, "w", encoding="utf-8") as f:
            json.dump({**record, "repeat": 5, "v_idx": 3}, f)
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: integrity: cell file")
        assert "cell_v0_a0_r0.json" in err and "v_idx, repeat" in err
        assert "Traceback" not in err
        assert open(csv, "rb").read() == before

    def test_error_cells_excluded_from_means(self, tmp_path, monkeypatch):
        spec = _spec(v_grid=(0.5,), alpha_grid=(0.0, 0.9), repeats=1)

        real = sweep_mod.train_model

        def sometimes(net, data, opt_spec, cfg, rng, **kw):
            if cfg.alpha == 0.9:
                raise NumericError("boom")
            return real(net, data, opt_spec, cfg, rng, **kw)

        monkeypatch.setattr(sweep_mod, "train_model", sometimes)
        path = run_sweep(spec, str(tmp_path / "out"))
        lines = open(path).read().splitlines()
        data_rows = lines[1:]
        error_rows = [l for l in data_rows if "error: boom" in l]
        mean_rows = [l for l in data_rows if ",mean," in l]
        assert len(error_rows) == 1  # the failing cell still has a row
        assert len(mean_rows) == 1   # only the ok (v, alpha) gets a mean
        assert mean_rows[0].startswith("0.5,0,")

    def test_workers_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(_spec(), str(tmp_path / "x"), workers=0)

    def test_parallel_matches_serial(self, tmp_path):
        spec = _spec(v_grid=(0.0, 0.5), alpha_grid=(0.5,), repeats=1)
        serial = run_sweep(spec, str(tmp_path / "s"), workers=1)
        parallel = run_sweep(spec, str(tmp_path / "p"), workers=2)
        assert open(serial, "rb").read() == open(parallel, "rb").read()


def _spy_evaluate(monkeypatch, tmp_path):
    """Record the row count of every split training.evaluate sees, in the
    caller or in a forked evaluator alike; the value reads the record."""
    log = tmp_path / "evaluated.txt"
    real = training_mod.evaluate

    def spy(net, x, y, loss="softmax_xent"):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{x.shape[0]}\n")
        return real(net, x, y, loss)

    monkeypatch.setattr(training_mod, "evaluate", spy)
    return lambda: [int(n) for n in log.read_text().split()] if log.exists() else []


class TestTrainingSplit:
    """A cell reads only test metrics, so it never evaluates the training
    split; the runners that write metrics.csv still evaluate both."""

    def test_cell_matches_full_run_on_test_metrics(self, monkeypatch):
        spec = _spec(v_grid=(0.5,), alpha_grid=(0.0,), repeats=1)
        seen = {}
        real = sweep_mod.train_model

        def spy(*args, **kw):
            seen["traj"] = real(*args, **kw)
            return seen["traj"]

        monkeypatch.setattr(sweep_mod, "train_model", spy)
        res = run_cell(spec, 0, 0, 0)
        seed = spec.cell_seed(0, 0, 0)
        full = train_model(model_from_cfg(spec.cfg, stable_hash(seed, "init")),
                           _repeat_dataset(spec, 0), optimizer_from_cfg(spec.cfg),
                           spec.walls[0][0], SeededRng(seed),
                           epochs=spec.cfg["epochs"],
                           batch_size=spec.cfg["batch_size"])
        cell = seen["traj"]
        assert cell.train_loss == [] and cell.train_acc == []
        for name in ("test_loss", "test_acc"):
            assert ([x.hex() for x in getattr(cell, name)]
                    == [x.hex() for x in getattr(full, name)])
        assert len(full.train_loss) == full.n_epochs == cell.n_epochs == 3
        assert ([x.hex() for x in (res.best, res.last, res.gap)]
                == [x.hex() for x in (full.best, full.last, full.gap)])

    def test_cell_evaluates_only_the_test_split(self, monkeypatch, tmp_path):
        spec = _spec(v_grid=(0.5,), alpha_grid=(0.0,), repeats=1)
        seen = _spy_evaluate(monkeypatch, tmp_path)
        assert run_cell(spec, 0, 0, 0).status == "ok"
        data = _repeat_dataset(spec, 0)
        assert seen() == [data.x_test.shape[0]] * spec.cfg["epochs"]
        assert data.x_test.shape[0] != data.x_train.shape[0]

    def test_run_train_evaluates_both_splits(self, tmp_path, monkeypatch):
        raw = {k: v for k, v in _SPEC_CFG.items() if k in TRAIN_SCHEMA}
        cfg = apply_schema({**raw, "epochs": "2", "v": "0.5", "alpha": "0"},
                           TRAIN_SCHEMA)
        seen = _spy_evaluate(monkeypatch, tmp_path)
        _, traj = runs.run_train(cfg, str(tmp_path / "o"), 5)
        data = dataset_from_cfg(cfg, stable_hash(5, "dataset"))
        assert seen() == [data.x_train.shape[0], data.x_test.shape[0]] * 2
        assert len(traj.train_loss) == len(traj.train_acc) == 2

    def test_quantized_training_evaluates_both_splits(self, monkeypatch, tmp_path):
        spec = _spec()
        data = _repeat_dataset(spec, 0)
        seen = _spy_evaluate(monkeypatch, tmp_path)
        run = new_run(model_from_cfg(spec.cfg, 3), optimizer_from_cfg(spec.cfg),
                      VolumizationConfig(v=0.5, alpha=0.0), SeededRng(3), batch_size=16)
        quantized_training(run, data, QuantizationScheme(), 2)
        assert seen() == [data.x_train.shape[0], data.x_test.shape[0]] * 2
        assert len(run.trajectory.train_acc) == 2
