"""Batch runners behind the CLI subcommands.

Each runner takes a typed config dict (see config.py schemas), a target
directory, and a seed; it writes CSVs plus an effective-config echo and
returns what the CLI needs for its exit code. All outputs are deterministic
in (config, seed).

The config.py builders make the dataset, model, optimizer and walls; the
runners only derive their seeds: stable_hash(seed, "dataset") for the data,
stable_hash(seed, "init") for the weights and stable_hash(seed, "train") for
the shuffle stream. A sweep hands its cells the same builders (sweep.py).
"""

import os

import numpy as np

from . import theory
from ._container import write_atomic
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (dataset_from_cfg, effective_config_text, model_from_cfg,
                     optimizer_from_cfg, walls_from_cfg)
from .csvio import write_csv
from .errors import ConfigError
from .linalg import SeededRng, stable_hash
from .quantizer import (QuantizationScheme, quantized_training,
                        save_quantized_weights, weight_histogram)
from .spectral import SpectralReport, check_network_lipschitz, contractive_volumes
from .sweep import SweepSpec, run_sweep
from .training import evaluate, new_run, run_epochs
from .volumization import VolumizationConfig, derive_layer_volumes


def _write_effective_config(out_dir: str, cfg: dict, extra: dict) -> None:
    write_atomic(os.path.join(out_dir, "effective_config.txt"),
                 effective_config_text({**cfg, **extra}).encode("utf-8"))


def _ensure_out(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)


# --- theory -------------------------------------------------------------

THEOREM1_HEADER = ("a", "sigma", "v_star", "predicted_min", "mc_error",
                   "mc_stderr", "n_samples", "seed", "within_2pct")
THEOREM3_HEADER = ("a", "sigma", "lambda", "alpha", "predicted", "mc_error",
                   "mc_stderr", "flow_error", "n_samples", "flow_dim", "seed",
                   "mc_within_2pct", "flow_within_5pct")


def _v_grid(cfg: dict) -> np.ndarray:
    pts = cfg["v_grid_points"]
    if pts < 2:
        raise ConfigError(f"v_grid_points must be >= 2, got {pts}")
    if not cfg["v_max"] > 0:
        raise ConfigError(f"v_max must be positive, got {cfg['v_max']}")
    return np.linspace(0.0, cfg["v_max"], pts)


def run_theory(cfg: dict, out_dir: str, seed: int):
    """Returns (csv_path, all_checks_passed)."""
    _ensure_out(out_dir)
    kind = cfg["kind"]
    a = cfg["a"]
    ok = True

    if kind == "theorem1":
        rows = []
        for i, sigma in enumerate(cfg["sigma_grid"]):
            v_star, predicted = theory.optimal_volume(a, sigma)
            problem = theory.TeacherStudentProblem(
                dim=1, a=a, noise=theory.NoiseSpec("uniform", sigma))
            est = theory.clip_error_mc(problem, v_star,
                                       SeededRng(stable_hash(seed, "t1", i)),
                                       cfg["n_samples"])
            good = abs(est.value - predicted) <= 0.02 * predicted
            ok = ok and good
            rows.append({"a": a, "sigma": sigma, "v_star": v_star,
                         "predicted_min": predicted, "mc_error": est.value,
                         "mc_stderr": est.stderr, "n_samples": est.n_samples,
                         "seed": seed, "within_2pct": good})
        path = os.path.join(out_dir, "theorem1.csv")
        write_csv(path, THEOREM1_HEADER, rows)

    elif kind == "fig4a":
        vols = _v_grid(cfg)
        cell = float(vols[1] - vols[0])
        rows = []
        for i, sigma in enumerate(cfg["sigma_grid"]):
            closed = theory.closed_form_curve(a, sigma, vols)
            mc = theory.mc_curve(a, sigma, vols, stable_hash(seed, "f4a", i),
                                 cfg["n_samples"])
            rows.extend(closed.rows())
            rows.extend(mc.rows())
            good = abs(mc.argmin_vol() - (a - sigma / 2.0)) <= cell + 1e-12
            ok = ok and good
        path = os.path.join(out_dir, "fig4a.csv")
        write_csv(path, theory.CURVE_CSV_HEADER, rows)

    elif kind == "fig4b":
        table = theory.cauchy_comparison(a=a, scale=cfg["sigma"],
                                         n_samples=cfg["n_samples"], seed=seed)
        path = os.path.join(out_dir, "fig4b.csv")
        write_csv(path, theory.CURVE_CSV_HEADER, list(table.csv_rows()))
        best = table.best_volumization()
        unreg = [r for r in table.rows if r.method == "unregularized"]
        constant = [r for r in table.rows if r.method == "weight_decay"][0]
        ok = (best.error < a * a / 3.0
              and constant.error == a * a / 3.0
              and unreg[-1].error > 10.0 * best.error)

    elif kind == "theorem3":
        sigma = cfg["sigma"]
        step = 0.1
        rows = []
        for i, lam in enumerate(cfg["lambda_grid"]):
            predicted = (sigma * sigma + lam * lam * a * a) / (3.0 * (1.0 + lam) ** 2)
            est = theory.weight_decay_error_mc(
                a, sigma, lam, SeededRng(stable_hash(seed, "t3", i)),
                cfg["n_samples"])
            alpha = theory.alpha_for_weight_decay(lam, step)
            problem = theory.TeacherStudentProblem(
                dim=cfg["flow_dim"], a=a, noise=theory.NoiseSpec("uniform", sigma))
            flow = theory.gradient_flow_sim(
                problem, 0.0, alpha, SeededRng(stable_hash(seed, "t3-flow", i)),
                step=step)
            mc_good = abs(est.value - predicted) <= 0.02 * predicted
            flow_good = abs(flow.error - predicted) <= 0.05 * predicted
            ok = ok and mc_good and flow_good
            rows.append({"a": a, "sigma": sigma, "lambda": lam, "alpha": alpha,
                         "predicted": predicted, "mc_error": est.value,
                         "mc_stderr": est.stderr, "flow_error": flow.error,
                         "n_samples": est.n_samples, "flow_dim": cfg["flow_dim"],
                         "seed": seed, "mc_within_2pct": mc_good,
                         "flow_within_5pct": flow_good})
        path = os.path.join(out_dir, "theorem3.csv")
        write_csv(path, THEOREM3_HEADER, rows)

    else:  # pragma: no cover - schema rejects other kinds
        raise ConfigError(f"unknown theory kind {kind!r}")

    _write_effective_config(out_dir, cfg, {"seed": seed})
    return path, ok


# --- training-style runners ----------------------------------------------

METRICS_HEADER = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc")


def _require_epochs(cfg: dict) -> None:
    if cfg["epochs"] < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg['epochs']}")


def _write_trajectory(out_dir: str, traj) -> str:
    rows = [
        {"epoch": e + 1, "train_loss": traj.train_loss[e],
         "train_acc": traj.train_acc[e], "test_loss": traj.test_loss[e],
         "test_acc": traj.test_acc[e]}
        for e in range(traj.n_epochs)
    ]
    path = os.path.join(out_dir, "metrics.csv")
    write_csv(path, METRICS_HEADER, rows)
    return path


def _write_summary(out_dir: str, pairs) -> str:
    path = os.path.join(out_dir, "summary.csv")
    write_csv(path, ("key", "value"), [{"key": k, "value": v} for k, v in pairs])
    return path


def run_train(cfg: dict, out_dir: str, seed: int, resume: bool = False):
    """Returns (metrics_path, trajectory). --resume continues a run from
    <out>/checkpoint.bin toward the configured total epoch count."""
    _require_epochs(cfg)
    _ensure_out(out_dir)
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    data = dataset_from_cfg(cfg, stable_hash(seed, "dataset"))
    if resume and os.path.exists(ckpt_path):
        run = load_checkpoint(ckpt_path)
    else:
        run = new_run(model_from_cfg(cfg, stable_hash(seed, "init")),
                      optimizer_from_cfg(cfg), walls_from_cfg(cfg),
                      SeededRng(stable_hash(seed, "train")),
                      batch_size=cfg["batch_size"])
    every = cfg["checkpoint_every"]

    def hook(net_, state_, epoch: int) -> None:
        if every > 0 and epoch % every == 0:
            save_checkpoint(ckpt_path, run)

    remaining = cfg["epochs"] - run.epoch
    if remaining < 0:
        raise ConfigError(
            f"checkpoint already has {run.epoch} epochs, config asks for {cfg['epochs']}")
    run_epochs(run, data, remaining, epoch_hook=hook)
    save_checkpoint(ckpt_path, run)
    path = _write_trajectory(out_dir, run.trajectory)
    _write_summary(out_dir, [
        ("best", run.trajectory.best), ("last", run.trajectory.last),
        ("gap", run.trajectory.gap), ("epochs", run.epoch),
        ("short_run", run.trajectory.short_run),
    ])
    _write_effective_config(out_dir, cfg, {"seed": seed})
    return path, run.trajectory


def run_quantize(cfg: dict, out_dir: str, seed: int):
    """Returns (metrics_path, float accuracy, quantized accuracy)."""
    _require_epochs(cfg)
    _ensure_out(out_dir)
    data = dataset_from_cfg(cfg, stable_hash(seed, "dataset"))
    net = model_from_cfg(cfg, stable_hash(seed, "init"))
    vol_cfg = walls_from_cfg(cfg)
    scheme = QuantizationScheme(mode=cfg["mode"], period_epochs=cfg["period_epochs"])
    result = quantized_training(net, data, optimizer_from_cfg(cfg), vol_cfg, scheme,
                                SeededRng(stable_hash(seed, "train")),
                                epochs=cfg["epochs"], batch_size=cfg["batch_size"])
    path = _write_trajectory(out_dir, result.trajectory)

    _, float_acc = evaluate(result.float_net, data.x_test, data.y_test)
    _, quant_acc = evaluate(result.quantized_net, data.x_test, data.y_test)
    vols = derive_layer_volumes(result.quantized_net, vol_cfg)
    save_quantized_weights(os.path.join(out_dir, "weights.vzqw"),
                           result.quantized_net.param_tensors(), vols, scheme.mode)

    hists = weight_histogram(result.float_net, vols)
    write_csv(os.path.join(out_dir, "walls.csv"),
              ("layer", "vol", "mass_near_walls"),
              [{"layer": h.layer, "vol": h.vol,
                "mass_near_walls": h.mass_near_walls} for h in hists])
    _write_summary(out_dir, [
        ("float_test_acc", float_acc), ("quantized_test_acc", quant_acc),
        ("accuracy_ratio", quant_acc / float_acc if float_acc > 0 else float("nan")),
        ("quantize_events", len(result.quantize_epochs)),
        ("best", result.trajectory.best), ("last", result.trajectory.last),
        ("gap", result.trajectory.gap),
    ])
    _write_effective_config(out_dir, cfg, {"seed": seed})
    return path, float_acc, quant_acc


def run_spectral(cfg: dict, out_dir: str, seed: int):
    """Train at alpha=0 with contractive walls, then audit the bounds.
    Returns (layers_csv_path, LipschitzReport)."""
    _ensure_out(out_dir)
    data = dataset_from_cfg(cfg, stable_hash(seed, "dataset"))
    net = model_from_cfg(cfg, stable_hash(seed, "init"))
    vol_cfg = VolumizationConfig(v=1.0, alpha=0.0, fan_mode=cfg["fan_mode"])
    run = new_run(net, optimizer_from_cfg(cfg), vol_cfg,
                  SeededRng(stable_hash(seed, "train")),
                  batch_size=cfg["batch_size"], vols=contractive_volumes(net))
    run_epochs(run, data, cfg["epochs"])
    report = check_network_lipschitz(net, seed=stable_hash(seed, "probes"),
                                     n_pairs=cfg["probe_pairs"])
    layers_path = os.path.join(out_dir, "layers.csv")
    write_csv(layers_path, SpectralReport.CSV_HEADER,
              [r.csv_row() for r in report.layer_reports])
    _write_summary(out_dir, [
        ("smax_product", report.smax_product),
        ("empirical_lipschitz", report.empirical),
        ("product_within_one", report.product_within_one),
        ("empirical_within_product", report.empirical_within_product),
        ("ok", report.ok),
    ])
    _write_effective_config(out_dir, cfg, {"seed": seed})
    return layers_path, report


def run_sweep_cmd(cfg: dict, out_dir: str, seed: int, workers: int = 1,
                  resume: bool = False):
    spec = SweepSpec(cfg, base_seed=seed)
    _ensure_out(out_dir)
    csv_path = run_sweep(spec, out_dir, workers=workers, resume=resume)
    _write_effective_config(out_dir, cfg, {"seed": seed, "workers": workers})
    return csv_path
