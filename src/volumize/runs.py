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
from .config import (check_theory_cfg, dataset_from_cfg, effective_config_text,
                     model_from_cfg, optimizer_from_cfg, walls_from_cfg)
from .csvio import write_csv
from .errors import ConfigError
from .linalg import SeededRng, stable_hash
from .quantizer import (QuantizationScheme, quantized_training,
                        save_quantized_weights, weight_histogram)
from .spectral import SpectralReport, check_network_lipschitz, contractive_volumes
from .sweep import SweepSpec, run_sweep
from .training import evaluate, new_run, run_epochs
from .volumization import VolumizationConfig


def _write_effective_config(out_dir: str, cfg: dict, extra: dict) -> None:
    write_atomic(os.path.join(out_dir, "effective_config.txt"),
                 effective_config_text({**cfg, **extra}).encode("utf-8"))


# --- theory -------------------------------------------------------------

THEOREM1_HEADER = ("a", "sigma", "v_star", "predicted_min", "mc_error",
                   "mc_stderr", "n_samples", "seed", "within_2pct")
THEOREM3_HEADER = ("a", "sigma", "lambda", "alpha", "predicted", "mc_error",
                   "mc_stderr", "flow_error", "n_samples", "flow_dim", "seed",
                   "mc_within_2pct", "flow_within_5pct")


def run_theory(cfg: dict, out_dir: str, seed: int):
    """Returns (csv_path, all_checks_passed)."""
    check_theory_cfg(cfg)
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg["kind"]
    a = cfg["a"]
    ok = True

    if kind == "theorem1":
        optima, points = [], []
        for i, sigma in enumerate(cfg["sigma_grid"]):
            v_star, predicted = theory.optimal_volume(a, sigma)
            problem = theory.TeacherStudentProblem(
                dim=1, a=a, noise=theory.NoiseSpec("uniform", sigma))
            optima.append((sigma, v_star, predicted))
            points.append((problem, v_star, stable_hash(seed, "t1", i), cfg["n_samples"]))
        header, rows = THEOREM1_HEADER, []
        ests = theory.estimate_points(theory.clip_error_mc, points)
        for (sigma, v_star, predicted), est in zip(optima, ests):
            good = abs(est.value - predicted) <= 0.02 * predicted
            ok = ok and good
            rows.append({"a": a, "sigma": sigma, "v_star": v_star,
                         "predicted_min": predicted, "mc_error": est.value,
                         "mc_stderr": est.stderr, "n_samples": est.n_samples,
                         "seed": seed, "within_2pct": good})

    elif kind == "fig4a":
        sigmas = cfg["sigma_grid"]
        vols = np.linspace(0.0, cfg["v_max"], cfg["v_grid_points"])
        cell = float(vols[1] - vols[0])
        mcs = theory.mc_curves(a, sigmas, vols,
                               [stable_hash(seed, "f4a", i) for i in range(len(sigmas))],
                               cfg["n_samples"])
        header, rows = theory.CURVE_CSV_HEADER, []
        for sigma, mc in zip(sigmas, mcs):
            rows.extend(theory.closed_form_curve(a, sigma, vols).rows())
            rows.extend(mc.rows())
            good = abs(mc.argmin_vol() - (a - sigma / 2.0)) <= cell + 1e-12
            ok = ok and good

    elif kind == "fig4b":
        curves = theory.cauchy_comparison(a=a, scale=cfg["sigma"],
                                          n_samples=cfg["n_samples"], seed=seed)
        header, rows = theory.CURVE_CSV_HEADER, [r for c in curves for r in c.rows()]
        *unreg, decay, walls = curves
        best = float(walls.errors.min())
        # |clip(u', V) - u| <= a + V for every draw, so no wall row may pass (a+V)^2
        bounded = all(float(e) <= (a + float(v)) ** 2 for v, e in zip(walls.vols, walls.errors))
        ok = (best < a * a / 3.0
              and decay.errors[0] == a * a / 3.0
              and unreg[-1].errors[0] > 10.0 * best
              and bounded)

    elif kind == "theorem3":
        sigma = cfg["sigma"]
        step = 0.1
        lams = cfg["lambda_grid"]
        problem = theory.TeacherStudentProblem(
            dim=cfg["flow_dim"], a=a, noise=theory.NoiseSpec("uniform", sigma))
        alphas = [theory.alpha_for_weight_decay(lam, step) for lam in lams]
        points = [(a, sigma, lam, stable_hash(seed, "t3", i), cfg["n_samples"])
                  for i, lam in enumerate(lams)]
        # the flows first, each iteration split across two CPUs when they are
        # there, then the estimates on every CPU: estimates run beside the
        # split flows slowed their iterations, three processes on two CPUs
        with theory.flow_space(problem.dim) as space:
            flow_errors = [
                theory.gradient_flow_sim(problem, 0.0, alpha,
                                         SeededRng(stable_hash(seed, "t3-flow", i)),
                                         step=step, space=space).error
                for i, alpha in enumerate(alphas)]
        ests = theory.estimate_points(theory.weight_decay_error_mc, points)
        header, rows = THEOREM3_HEADER, []
        for lam, alpha, est, flow_error in zip(lams, alphas, ests, flow_errors):
            # lam = inf is the constant student's limit, inf/inf in the formula
            predicted = (a * a / 3.0 if lam == np.inf else
                         (sigma * sigma + lam * lam * a * a) / (3.0 * (1.0 + lam) ** 2))
            mc_good = abs(est.value - predicted) <= 0.02 * predicted
            flow_good = abs(flow_error - predicted) <= 0.05 * predicted
            ok = ok and mc_good and flow_good
            rows.append({"a": a, "sigma": sigma, "lambda": lam, "alpha": alpha,
                         "predicted": predicted, "mc_error": est.value,
                         "mc_stderr": est.stderr, "flow_error": flow_error,
                         "n_samples": est.n_samples, "flow_dim": cfg["flow_dim"],
                         "seed": seed, "mc_within_2pct": mc_good,
                         "flow_within_5pct": flow_good})

    else:  # pragma: no cover - schema rejects other kinds
        raise ConfigError(f"unknown theory kind {kind!r}")

    path = os.path.join(out_dir, f"{kind}.csv")
    write_csv(path, header, rows)
    _write_effective_config(out_dir, cfg, {"seed": seed})
    return path, ok


# --- training-style runners ----------------------------------------------

METRICS_HEADER = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc")


def _fresh_run(cfg: dict, seed: int, walls=None, vols=None):
    """(dataset, a new TrainingRun) built from cfg with the seeds named in
    the module docstring.

    walls, a VolumizationConfig, replaces the config's walls, and vols,
    when given, maps the net to its walls (new_run's vols). A config value
    that no run accepts raises ConfigError or DomainError here."""
    if cfg["epochs"] < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg['epochs']}")
    data = dataset_from_cfg(cfg, stable_hash(seed, "dataset"))
    net = model_from_cfg(cfg, stable_hash(seed, "init"))
    run = new_run(net, optimizer_from_cfg(cfg),
                  walls_from_cfg(cfg) if walls is None else walls,
                  SeededRng(stable_hash(seed, "train")), batch_size=cfg["batch_size"],
                  vols=None if vols is None else vols(net))
    return data, run


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
    every = cfg["checkpoint_every"]
    if every < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {every}")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    # the fresh run is built under --resume too, so a config that no run
    # accepts is refused either way, and a refused config leaves no --out
    data, run = _fresh_run(cfg, seed)
    if resume and os.path.exists(ckpt_path):
        run = load_checkpoint(ckpt_path)
    os.makedirs(out_dir, exist_ok=True)

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
    data, run = _fresh_run(cfg, seed)
    scheme = QuantizationScheme(mode=cfg["mode"], period_epochs=cfg["period_epochs"])
    quantized, rounding_epochs = quantized_training(run, data, scheme, cfg["epochs"])
    # quantized_training refuses inactive walls, so --out is made only now
    os.makedirs(out_dir, exist_ok=True)
    path = _write_trajectory(out_dir, run.trajectory)

    # the final epoch never rounds, so its test accuracy is run.net's
    float_acc = run.trajectory.test_acc[-1]
    _, quant_acc = evaluate(quantized, data.x_test, data.y_test)
    save_quantized_weights(os.path.join(out_dir, "weights.vzqw"), quantized.param_tensors(),
                           [run.vols[i] for i, _, _ in quantized.layer_tensors()],
                           scheme.mode)

    hists = weight_histogram(run.net, run.vols)
    write_csv(os.path.join(out_dir, "walls.csv"),
              ("layer", "vol", "mass_near_walls"),
              [{"layer": h.layer, "vol": h.vol,
                "mass_near_walls": h.mass_near_walls} for h in hists])
    _write_summary(out_dir, [
        ("float_test_acc", float_acc), ("quantized_test_acc", quant_acc),
        ("accuracy_ratio", quant_acc / float_acc if float_acc > 0 else float("nan")),
        ("quantize_events", len(rounding_epochs)),
        ("best", run.trajectory.best), ("last", run.trajectory.last),
        ("gap", run.trajectory.gap),
    ])
    _write_effective_config(out_dir, cfg, {"seed": seed})
    return path, float_acc, quant_acc


def run_spectral(cfg: dict, out_dir: str, seed: int):
    """Train at alpha=0 with contractive walls, then audit the bounds.
    Returns (layers_csv_path, LipschitzReport)."""
    data, run = _fresh_run(cfg, seed, VolumizationConfig(v=1.0, alpha=0.0),
                           contractive_volumes)
    if cfg["probe_pairs"] < 1:
        raise ConfigError(f"probe_pairs must be >= 1, got {cfg['probe_pairs']}")
    os.makedirs(out_dir, exist_ok=True)
    run_epochs(run, data, cfg["epochs"])
    report = check_network_lipschitz(run.net, seed=stable_hash(seed, "probes"),
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
    csv_path = run_sweep(spec, out_dir, workers=workers, resume=resume)
    _write_effective_config(out_dir, cfg, {"seed": seed, "workers": workers})
    return csv_path
