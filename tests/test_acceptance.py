"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints a single `[criterion NN] PASS/FAIL  <detail>` line (the
line bypasses capture so it shows up in any pytest invocation) and then
asserts. The tolerances are part of the contract; a red criterion means the
implementation is wrong, not that the number here needs loosening.

Budget: the MC sweeps and the 100-epoch trainings dominate; the whole gate
runs in a few minutes of wall time.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from volumize import (
    GradientBundle,
    LayerSpec,
    NoiseSpec,
    OptimizerSpec,
    OptimizerState,
    QuantizationScheme,
    SeededRng,
    SweepSpec,
    TeacherStudentProblem,
    VolumizationConfig,
    alpha_for_weight_decay,
    cauchy_comparison,
    check_entrywise_bound,
    check_network_lipschitz,
    clip_error_mc,
    contractive_volumes,
    derive_layer_volumes,
    evaluate,
    gen_blobs,
    gradient_flow_sim,
    init_network,
    inject_label_noise,
    load_checkpoint,
    loss_and_grad,
    mc_curve,
    new_run,
    optimal_volume,
    quantize,
    quantized_training,
    run_epochs,
    run_sweep,
    save_checkpoint,
    stable_hash,
    step,
    train_model,
    weight_decay_error_mc,
    weight_histogram,
)
from volumize.config import SWEEP_SCHEMA, apply_schema


@pytest.fixture
def report(capsys):
    def emit(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {verdict}  {detail}")
        assert ok, f"criterion {num:02d} failed: {detail}"

    return emit


def test_01_mc_hits_the_closed_form_minimum(report):
    worst = 0.0
    for i, sigma in enumerate((0.25, 0.5, 1.0)):
        vol, want = optimal_volume(1.0, sigma)
        problem = TeacherStudentProblem(dim=1, a=1.0, noise=NoiseSpec("uniform", sigma))
        est = clip_error_mc(problem, vol, SeededRng(stable_hash(101, i)), 10**7)
        worst = max(worst, abs(est.value - want) / want)
    report(1, worst < 0.02,
           f"MC at the optimal wall vs closed form, sigma in {{0.25, 0.5, 1.0}}: "
           f"worst rel err {worst:.2e} (tol 2e-2)")


def test_02_error_dips_strictly_between_the_walls(report):
    sigma = 0.5
    base = sigma * sigma / 3.0
    curve = mc_curve(1.0, sigma, np.linspace(0.0, 2.0, 41), seed=202, n_samples=10**7)
    # classify grid points by index, not by float value: i*0.05 rounding
    # must not decide which side of 0.5 or 1.5 a point lands on
    inside_ok = True
    flat_ok = True
    margin = math.inf
    for i in range(41):
        err, se = float(curve.errors[i]), float(curve.stderrs[i])
        if 11 <= i <= 29:  # V in [0.55, 1.45]
            inside_ok = inside_ok and err < base - 3.0 * se
            margin = min(margin, base - 3.0 * se - err)
        elif i >= 30:  # V >= 1.5: the wall is never active
            flat_ok = flat_ok and abs(err - base) <= 3.0 * se
    report(2, inside_ok and flat_ok,
           f"41-point grid: below sigma^2/3 by >= 3*SE inside (0.5, 1.5), "
           f"min margin {margin:.2e}; within 3*SE of sigma^2/3 at V >= 1.5: {flat_ok}")


def test_03_mc_argmin_tracks_the_optimal_wall(report):
    grid = np.linspace(0.0, 2.0, 41)
    cell = float(grid[1] - grid[0])
    worst = 0.0
    for k in range(1, 11):
        sigma = k / 10.0
        curve = mc_curve(1.0, sigma, grid, seed=stable_hash(303, k), n_samples=10**6)
        want, _ = optimal_volume(1.0, sigma)
        worst = max(worst, abs(curve.argmin_vol() - want))
    report(3, worst <= cell + 1e-12,
           f"argmin of the MC curve within one grid cell of a - sigma/2 for "
           f"sigma = 0.1 .. 1.0: worst offset {worst:.3f} (cell {cell})")


def test_04_shrinkage_oracle_and_flow_agree(report):
    want = 1.0 / 6.0
    est = weight_decay_error_mc(1.0, 1.0, 1.0, SeededRng(404), 10**7)
    rel_mc = abs(est.value - want) / want

    step_size = 0.1
    problem = TeacherStudentProblem(dim=200000, a=1.0, noise=NoiseSpec("uniform", 1.0))
    res = gradient_flow_sim(problem, 0.0, alpha_for_weight_decay(1.0, step_size),
                            SeededRng(405), step=step_size)
    rel_flow = abs(res.error - want) / want
    report(4, rel_mc < 0.02 and rel_flow < 0.05 and res.converged,
           f"decay error 1/6: MC rel err {rel_mc:.2e} (tol 2e-2), "
           f"V=0 flow rel err {rel_flow:.2e} (tol 5e-2, converged={res.converged})")


def test_05_walls_stay_bounded_under_heavy_tails(report):
    curves = cauchy_comparison(a=1.0, scale=1.0, n_samples=10**6, seed=505)
    best = float(min(c.errors.min() for c in curves if c.method == "volumization"))
    decay = [c for c in curves if c.method == "weight_decay"]
    unreg = sorted((c for c in curves if c.method == "unregularized"),
                   key=lambda c: c.n_samples)
    third = 1.0 / 3.0
    ok = (best < third
          and len(decay) == 1 and list(decay[0].errors) == [third]
          and unreg[-1].errors[0] > 10.0 * best
          and unreg[-1].errors[0] > unreg[0].errors[0])
    report(5, ok,
           f"cauchy noise: best wall error {best:.4f} < 1/3, constant model "
           f"exactly 1/3, unregularized grows {unreg[0].errors[0]:.1f} -> "
           f"{unreg[-1].errors[0]:.1f} with sample count (> 10x walls)")


# -- criterion 6 machinery: scalar oracles mirroring the kernels' op order --

def _scalar_update(kind, spec, t, w, m, n, g):
    if kind == "sgd":
        m = spec.mu * m
        m = m + g
        w = w - spec.lr * m
        return w, m, n
    cm = 1.0 - spec.mu ** t
    cn = 1.0 - spec.nu ** t
    n = spec.nu * n
    n = n + (1.0 - spec.nu) * g * g
    denom = math.sqrt(n / cn)
    denom = denom + spec.eps
    if kind == "adam":
        m = spec.mu * m
        m = m + (1.0 - spec.mu) * g
        w = w - spec.lr * (m / cm) / denom
    else:
        m = spec.mu * m
        m = m + (1.0 - spec.mu) * (g / denom)
        w = w - spec.lr * (m / cm)
    return w, m, n


def _scalar_wall(mode, w, m, vol, alpha):
    if mode == "identity":
        return w, m
    if mode == "scale":
        # V = 0: every nonzero weight sits beyond the wall
        if w != 0.0:
            return alpha * w, alpha * m
        return w, m
    # alpha = 0: hard clip; the crossed momentum picks up 0.0 * m so the
    # zero keeps m's sign bit, same as the kernel
    if abs(w) > vol:
        return min(max(w, -vol), vol), 0.0 * m
    return w, m


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _trajectory_matches(kind, mode, vol, alpha, n_steps=1000):
    spec = OptimizerSpec(kind=kind, lr=0.15, mu=0.9, nu=0.99, eps=1e-8)
    net = init_network([LayerSpec(1, 1)], SeededRng(606))
    state = OptimizerState.init_for(net, spec)
    vols = (vol,)  # one wall for the layer's weight and bias
    w, b = float(net.layers[0].w[0, 0]), float(net.layers[0].b[0])
    mw = mb = nw = nb = 0.0
    for t in range(1, n_steps + 1):
        gw = math.sin(0.7 * t + 0.3)
        gb = 0.5 * math.cos(1.3 * t)
        bundle = GradientBundle(loss=0.0, grad=np.array([gw, gb]))
        step(net, bundle, state, spec, vols=vols, alpha=alpha)
        w, mw, nw = _scalar_update(kind, spec, t, w, mw, nw, gw)
        b, mb, nb = _scalar_update(kind, spec, t, b, mb, nb, gb)
        w, mw = _scalar_wall(mode, w, mw, vol, alpha)
        b, mb = _scalar_wall(mode, b, mb, vol, alpha)
        ok = (_same_bits(w, net.layers[0].w[0, 0])
              and _same_bits(b, net.layers[0].b[0])
              and _same_bits(mw, state.m[0])
              and _same_bits(mb, state.m[1]))
        if kind != "sgd":
            ok = (ok and _same_bits(nw, state.n[0])
                  and _same_bits(nb, state.n[1]))
        if not ok:
            return False
    return True


def test_06_wall_special_cases_are_exact(report):
    cases = (("scale", 0.0, 0.7), ("clip", 0.4, 0.0), ("identity", 0.4, 1.0))
    bad = [f"{kind}/{mode}"
           for kind in ("sgd", "adam", "laprop")
           for mode, vol, alpha in cases
           if not _trajectory_matches(kind, mode, vol, alpha)]
    report(6, not bad,
           "1000-step trajectories bitwise equal to scalar oracles for "
           "{sgd, adam, laprop} x {V=0 scaling, alpha=0 clip, alpha=1 identity}"
           + (f"; mismatches: {bad}" if bad else ""))


def test_07_random_matrices_respect_both_norm_bounds(report):
    rng = np.random.default_rng(707)
    gap_sqrt = gap_max = -math.inf
    ok = True
    for _ in range(1000):
        r = int(rng.integers(1, 65))
        c = int(rng.integers(1, 65))
        vol = float(rng.uniform(0.02, 3.0))
        w = vol * (2.0 * rng.random((r, c)) - 1.0)
        rep = check_entrywise_bound(w, vol)
        ok = ok and rep.entries_in_volume and rep.within_sqrt and rep.within_max
        gap_sqrt = max(gap_sqrt, rep.smax - rep.bound_sqrt)
        gap_max = max(gap_max, rep.smax - rep.bound_max)
    report(7, ok,
           f"1000 matrices up to 64x64, mixed V: smax - V*sqrt(r*c) <= "
           f"{gap_sqrt:.2e}, smax - V*max(r, c) <= {gap_max:.2e} (tol 1e-8)")


def test_08_contractive_walls_keep_unit_lipschitz(report):
    rng = SeededRng(stable_hash(808, "contractive"))
    data = gen_blobs(rng.spawn("blobs"), n_classes=4, n_per_class=40, dim=6,
                     spread=1.0)
    net = init_network([LayerSpec(6, 16, activation="relu"),
                        LayerSpec(16, 16, activation="relu"),
                        LayerSpec(16, 4)], rng.spawn("init"))
    run = new_run(net, OptimizerSpec(kind="sgd", lr=0.05),
                  VolumizationConfig(v=1.0, alpha=0.0), rng, batch_size=16,
                  vols=contractive_volumes(net))
    run_epochs(run, data, 125)  # 128 train points / 16 = 8 steps per epoch
    assert run.opt_state.t == 1000
    rep = check_network_lipschitz(net, n_pairs=10**4)
    ok = rep.smax_product <= 1.0 + 1e-6 and rep.empirical <= 1.0 + 1e-6
    report(8, ok,
           f"3 relu layers, 1000 steps at walls 1/max(dims): smax product "
           f"{rep.smax_product:.8f}, empirical {rep.empirical:.8f} (both <= 1 + 1e-6)")


# -- criterion 9 machinery: self-contained central differences --

def _flat_params(net):
    return np.concatenate([t.ravel() for _, t in net.param_tensors()])


def _set_flat_params(net, flat):
    pos = 0
    for _, t in net.param_tensors():
        t[...] = flat[pos:pos + t.size].reshape(t.shape)
        pos += t.size


def _fd_gradient(net, x, target, loss, eps=1e-6):
    theta = _flat_params(net).copy()
    g = np.empty_like(theta)
    for i in range(theta.size):
        theta[i] += eps
        _set_flat_params(net, theta)
        up = loss_and_grad(net, x, target, loss).loss
        theta[i] -= 2.0 * eps
        _set_flat_params(net, theta)
        down = loss_and_grad(net, x, target, loss).loss
        theta[i] += eps
        g[i] = (up - down) / (2.0 * eps)
    _set_flat_params(net, theta)
    return g


def _kink_free_batch(net, rng, n=4, margin=1e-3):
    # relu only: central differences are meaningless across a kink, so
    # redraw until every pre-activation clears the margin
    for _ in range(200):
        x = rng.standard_normal((n, net.in_dim))
        h, ok = x, True
        for layer in net.layers:
            z = h @ layer.w + layer.b
            ok = ok and float(np.abs(z).min()) > margin
            h = np.maximum(z, 0.0)
        if ok:
            return x
    raise AssertionError("could not build a kink-free batch")


def test_09_gradients_match_finite_differences(report):
    rng = np.random.default_rng(909)
    worst = 0.0
    for activation in ("identity", "relu", "tanh"):
        for loss in ("mse", "softmax_xent"):
            net = init_network(
                [LayerSpec(4, 6, activation=activation), LayerSpec(6, 3)],
                SeededRng(stable_hash(909, activation, loss)))
            if activation == "relu":
                x = _kink_free_batch(net, rng)
            else:
                x = rng.standard_normal((4, 4))
            if loss == "mse":
                target = rng.standard_normal((4, 3))
            else:
                target = rng.integers(0, 3, 4)
            got = loss_and_grad(net, x, target, loss).grad
            want = _fd_gradient(net, x, target, loss)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-4)
            worst = max(worst, float(rel.max()))
    report(9, worst < 1e-5,
           f"every activation x loss, both layers: worst FD rel err "
           f"{worst:.2e} (tol 1e-5)")


def _noisy_blobs_trajectory(repeat, cfg):
    rng = SeededRng(stable_hash(42, "c10", repeat))
    data = gen_blobs(rng.spawn("blobs"), n_classes=4, n_per_class=250, dim=8,
                     spread=0.8)
    data = inject_label_noise(data, 0.6, rng.spawn("noise"))
    net = init_network([LayerSpec(8, 64, activation="relu"), LayerSpec(64, 4)],
                       rng.spawn("init"))
    return train_model(net, data, OptimizerSpec(lr=3e-3), cfg, rng, epochs=100)


def test_10_walls_shrink_the_memorization_gap(report):
    means = {}
    for label, cfg in (("off", VolumizationConfig()),
                       ("on", VolumizationConfig(v=0.25, alpha=0.5))):
        trajs = [_noisy_blobs_trajectory(r, cfg) for r in range(3)]
        means[label] = (sum(t.gap for t in trajs) / 3.0,
                        sum(t.last for t in trajs) / 3.0)
    ok = means["on"][0] < means["off"][0] and means["on"][1] > means["off"][1]
    report(10, ok,
           f"0.6 label noise, 3 repeats, 100 epochs: mean gap "
           f"{means['on'][0]:.3f} < {means['off'][0]:.3f} and mean last "
           f"{means['on'][1]:.3f} > {means['off'][1]:.3f} with walls on")


def test_11_ternary_training_keeps_float_accuracy(report):
    rng = SeededRng(stable_hash(7, "c11"))
    data = gen_blobs(rng.spawn("blobs"), n_classes=4, n_per_class=250, dim=8,
                     spread=0.4)
    net = init_network([LayerSpec(8, 64, activation="relu"), LayerSpec(64, 4)],
                       rng.spawn("init"))
    run = new_run(net, OptimizerSpec(kind="sgd", lr=0.2, mu=0.9),
                  VolumizationConfig(v=0.5, alpha=0.0), rng)
    quantized, _ = quantized_training(
        run, data, QuantizationScheme(mode="ternary", period_epochs=2), 100)
    _, acc_float = evaluate(run.net, data.x_test, data.y_test)
    _, acc_quant = evaluate(quantized, data.x_test, data.y_test)
    ratio = acc_quant / acc_float

    draws = np.random.default_rng(1111).uniform(-3.0, 3.0, 10**6)
    inv_ok = True
    for mode in ("binary", "ternary"):
        levels = {-0.8, 0.8} if mode == "binary" else {-0.8, 0.0, 0.8}
        q = quantize(draws, 0.8, mode)
        inv_ok = inv_ok and set(np.unique(q)).issubset(levels)
        inv_ok = inv_ok and quantize(q, 0.8, mode).tobytes() == q.tobytes()
    report(11, ratio >= 0.90 and inv_ok,
           f"ternary/float accuracy ratio {ratio:.3f} (need >= 0.90); codomain "
           f"and idempotence on 1e6 draws, both modes: {inv_ok}")


def _mass_after_training(cfg):
    rng = SeededRng(stable_hash(3, "c12"))
    data = gen_blobs(rng.spawn("blobs"), n_classes=4, n_per_class=250, dim=8,
                     spread=0.8)
    net = init_network([LayerSpec(8, 64, activation="relu"), LayerSpec(64, 4)],
                       rng.spawn("init"))
    train_model(net, data, OptimizerSpec(lr=3e-3), cfg, rng, epochs=100)
    hists = weight_histogram(net, vols=derive_layer_volumes(net, cfg))
    total = sum(int(h.counts.sum()) for h in hists)
    return sum(h.mass_near_walls * int(h.counts.sum()) for h in hists) / total


def test_12_tight_walls_collect_weight_mass(report):
    tight = _mass_after_training(VolumizationConfig(v=0.3, alpha=0.99))
    loose = _mass_after_training(VolumizationConfig(v=1.2, alpha=0.9999))
    report(12, tight > loose,
           f"mass within 5% of the walls after 100 epochs: v=0.3/alpha=0.99 "
           f"gives {tight:.4f} > v=1.2/alpha=0.9999 gives {loose:.4f}")


def test_13_sweeps_and_resume_are_bit_reproducible(report, tmp_path):
    spec = SweepSpec(apply_schema(
        {"v_grid": "0.25, 1", "alpha_grid": "0, 0.5", "repeats": "2",
         "n_per_class": "25", "dim": "4", "hidden_dims": "8", "optimizer": "sgd",
         "lr": "0.05", "epochs": "3", "batch_size": "16"}, SWEEP_SCHEMA),
        base_seed=1313)
    csv_a = Path(run_sweep(spec, str(tmp_path / "a"))).read_bytes()
    csv_b = Path(run_sweep(spec, str(tmp_path / "b"))).read_bytes()
    sweep_ok = csv_a == csv_b

    def fresh_run():
        rng = SeededRng(stable_hash(1313, "resume"))
        data = gen_blobs(rng.spawn("blobs"), n_classes=3, n_per_class=25, dim=4,
                         spread=1.0)
        net = init_network([LayerSpec(4, 8, activation="relu"), LayerSpec(8, 3)],
                           rng.spawn("init"))
        return data, new_run(net, OptimizerSpec(kind="adam", lr=1e-2),
                             VolumizationConfig(v=0.5, alpha=0.5), rng,
                             batch_size=16)

    data, straight = fresh_run()
    run_epochs(straight, data, 8)

    data, first = fresh_run()
    run_epochs(first, data, 4)
    save_checkpoint(tmp_path / "mid.bin", first)
    resumed = load_checkpoint(tmp_path / "mid.bin")
    run_epochs(resumed, data, 4)

    t_a, t_b = straight.trajectory, resumed.trajectory
    resume_ok = (
        t_a.train_loss == t_b.train_loss and t_a.train_acc == t_b.train_acc
        and t_a.test_loss == t_b.test_loss and t_a.test_acc == t_b.test_acc
        and all(wa.tobytes() == wb.tobytes()
                for (_, wa), (_, wb) in zip(straight.net.param_tensors(),
                                            resumed.net.param_tensors())))
    report(13, sweep_ok and resume_ok,
           f"identical sweep spec gives byte-identical CSV: {sweep_ok}; "
           f"checkpoint resume bitwise equal to the uninterrupted run: {resume_ok}")
