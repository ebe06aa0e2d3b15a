"""One-dimensional theory lab: closed forms, MC oracles, gradient flow.

The closed-form error curve was frozen only after MC verification; here we
keep both tied together permanently, plus the flow integrator as a third
independent route to the same numbers.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from volumize import (
    NoiseSpec,
    SeededRng,
    TeacherStudentProblem,
    alpha_for_weight_decay,
    cauchy_comparison,
    clip_error_closed_form,
    clip_error_mc,
    closed_form_curve,
    flow_curve,
    gradient_flow_sim,
    mc_curve,
    optimal_volume,
    stable_hash,
    weight_decay_error_mc,
    weight_decay_optimum,
)
from volumize import _kernels, _pool, config, runs, theory
from volumize.errors import DomainError, ShapeError
from volumize.linalg import sample_cauchy
from volumize.theory import unregularized_prefix_errors

# two _MC_CHUNK segments, the second of three samples
TWO_SEGMENTS = theory._MC_CHUNK + 3


def problem(dim=1, a=1.0, sigma=0.5, kind="uniform"):
    return TeacherStudentProblem(dim=dim, a=a, noise=NoiseSpec(kind, sigma))


class TestClosedForm:
    def test_zero_volume_kills_everything(self):
        # student pinned at 0: error is E[u^2] = a^2/3
        assert clip_error_closed_form(2.0, 0.5, 0.0) == pytest.approx(4.0 / 3.0)

    def test_flat_beyond_support_edge(self):
        for vol in (1.5, 2.0, 10.0):
            assert clip_error_closed_form(1.0, 0.5, vol) == 0.25 / 3.0

    def test_continuous_at_knots(self):
        a, sigma = 1.3, 0.4
        for knot in (a - sigma, a + sigma):
            below = clip_error_closed_form(a, sigma, knot - 1e-9)
            above = clip_error_closed_form(a, sigma, knot + 1e-9)
            assert below == pytest.approx(above, abs=1e-7)

    def test_noise_free_limit(self):
        # sigma=0: clipping costs (a-V)^3/(3a) until V reaches a, then zero
        assert clip_error_closed_form(1.0, 0.0, 0.25) == pytest.approx(
            0.75**3 / 3.0
        )
        assert clip_error_closed_form(1.0, 0.0, 1.0) == 0.0

    def test_optimum_location_and_value(self):
        vol, err = optimal_volume(1.0, 1.0)
        assert vol == pytest.approx(0.5)
        assert err == pytest.approx(37.0 / 192.0)
        # interior stationary point of the middle branch
        h = 1e-6
        d = (
            clip_error_closed_form(1.0, 1.0, vol + h)
            - clip_error_closed_form(1.0, 1.0, vol - h)
        ) / (2 * h)
        assert abs(d) < 1e-9

    def test_optimum_beats_neighbors_generic(self):
        a, sigma = 1.7, 0.6
        vol, err = optimal_volume(a, sigma)
        assert clip_error_closed_form(a, sigma, vol) == pytest.approx(err, rel=1e-12)
        for other in (vol - 0.1, vol + 0.1, 0.0, a + sigma):
            assert err < clip_error_closed_form(a, sigma, other)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            clip_error_closed_form(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            clip_error_closed_form(1.0, 1.5, 1.0)  # sigma > a
        with pytest.raises(DomainError):
            clip_error_closed_form(1.0, 0.5, -0.1)

    @pytest.mark.parametrize("kind", ["uniform", "cauchy"])
    def test_noise_scale_must_be_finite(self, kind):
        with pytest.raises(DomainError, match="finite"):
            NoiseSpec(kind, math.inf)


class TestClipMc:
    def test_matches_closed_form_within_stderr(self):
        p = problem(sigma=0.5)
        for vol in (0.0, 0.3, 0.75, 1.2, 1.4):
            est = clip_error_mc(p, vol, SeededRng(stable_hash("mc", str(vol))), 200000)
            want = clip_error_closed_form(1.0, 0.5, vol)
            assert abs(est.value - want) < 4 * est.stderr + 1e-12

    def test_control_variate_exact_beyond_support(self):
        p = problem(sigma=0.5)
        est = clip_error_mc(p, 1.6, SeededRng(0), 10000)
        assert est.value == 0.25 / 3.0
        assert est.stderr == 0.0

    def test_control_variate_shrinks_stderr(self):
        p = problem(sigma=0.5)
        cv = clip_error_mc(p, 1.4, SeededRng(1), 100000)
        # the plain estimator's stderr on the same draws
        plain = _kernels.clip_sq_values(*p.draw(SeededRng(1), 100000), 1.4)
        plain_stderr = plain.std(ddof=1) / math.sqrt(plain.size)
        assert cv.stderr < 0.2 * plain_stderr

    def test_deterministic_given_seed(self):
        p = problem(sigma=0.5)
        a = clip_error_mc(p, 0.8, SeededRng(7), 50000)
        b = clip_error_mc(p, 0.8, SeededRng(7), 50000)
        assert a.value == b.value and a.stderr == b.stderr

    def test_cauchy_noise_needs_plain_estimator(self):
        p = problem(sigma=1.0, kind="cauchy")
        est = clip_error_mc(p, 0.5, SeededRng(0), 10000)
        plain = _kernels.clip_sq_values(*p.draw(SeededRng(0), 10000), 0.5)
        assert np.isfinite(est.value)
        assert est.value == pytest.approx(plain.mean(), rel=1e-12)


class TestWeightDecay:
    def test_mc_matches_shrinkage_formula(self):
        a, sigma = 1.0, 0.5
        for lam in (0.0, 0.25, 1.0):
            est = weight_decay_error_mc(a, sigma, lam, SeededRng(stable_hash("wd", str(lam))), 200000)
            want = (sigma**2 + lam**2 * a**2) / (3.0 * (1.0 + lam) ** 2)
            assert abs(est.value - want) < 4 * est.stderr

    def test_optimum_formula(self):
        lam, err = weight_decay_optimum(1.0, 1.0)
        assert lam == pytest.approx(1.0)
        assert err == pytest.approx(1.0 / 6.0)

    def test_optimum_is_a_minimum(self):
        a, sigma = 1.2, 0.7
        lam, err = weight_decay_optimum(a, sigma)
        f = lambda l: (sigma**2 + l**2 * a**2) / (3.0 * (1.0 + l) ** 2)
        assert err == pytest.approx(f(lam), rel=1e-12)
        assert f(lam) < f(lam * 0.9) and f(lam) < f(lam * 1.1)


class TestGradientFlow:
    def test_alpha0_flow_recovers_clip_error(self):
        p = problem(dim=50000, sigma=0.5)
        res = gradient_flow_sim(p, 0.75, 0.0, SeededRng(21))
        assert res.converged
        want = clip_error_closed_form(1.0, 0.5, 0.75)
        # flow error is an MC average over dim coordinates
        se = 0.5 / math.sqrt(p.dim)
        assert abs(res.error - want) < 4 * se

    def test_alpha1_flow_is_unregularized(self):
        p = problem(dim=20000, sigma=0.5)
        with theory.flow_space(p.dim) as space:
            res = gradient_flow_sim(p, 0.2, 1.0, SeededRng(22), space=space)
            assert res.converged
            np.testing.assert_allclose(space.w, space.u_prime, atol=1e-8)

    def test_weight_decay_alpha_mapping_hits_shrinkage_fixed_point(self):
        lam, step = 0.7, 0.1
        alpha = alpha_for_weight_decay(lam, step)
        p = problem(dim=5000, sigma=0.5)
        with theory.flow_space(p.dim) as space:
            res = gradient_flow_sim(p, 0.0, alpha, SeededRng(23), step=step, space=space)
            assert res.converged
            np.testing.assert_allclose(space.w, space.u_prime / (1.0 + lam), atol=1e-7)

    def test_mapping_is_step_invariant(self):
        # the fixed point must not depend on the integrator step
        lam = 0.5
        p = problem(dim=500, sigma=0.5)
        w = {}
        for step in (0.1, 0.37):
            with theory.flow_space(p.dim) as space:
                gradient_flow_sim(p, 0.0, alpha_for_weight_decay(lam, step),
                                  SeededRng(24), step=step, space=space)
                w[step] = space.w.copy()
        np.testing.assert_allclose(w[0.1], w[0.37], atol=1e-7)

    # error and iteration count of V > 0 flows, as float.hex: no benchmark
    # workload runs this wall path, so no digest guards its bits
    @pytest.mark.parametrize("sigma, alpha, step, seed, dim, error, iterations", [
        (0.5, 0.0, 0.1, 31, 64, "0x1.575d9e74313a1p-4", 193),
        (0.5, 0.3, 0.1, 31, 64, "0x1.50ec7b5f6f205p-4", 193),
        (0.5, -0.5, 0.1, 31, 64, "0x1.5d3acd955d7dap-4", 193),
        (0.5, 0.3, 0.05, 25, 40, "0x1.613a2bcf0d1ddp-4", 379),
    ])
    def test_general_wall_flow_bits_are_pinned(self, sigma, alpha, step, seed, dim,
                                               error, iterations):
        res = gradient_flow_sim(problem(dim=dim, sigma=sigma), 0.6, alpha,
                                SeededRng(seed), step=step)
        assert res.converged
        assert (res.error.hex(), res.iterations) == (error, iterations)

    @pytest.mark.parametrize("step", [0.0, -0.1, 2.0, 3.0, math.nan])
    def test_oversized_step_rejected(self, step):
        p = problem(dim=10, sigma=0.5)
        with pytest.raises(DomainError, match="0 < step < 2"):
            gradient_flow_sim(p, 0.5, 0.0, SeededRng(27), step=step)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_flow_in_an_entered_space_allocates_nothing(self, monkeypatch, cpus):
        # theorem3's decay flow at its benchmark dim, split at 2 CPUs: the
        # draws, the iterations and the error work in the space's buffers
        # and in blocks allocated once per process; the whole-array draw of
        # u and the error's temporaries peaked at 3.2 MB
        monkeypatch.setattr(_pool, "available_cpus", lambda: cpus)
        p = problem(dim=200_000, sigma=0.5)
        decay = alpha_for_weight_decay(1.0, 0.1)
        with theory.flow_space(p.dim) as space:
            assert (space.far is not None) == (cpus == 2)
            warm = gradient_flow_sim(p, 0.0, decay, SeededRng(29), space=space)
            tracemalloc.start()
            try:
                res = gradient_flow_sim(p, 0.0, decay, SeededRng(29), space=space)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.converged and res.error.hex() == warm.error.hex()
        assert peak < 64 * 1024

    def test_space_of_another_dim_is_shape_error(self):
        with theory.flow_space(10) as space:
            with pytest.raises(ShapeError, match="needs a space of that dim, got 10"):
                gradient_flow_sim(problem(dim=11, sigma=0.5), 0.5, 0.0, SeededRng(1),
                                  space=space)

    def test_default_step_is_one_tenth(self):
        p = problem(dim=64, sigma=0.5)
        with theory.flow_space(p.dim) as space:
            default = gradient_flow_sim(p, 0.6, 0.3, SeededRng(28), space=space)
            w = space.w.tobytes()
            tenth = gradient_flow_sim(p, 0.6, 0.3, SeededRng(28), step=0.1, space=space)
            assert space.w.tobytes() == w
        assert default.error.hex() == tenth.error.hex()
        assert default.iterations == tenth.iterations


def _discard(rng, k):
    # draw and drop k unit doubles, a bounded block at a time
    while k:
        m = min(k, 1 << 20)
        rng.random(m)
        k -= m


class TestStreaming:
    """The estimators draw, transform and sum one block at a time, and keep
    the bits of the whole-array draws and sums they replace."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 129, 2**16 - 1, 2**16 + 1,
                                   2 * 10**5, 2 * 10**6 + 3, 2**22])
    def test_pairwise_tree_sum_equals_np_sum(self, n):
        # fails by name if numpy changes how its pairwise sum splits
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        done = 0

        def leaf(m):
            # the leaves are blocks that take the values in order
            nonlocal done
            assert 0 < m <= _kernels._BLOCK and done + m <= n
            z = x[done:done + m]
            done += m
            return float(z.sum()), float((z * z).sum())

        s1, s2 = theory._tree_moments(n, leaf)
        assert done == n
        assert (s1.hex(), s2.hex()) == (float(x.sum()).hex(), float((x * x).sum()).hex())

    @pytest.mark.parametrize("kind, sigma", [("uniform", 0.5), ("uniform", 0.0),
                                             ("cauchy", 2.0)])
    @pytest.mark.parametrize("n", [5, 2**16 + 1, 200003])
    def test_estimates_have_the_bits_of_whole_array_sums(self, kind, sigma, n):
        # the formula the streamed estimators replace: one whole draw, the
        # values kernel over it, then np.sum of z and of z*z
        def whole(p, rng, kernel, offset):
            z = kernel(*p.draw(rng, n))
            s1, s2 = float(np.sum(z)), float(np.sum(z * z))
            var = max(s2 - s1 * s1 / n, 0.0) / (n - 1)
            return (offset + s1 / n).hex(), math.sqrt(var / n).hex()

        p = problem(kind=kind, sigma=sigma)
        if kind == "uniform":
            kernel, offset = _kernels.clip_sq_cv_values, sigma * sigma / 3.0
        else:
            kernel, offset = _kernels.clip_sq_values, 0.0
        est = clip_error_mc(p, 0.6, SeededRng(5), n)
        want = whole(p, SeededRng(5), lambda u, eta: kernel(u, eta, 0.6), offset)
        assert (est.value.hex(), est.stderr.hex()) == want
        if kind == "uniform":  # weight decay's noise is uniform
            est = weight_decay_error_mc(1.0, sigma, 0.25, SeededRng(6), n)
            want = whole(p, SeededRng(6), lambda u, eta: ((u + eta) / 1.25 - u) ** 2, 0.0)
            assert (est.value.hex(), est.stderr.hex()) == want

    @pytest.mark.parametrize("n", [1000, TWO_SEGMENTS])
    @pytest.mark.parametrize("kind, sigma, draws", [("uniform", 0.5, 2), ("uniform", 0.0, 1),
                                                    ("cauchy", 1.0, 2)])
    def test_clip_estimator_leaves_rng_where_its_draws_do(self, n, kind, sigma, draws):
        rng, ref = SeededRng(8), SeededRng(8)
        clip_error_mc(problem(kind=kind, sigma=sigma), 0.6, rng, n)
        _discard(ref, draws * n)
        assert rng.get_state() == ref.get_state()

    @pytest.mark.parametrize("n", [1000, TWO_SEGMENTS])
    def test_other_estimators_leave_rng_where_their_draws_do(self, n):
        rng, ref = SeededRng(8), SeededRng(8)
        weight_decay_error_mc(1.0, 0.5, 0.25, rng, n)
        _discard(ref, 2 * n)
        assert rng.get_state() == ref.get_state()
        rng, ref = SeededRng(8), SeededRng(8)
        unregularized_prefix_errors(rng, 1.0, [10, n])
        _discard(ref, n)
        assert rng.get_state() == ref.get_state()

    @pytest.mark.parametrize("estimate", [
        lambda n: clip_error_mc(problem(), 0.75, SeededRng(1), n),
        lambda n: clip_error_mc(problem(sigma=1.0, kind="cauchy"), 0.75, SeededRng(1), n),
        lambda n: weight_decay_error_mc(1.0, 0.5, 0.25, SeededRng(1), n),
        lambda n: unregularized_prefix_errors(SeededRng(1), 1.0, [10**4, n]),
    ], ids=["clip-uniform", "clip-cauchy", "weight-decay", "prefixes"])
    def test_memory_does_not_grow_with_n(self, estimate):
        # whole-array draws of 2e6 samples peaked at 30-61 MB
        tracemalloc.start()
        try:
            estimate(2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6

    @pytest.mark.parametrize("estimate", [
        lambda n: clip_error_mc(problem(), 0.75, SeededRng(1), n),
        lambda n: clip_error_mc(problem(sigma=1.0, kind="cauchy"), 0.75, SeededRng(1), n),
        lambda n: weight_decay_error_mc(1.0, 0.5, 0.25, SeededRng(1), n),
    ], ids=["clip-uniform", "clip-cauchy", "weight-decay"])
    def test_estimates_reuse_their_blocks(self, estimate):
        # the u, eta and value blocks and the control-variate kernel's
        # scratch are allocated once per process, so a second estimate
        # allocates none of them; blocks allocated per estimate took 1.6-2.1
        # MB, and per-block draws and temporaries peaked at 2.0-3.5 MB
        estimate(1000)  # the first draw imports numpy.random
        tracemalloc.start()
        try:
            estimate(2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    # value and stderr as float.hex over two segments, recorded with the
    # whole-array estimators; no benchmark digest reaches n > _MC_CHUNK
    @pytest.mark.parametrize("kind, sigma, vol, seed, value, stderr", [
        ("uniform", 0.5, 0.75, 41, "0x1.0d3404e2e1b98p-4", "0x1.8b9a106ff7c43p-16"),
        ("cauchy", 1.0, 0.6, 42, "0x1.aad93285d3b5fp-2", "0x1.2bc7bd59b5c88p-12"),
    ])
    def test_two_segment_clip_bits_are_pinned(self, kind, sigma, vol, seed, value, stderr):
        est = clip_error_mc(problem(kind=kind, sigma=sigma), vol, SeededRng(seed),
                            TWO_SEGMENTS)
        assert (est.value.hex(), est.stderr.hex()) == (value, stderr)

    def test_two_segment_weight_decay_and_prefix_bits_are_pinned(self):
        est = weight_decay_error_mc(1.0, 0.5, 0.25, SeededRng(43), TWO_SEGMENTS)
        assert (est.value.hex(), est.stderr.hex()) == ("0x1.1145e75817990p-4",
                                                       "0x1.29280184d9d75p-15")
        prefixes = unregularized_prefix_errors(SeededRng(44), 1.0,
                                               [10**4, 10**5, 10**6, TWO_SEGMENTS])
        assert [x.hex() for x in prefixes] == [
            "0x1.7d3900ed3cac8p+16", "0x1.9a0cc412bdecfp+17", "0x1.26fe8b9abd58fp+21",
            "0x1.44a01439c0b32p+28"]


class TestCurves:
    def test_closed_form_curve_matches_pointwise(self):
        vols = [0.0, 0.5, 1.0, 1.5]
        curve = closed_form_curve(1.0, 0.5, vols)
        assert curve.method == "closed_form"
        for v, e in zip(curve.vols, curve.errors):
            assert e == clip_error_closed_form(1.0, 0.5, v)
        assert all(s == 0.0 for s in curve.stderrs)

    def test_mc_curve_reproducible_and_tight(self):
        vols = [0.3, 0.8, 1.3]
        c1 = mc_curve(1.0, 0.5, vols, seed=5, n_samples=50000)
        c2 = mc_curve(1.0, 0.5, vols, seed=5, n_samples=50000)
        np.testing.assert_array_equal(c1.errors, c2.errors)
        for v, e, s in zip(c1.vols, c1.errors, c1.stderrs):
            assert abs(e - clip_error_closed_form(1.0, 0.5, v)) < 4 * s + 1e-12

    def test_flow_curve_argmin_near_theory(self):
        vols = np.round(np.arange(0.3, 1.2001, 0.05), 10).tolist()
        curve = flow_curve(1.0, 0.5, vols, seed=6, dim=200000)
        want, _ = optimal_volume(1.0, 0.5)
        assert abs(curve.argmin_vol() - want) <= 0.05 + 1e-12

    def test_curve_rows_round_trip(self):
        curve = closed_form_curve(1.0, 0.5, [0.5])
        (row,) = list(curve.rows())
        assert row["method"] == "closed_form"
        assert float(row["V"]) == 0.5


class TestCauchy:
    def test_prefix_estimates_share_one_stream(self):
        rng = SeededRng(9)
        ests = unregularized_prefix_errors(rng, 1.0, [100, 1000])
        eta = sample_cauchy(SeededRng(9), 1.0, 1000)
        sq = eta * eta
        assert ests[0] == pytest.approx(sq[:100].mean(), rel=1e-12)
        assert ests[1] == pytest.approx(sq.mean(), rel=1e-12)

    def test_comparison_table_properties(self):
        *unreg, constant, walls = cauchy_comparison(n_samples=10**5, seed=3)
        assert [c.method for c in (*unreg, constant, walls)] == (
            ["unregularized"] * len(unreg) + ["weight_decay", "volumization"])
        unreg.sort(key=lambda c: c.n_samples)
        best = walls.errors.min()
        assert best < 1.0 / 3.0  # walls beat the constant student
        assert constant.errors[0] == pytest.approx(1.0 / 3.0)
        assert unreg[-1].errors[0] > unreg[0].errors[0]  # heavy tail: estimate grows
        assert unreg[-1].errors[0] > 10 * best

    def test_fig4b_check_holds_with_one_prefix_row(self, tmp_path, monkeypatch):
        # at n <= 1e4 there is a single unregularized prefix row, so the
        # built-in check cannot ask the estimate to grow across rows. In
        # process: a pool per run would cost more than these tiny grids, and
        # tests/test_pool.py pins fig4b's bytes across worker counts.
        monkeypatch.setattr(_pool, "available_cpus", lambda: 1)
        cfg = config.apply_schema({"kind": "fig4b", "n_samples": "10000"},
                                  config.THEORY_SCHEMA)
        failed = [seed for seed in range(100)
                  if not runs.run_theory(cfg, str(tmp_path), seed)[1]]
        assert failed == []

    @pytest.mark.parametrize("over, ok", [(False, True), (True, False)])
    def test_fig4b_check_bounds_every_wall_row(self, tmp_path, monkeypatch, over, ok):
        # a wall row's error can never pass (a+V)^2: |clip(u', V) - u| <= a + V
        monkeypatch.setattr(_pool, "available_cpus", lambda: 1)
        estimate = theory.estimate_points

        def last_row_at_bound(estimator, points):
            ests = estimate(estimator, points)
            bound = (points[-1][0].a + points[-1][1]) ** 2
            value = math.nextafter(bound, math.inf) if over else bound
            return ests[:-1] + [dataclasses.replace(ests[-1], value=value)]

        monkeypatch.setattr(theory, "estimate_points", last_row_at_bound)
        cfg = config.apply_schema({"kind": "fig4b", "n_samples": "100000"},
                                  config.THEORY_SCHEMA)
        assert runs.run_theory(cfg, str(tmp_path), 3)[1] is ok

    def test_rows_carry_metadata(self):
        for curve in cauchy_comparison(n_samples=10**4, seed=4):
            for row in curve.rows():
                assert set(row) == {
                    "method",
                    "a",
                    "sigma",
                    "V",
                    "error",
                    "stderr",
                    "n_samples",
                    "seed",
                }
