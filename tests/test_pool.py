"""The served process, the ordered process map over it, and the
worker-count independence of their users.

Theory grids take their worker count from _pool.available_cpus; the tests
patch it to 1, 2 and 3, so the workers run (3 of them with uneven shares of
the items) whatever the CPU count of the machine running them. The forks
fixture (conftest.py) logs every process _pool forks: a map over N workers
forks N called "worker".
"""

import math
import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait

import numpy as np
import pytest

from volumize import _kernels, _pool, config, runs, sweep, theory
from volumize.cli import _Terminated, main
from volumize.errors import ConfigError, DomainError, NumericError, VolumizeError
from volumize.linalg import SeededRng
from volumize.theory import (cauchy_comparison, flow_curve, gradient_flow_sim, mc_curve,
                             mc_curves)

CPU_COUNTS = (1, 2, 3)


def _pid_of(x):
    return x, os.getpid()


def _mc_curve_hex(a, sigma, vols, seed, n_samples):
    c = mc_curve(a, sigma, vols, seed=seed, n_samples=n_samples)
    return [float(x).hex() for x in (*c.errors, *c.stderrs)]


def _fail_on_negative(x):
    if x < 0:
        raise DomainError(f"negative item {x}")
    return x


def _killed_on_negative(x):
    """x, unless x < 0: then the worker process kills itself, as the OOM
    killer would."""
    if x < 0:
        assert multiprocessing.parent_process() is not None, "not in a worker"
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class _TwoArgError(DomainError):
    """A DomainError that pickles, but whose __init__ cannot be called
    with its args alone, as unpickling calls it."""

    def __init__(self, name, value):
        super().__init__(f"{name} is {value}")


def _two_arg_error_on_one(i):
    if i == 1:
        raise _TwoArgError("item", i)
    return i


class _ArrivingError(DomainError):
    """A DomainError that sets _ARRIVED when it is built in the process
    that runs the map, as that process unpickles a worker's reply."""

    def __init__(self, *args):
        super().__init__(*args)
        if multiprocessing.parent_process() is None:
            _ARRIVED.set()


# made before the workers fork, so they share it
_ARRIVED = multiprocessing.get_context("fork").Event()
_ANSWERING = multiprocessing.get_context("fork").Event()


def _answer_for_a_minute(*request):
    """Sets _ANSWERING, then answers a minute later."""
    _ANSWERING.set()
    time.sleep(60)
    return request


def _item_one_fails(i, log):
    """Logs i as started. Item 1 raises; item 0 returns only once item 1's
    error has reached the caller."""
    with open(log, "a", encoding="utf-8") as f:
        f.write(f"{i}\n")
    if i == 1:
        raise _ArrivingError("item 1 failed")
    if i == 0:
        assert _ARRIVED.wait(timeout=60)
    return i


def _items_one_and_two_fail(i):
    """Item 2's error reaches the caller first, and then item 1 fails."""
    if i == 2:
        raise _ArrivingError("item 2 failed")
    if i == 1:
        assert _ARRIVED.wait(timeout=60)
        raise DomainError("item 1 failed")
    return i


def _curve_hex(c):
    return [float(x).hex() for x in (*c.errors, *c.stderrs)]


def _fork_log(name, n=1):
    """The forks log of n processes called name, forked by this process."""
    return [f"{os.getpid()} {name}"] * n


def _with_cpus(monkeypatch, n):
    monkeypatch.setattr(_pool, "available_cpus", lambda: n)


def _nan_with_payload():
    """A negative nan with payload bits, which float arithmetic would lose."""
    return float(np.array([0xFFF8_0000_0000_0123], dtype=np.uint64).view(np.float64)[0])


def _raise_or_echo(request):
    if isinstance(request, Exception):
        raise request
    return request


class TestServed:
    def test_values_cross_with_their_bits(self):
        arena = SeededRng(3).normal(836)  # train-small's arena size
        sent = [(0.1, -2.5, 5e-324), -0.0, math.nan, _nan_with_payload(), None, arena]
        with _pool.served(_raise_or_echo, "echo") as server:
            for value in (*sent, NumericError("no bits")):
                server.send(value)
            got = [server.receive(f"reply {i}") for i in range(len(sent))]
            with pytest.raises(NumericError, match="^no bits$"):  # keeps its class
                server.receive("the error")
        assert [type(v) for v in got] == [type(v) for v in sent]
        assert [x.hex() for x in got[0]] == [x.hex() for x in sent[0]]
        for x, y in zip(got[1:4], sent[1:4]):
            assert np.float64(x).view(np.uint64) == np.float64(y).view(np.uint64)
        assert got[4] is None
        assert got[5].dtype == np.float64 and got[5].tobytes() == arena.tobytes()

    def test_an_unpicklable_reply_is_volumize_error(self, capfd):
        # the process stays up, answers the next request and prints nothing
        class LocalError(DomainError):
            pass

        class Local:
            pass

        def answer(request):
            if request == "raise":
                raise LocalError("local failure")
            return Local() if request == "return" else request

        with _pool.served(answer, "echo") as server:
            for request in ("raise", "return", 7):
                server.send(request)
            errors = []
            for what in ("the error", "the result"):
                with pytest.raises(VolumizeError) as info:
                    server.receive(what)
                errors.append(info.value)
            assert server.receive("the echo") == 7
        assert [type(e) for e in errors] == [VolumizeError, VolumizeError]
        assert str(errors[0]) == "LocalError: local failure"
        assert "Local" in str(errors[1]) and "died" not in str(errors[1])
        assert capfd.readouterr().err == ""

    def test_leaving_with_a_reply_unread_prints_nothing(self, capfd):
        # the unread reply makes closing the pipe reset the connection
        with _pool.served(_raise_or_echo, "echo") as server:
            server.send(1)
            assert wait([server], 5) == [server]
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, _Terminated])
    def test_an_interrupt_ends_the_process_at_once(self, interrupt):
        _ANSWERING.clear()
        with pytest.raises(interrupt):
            with _pool.served(_answer_for_a_minute, "sleeper") as server:
                server.send(None)
                assert _ANSWERING.wait(timeout=30)
                left = time.monotonic()
                raise interrupt
        assert time.monotonic() - left < 2
        assert multiprocessing.active_children() == []

    def test_an_error_waits_for_the_answer_in_flight(self, tmp_path):
        done = tmp_path / "done"

        def answer(request):
            time.sleep(0.3)
            done.write_text("answered")

        with pytest.raises(DomainError, match="in the block"):
            with _pool.served(answer, "echo") as server:
                server.send(None)
                raise DomainError("in the block")
        assert done.read_text() == "answered"


class TestMapOrdered:
    def test_available_cpus_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(_pool, "_CPU_QUOTA_FILES", ())
        assert _pool.available_cpus() == len(os.sched_getaffinity(0))

    def test_no_affinity_mask_means_one_cpu(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _pool.available_cpus() == 1

    @pytest.mark.parametrize("files, quota", [
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "max 100000\n"}, None),
        ({"quota": "-1\n", "period": "100000\n"}, None),
        ({"quota": "300000\n", "period": "100000\n"}, 3),
        ({"cpu.max": "garbled\n", "quota": "100000\n", "period": "100000\n"}, 1),
        ({}, None),
    ])
    def test_cgroup_cpu_quota(self, tmp_path, monkeypatch, files, quota):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(_pool, "_CPU_QUOTA_FILES", (
            (str(tmp_path / "cpu.max"),),
            (str(tmp_path / "quota"), str(tmp_path / "period"))))
        assert _pool._cpu_quota() == quota
        mask = len(os.sched_getaffinity(0))
        assert _pool.available_cpus() == (mask if quota is None else min(mask, quota))

    @pytest.mark.parametrize("workers", (0, -1))
    def test_fewer_than_one_worker_is_config_error(self, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            _pool.map_ordered(_pid_of, [(1,), (2,)], workers)

    def test_one_worker_runs_in_process(self, forks):
        got = _pool.map_ordered(_pid_of, [(i,) for i in range(5)], 1)
        assert got == [(i, os.getpid()) for i in range(5)]
        assert forks() == []

    def test_single_item_runs_in_process(self, forks):
        assert _pool.map_ordered(_pid_of, [(7,)], 4) == [(7, os.getpid())]
        assert _pool.map_ordered(_pid_of, [], 4) == []
        assert forks() == []

    @pytest.mark.parametrize("workers", (2, 3))
    def test_pool_keeps_input_order(self, forks, workers):
        items = [(i,) for i in range(29)]  # 29 items: uneven shares
        got = _pool.map_ordered(_pid_of, items, workers)
        assert [x for x, _ in got] == list(range(29))
        assert os.getpid() not in {pid for _, pid in got}
        assert forks() == _fork_log("worker", workers)

    def test_pool_is_capped_at_the_item_count(self, forks):
        _pool.map_ordered(_pid_of, [(1,), (2,)], 8)
        assert forks() == _fork_log("worker", 2)

    def test_task_error_keeps_its_class(self, forks):
        with pytest.raises(DomainError, match="negative item -3"):
            _pool.map_ordered(_fail_on_negative, [(1,), (-3,), (4,), (-5,)], 2)
        assert forks() == _fork_log("worker", 2)

    def test_lost_worker_is_volumize_error(self, forks):
        # the first item kills its worker, so it is the first item lost
        with pytest.raises(VolumizeError) as info:
            _pool.map_ordered(_killed_on_negative, [(-1,), (2,), (3,), (4,)], 2)
        assert type(info.value) is VolumizeError  # not a ConfigError: exit 2
        assert str(info.value) == ("the worker process died before it sent the item "
                                   "at index 0 of 4")
        assert forks() == _fork_log("worker", 2)

    def test_an_unpicklable_error_is_volumize_error(self, capfd):
        class LocalError(DomainError):
            pass

        def fail_on_one(i):
            if i == 1:
                raise LocalError(f"item {i} failed")
            return i

        with pytest.raises(VolumizeError) as info:
            _pool.map_ordered(fail_on_one, [(i,) for i in range(4)], 2)
        assert type(info.value) is VolumizeError
        assert str(info.value) == "LocalError: item 1 failed"
        assert capfd.readouterr().err == ""

    def test_an_unpicklable_result_is_volumize_error(self, capfd):
        class Local:
            pass

        with pytest.raises(VolumizeError) as info:
            _pool.map_ordered(lambda i: Local() if i == 1 else i, [(i,) for i in range(4)], 2)
        assert type(info.value) is VolumizeError
        assert "Local" in str(info.value) and "died" not in str(info.value)
        assert capfd.readouterr().err == ""

    def test_an_error_that_cannot_be_rebuilt_is_volumize_error(self, capfd):
        with pytest.raises(VolumizeError) as info:
            _pool.map_ordered(_two_arg_error_on_one, [(i,) for i in range(3)], 2)
        assert type(info.value) is VolumizeError  # not TypeError from pickle.loads
        assert str(info.value) == "_TwoArgError: item is 1"
        assert capfd.readouterr().err == ""

    def test_a_closure_runs_unpickled(self):
        offset = np.arange(3.0)
        got = _pool.map_ordered(lambda i: offset[i] + i, [(i,) for i in range(3)], 2)
        assert got == [0.0, 2.0, 4.0]

    def test_failure_starts_no_further_item(self, tmp_path):
        log = tmp_path / "started.txt"
        _ARRIVED.clear()
        with pytest.raises(_ArrivingError, match="item 1 failed"):
            _pool.map_ordered(_item_one_fails, [(i, str(log)) for i in range(10)], 2)
        assert sorted(map(int, log.read_text().split())) == [0, 1]

    def test_lowest_index_error_is_raised(self):
        _ARRIVED.clear()
        with pytest.raises(DomainError, match="item 1 failed") as info:
            _pool.map_ordered(_items_one_and_two_fail, [(i,) for i in range(4)], 3)
        assert type(info.value) is DomainError

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_workers_exit_before_the_results_return(self, forks, workers):
        got = _pool.map_ordered(_pid_of, [(i,) for i in range(7)], workers)
        assert [x for x, _ in got] == list(range(7))
        assert (os.getpid() in {pid for _, pid in got}) == (workers == 1)
        assert forks() == ([] if workers == 1 else _fork_log("worker", workers))
        assert multiprocessing.active_children() == []

    def test_an_interrupt_ends_every_worker_at_once(self, monkeypatch):
        def interrupted(servers):
            # both workers are answering: the interrupt lands in the wait
            assert _ANSWERING.wait(timeout=30)
            time.sleep(0.2)
            nonlocal left
            left = time.monotonic()
            raise KeyboardInterrupt

        left = None
        _ANSWERING.clear()
        monkeypatch.setattr(_pool, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _pool.map_ordered(_answer_for_a_minute, [(i,) for i in range(4)], 2)
        assert time.monotonic() - left < 2
        assert multiprocessing.active_children() == []


def _theory_bytes(tmp_path, kind, tag, **raw):
    cfg = config.apply_schema({"kind": kind, **raw}, config.THEORY_SCHEMA)
    out = tmp_path / tag
    path, _ = runs.run_theory(cfg, str(out), 11)
    with open(path, "rb") as f:
        return f.read()


class TestWorkerCountIndependence:
    @pytest.mark.parametrize("kind, raw", [
        ("theorem1", {"n_samples": "4000"}),
        ("fig4a", {"n_samples": "2000", "sigma_grid": "0.3, 0.7",
                   "v_grid_points": "25"}),
        ("fig4b", {"n_samples": "10000"}),
        ("theorem3", {"n_samples": "4000", "flow_dim": "500"}),
    ])
    def test_theory_csv_bytes(self, tmp_path, monkeypatch, forks, kind, raw):
        got, started = {}, {}
        for n in CPU_COUNTS:
            _with_cpus(monkeypatch, n)
            before = len(forks())
            got[n] = _theory_bytes(tmp_path, kind, f"{kind}-{n}", **raw)
            started[n] = forks()[before:]
        assert got[1] == got[2] == got[3]
        # at most one map per table, on every CPU
        assert started == {1: [], 2: _fork_log("worker", 2), 3: _fork_log("worker", 3)}

    def test_mc_curve_values(self, monkeypatch, forks):
        vols = np.linspace(0.0, 2.0, 26)
        curves = {}
        for n in CPU_COUNTS:
            _with_cpus(monkeypatch, n)
            c = mc_curve(1.0, 0.5, vols, seed=8, n_samples=3000)
            curves[n] = [float(x).hex() for x in (*c.errors, *c.stderrs)]
        assert curves[1] == curves[2] == curves[3]
        assert forks() == _fork_log("worker", 2) + _fork_log("worker", 3)

    def test_mc_curves_is_mc_curve_per_sigma_in_one_pool(self, monkeypatch, forks):
        _with_cpus(monkeypatch, 3)
        vols = np.linspace(0.0, 2.0, 9)
        one = [_curve_hex(mc_curve(1.0, s, vols, seed=k, n_samples=3000))
               for k, s in enumerate((0.3, 0.7))]
        before = len(forks())
        both = mc_curves(1.0, (0.3, 0.7), vols, (0, 1), n_samples=3000)
        assert [_curve_hex(c) for c in both] == one
        assert [(c.sigma, c.seed) for c in both] == [(0.3, 0), (0.7, 1)]
        assert forks()[before:] == _fork_log("worker", 3)

    def test_cauchy_comparison_values(self, monkeypatch, forks):
        tables = {}
        for n in CPU_COUNTS:
            _with_cpus(monkeypatch, n)
            t = cauchy_comparison(n_samples=5000, seed=9)
            tables[n] = [(c.method, float(v).hex(), float(e).hex(), float(s).hex(),
                          c.n_samples)
                         for c in t for v, e, s in zip(c.vols, c.errors, c.stderrs)]
        assert tables[1] == tables[2] == tables[3]
        assert forks() == _fork_log("worker", 2) + _fork_log("worker", 3)

    def test_flow_curve_stays_in_process(self, monkeypatch, forks):
        _with_cpus(monkeypatch, 3)
        flow_curve(1.0, 0.5, [0.4, 0.8, 1.2], seed=10, dim=500)
        assert forks() == []

    def test_mc_curve_inside_a_daemonic_worker(self, monkeypatch):
        # multiprocessing.Pool workers are daemonic and may not fork children
        _with_cpus(monkeypatch, 2)
        args = (1.0, 0.5, [0.25, 0.5, 1.0, 1.5], 8, 3000)
        with multiprocessing.get_context("fork").Pool(1) as outer:
            got = outer.apply(_mc_curve_hex, args)
        assert got == _mc_curve_hex(*args)


class TestWorkerErrors:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_negative_wall_in_mc_curve_is_domain_error(self, monkeypatch, cpus):
        _with_cpus(monkeypatch, cpus)
        with pytest.raises(DomainError, match="vol must be >= 0"):
            mc_curve(1.0, 0.5, [0.5, 1.0, -0.25, 1.5], seed=1, n_samples=100)

    def test_worker_error_gives_the_same_exit_code(self, tmp_path, monkeypatch,
                                                   capsys):
        # n_samples = 1 is refused inside clip_error_mc, so in a worker, once
        # the runner's own config check (which refuses it first) is bypassed
        monkeypatch.setattr(runs, "check_theory_cfg", lambda cfg: None)
        cfg = tmp_path / "t.txt"
        cfg.write_text("n_samples = 1\nsigma_grid = 0.3, 0.7\nflow_dim = 200\n")
        seen = set()
        for n in CPU_COUNTS:
            _with_cpus(monkeypatch, n)
            for kind in ("theorem1", "fig4a", "theorem3"):
                code = main(["theory", kind, "--config", str(cfg),
                             "--out", str(tmp_path / f"{kind}-{n}")])
                seen.add((kind, code, capsys.readouterr().err))
        assert seen == {
            ("theorem1", 2, "error: need n_samples > 1, got 1\n"),
            ("fig4a", 2, "error: need n_samples > 1, got 1\n"),
            ("theorem3", 2, "error: need n_samples > 1, got 1\n"),
        }

    def test_lost_sweep_worker_exits_two_and_resumes(self, tmp_path, monkeypatch,
                                                     capsys):
        # the worker training cell (v 0.5, alpha 1), item 1 of 4, kills
        # itself mid-cell, as the OOM killer would
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_classes = 3\nn_per_class = 25\ndim = 4\nhidden_dims = 8\n"
                       "epochs = 3\nbatch_size = 16\nv_grid = 0.5, inf\n"
                       "alpha_grid = 0, 1\nrepeats = 1\n", encoding="utf-8")
        real = sweep.train_model

        def killed_in_cell_one(net, data, opt, walls, *args, **kw):
            if (walls.v, walls.alpha) == (0.5, 1.0):
                assert multiprocessing.current_process().name == "worker"
                os.kill(os.getpid(), signal.SIGKILL)
            return real(net, data, opt, walls, *args, **kw)

        def run(out, *flags):
            return main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out),
                         *flags])

        monkeypatch.setattr(sweep, "train_model", killed_in_cell_one)
        assert run("o", "--workers", "2") == 2
        assert capsys.readouterr().err == ("error: the worker process died before it "
                                           "sent the item at index 1 of 4\n")
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(sweep, "train_model", real)
        assert run("o", "--workers", "2", "--resume") == 0
        assert run("whole") == 0
        assert ((tmp_path / "o" / "sweep.csv").read_bytes()
                == (tmp_path / "whole" / "sweep.csv").read_bytes())

    def test_diverging_flow_starts_no_estimate(self, tmp_path, monkeypatch, capsys,
                                               forks):
        # theorem3 runs its flows before its estimates, so a flow that
        # diverges ends the table before any pool is forked
        monkeypatch.setattr(_kernels, "flow_iter_identity", lambda *args: math.nan)
        cfg = tmp_path / "t.txt"
        cfg.write_text("n_samples = 1000000\nflow_dim = 200\n"
                       "lambda_grid = 0.25, 0.5, 1, 2, 4, 8\n")
        seen = set()
        for n in CPU_COUNTS:
            _with_cpus(monkeypatch, n)
            code = main(["theory", "theorem3", "--config", str(cfg),
                         "--out", str(tmp_path / f"theorem3-{n}")])
            seen.add((code, capsys.readouterr().err))
        assert seen == {(2, "error: flow diverged at iteration 1: max step nan\n")}
        assert forks() == []


# odd, and above the size from which a flow splits across a helper process
_SPLIT_DIM = 3 * _kernels._BLOCK + 5
_DECAY = theory.alpha_for_weight_decay(1.0, 0.1)
_FLOW_PART = _kernels._flow_part


def _split_problem():
    return theory.TeacherStudentProblem(dim=_SPLIT_DIM, a=1.0,
                                        noise=theory.NoiseSpec("uniform", 0.5))


def _flow_bits(vol, alpha, seed):
    with theory.flow_space(_SPLIT_DIM) as space:
        res = gradient_flow_sim(_split_problem(), vol, alpha, SeededRng(seed), space=space)
        return res.error.hex(), res.iterations, res.converged, space.w.tobytes()


def _flow_hex(vol, alpha, seed):
    return _flow_bits(vol, alpha, seed)[:3]


def _killed_in_the_helper(*args):
    """_kernels._flow_part, except in the flow helper: there the process
    kills itself, as the OOM killer would."""
    if multiprocessing.current_process().name == "flow helper":
        os.kill(os.getpid(), signal.SIGKILL)
    return _FLOW_PART(*args)


class TestSplitFlow:
    """A large flow's iterations are split with a helper process when a CPU
    is spare; available_cpus is patched to 1 (in process) and 2 (split)."""

    @pytest.mark.parametrize("vol, alpha", [(0.0, _DECAY), (0.6, 0.0), (0.6, 0.3),
                                            (0.6, -0.5)])
    def test_split_flow_keeps_the_bits(self, monkeypatch, forks, vol, alpha):
        got = {}
        for n in (1, 2):
            _with_cpus(monkeypatch, n)
            got[n] = _flow_bits(vol, alpha, 31)
        assert got[1] == got[2]
        assert got[1][2]  # converged
        assert forks() == _fork_log("flow helper")

    def test_flow_curve_forks_one_helper(self, monkeypatch, forks):
        got = {}
        for n in (1, 2):
            _with_cpus(monkeypatch, n)
            got[n] = _curve_hex(flow_curve(1.0, 0.5, [0.4, 1.2], seed=10,
                                           dim=_SPLIT_DIM))
        assert got[1] == got[2]
        assert forks() == _fork_log("flow helper")

    def test_smaller_flows_stay_in_process(self, monkeypatch, forks):
        _with_cpus(monkeypatch, 2)
        gradient_flow_sim(theory.TeacherStudentProblem(dim=_kernels._BLOCK - 1),
                          0.6, 0.3, SeededRng(3))
        assert forks() == []
        gradient_flow_sim(theory.TeacherStudentProblem(dim=_kernels._BLOCK),
                          0.6, 0.3, SeededRng(3))
        assert forks() == _fork_log("flow helper")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("vol, alpha", [(0.0, _DECAY), (0.6, 0.3)])
    def test_non_finite_far_half_is_numeric_error(self, monkeypatch, forks, bad,
                                                  vol, alpha):
        real = theory._flow_setup

        def flow_setup(problem, rng, space, lo, hi):
            real(problem, rng, space, lo, hi)
            if hi == problem.dim:
                space.u_prime[-3] = bad  # in the helper's half of u'

        monkeypatch.setattr(theory, "_flow_setup", flow_setup)
        seen = set()
        for n in (1, 2):
            _with_cpus(monkeypatch, n)
            with pytest.raises(NumericError) as info:
                _flow_bits(vol, alpha, 5)
            seen.add(str(info.value))
        assert seen == {f"flow diverged at iteration 1: max step {bad:.3e}"}
        assert forks() == _fork_log("flow helper")

    @pytest.mark.parametrize("dim", [_SPLIT_DIM, _kernels._BLOCK])
    @pytest.mark.parametrize("sigma", [0.5, 0.0])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_flow_error_is_the_mean_of_one_draw(self, monkeypatch, forks, dim, sigma, cpus):
        # the oracle: np.mean over the whole flow against u from one
        # problem.draw, which leaves the stream where the flow leaves it.
        # _SPLIT_DIM is odd and half of it is not a multiple of 8
        _with_cpus(monkeypatch, cpus)
        problem = theory.TeacherStudentProblem(dim=dim, a=1.0,
                                               noise=theory.NoiseSpec("uniform", sigma))
        rng, ref = SeededRng(41), SeededRng(41)
        with theory.flow_space(dim) as space:
            res = gradient_flow_sim(problem, 0.0, _DECAY, rng, space=space)
            w = space.w.copy()
        u, _ = problem.draw(ref, dim)
        assert res.converged
        assert res.error.hex() == float(((w - u) ** 2).mean()).hex()
        assert rng.get_state() == ref.get_state()
        assert forks() == (_fork_log("flow helper") if cpus == 2 else [])

    def test_each_process_draws_and_reduces_its_own_part(self, tmp_path, monkeypatch,
                                                         forks):
        # the wrappers log from any process: (phase, caller?, lo, hi)
        log = tmp_path / "parts.txt"

        def logged(name):
            real = getattr(theory, name)

            def part(*args):
                with open(log, "a", encoding="utf-8") as f:
                    f.write(f"{name} {os.getpid()} {args[-2]} {args[-1]}\n")
                return real(*args)

            return part

        for name in ("_flow_setup", "_flow_error"):
            monkeypatch.setattr(theory, name, logged(name))
        _with_cpus(monkeypatch, 2)
        gradient_flow_sim(_split_problem(), 0.0, _DECAY, SeededRng(7))
        parts = [line.split() for line in log.read_text().splitlines()]
        h, n = _kernels._half(_SPLIT_DIM), _SPLIT_DIM
        assert sorted((name, int(pid) == os.getpid(), int(lo), int(hi))
                      for name, pid, lo, hi in parts) == [
            ("_flow_error", False, h, n), ("_flow_error", True, 0, h),
            ("_flow_setup", False, h, n), ("_flow_setup", True, 0, h)]
        assert forks() == _fork_log("flow helper")

    def test_one_timed_call_per_iteration(self, tmp_path, monkeypatch, forks):
        # the wrapper logs from any process: the helper must not call it
        log = tmp_path / "calls.txt"
        real = _kernels.flow_iter_identity

        def counting(*args):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {args[0].shape} {args[1].shape}\n")
            return real(*args)

        monkeypatch.setattr(_kernels, "flow_iter_identity", counting)
        _with_cpus(monkeypatch, 2)
        res = gradient_flow_sim(_split_problem(), 0.6, 0.3, SeededRng(7))
        shape = (_SPLIT_DIM,)
        assert log.read_text().splitlines() == [f"{os.getpid()} {shape} {shape}"] * res.iterations
        assert forks() == _fork_log("flow helper")

    def test_a_pool_worker_splits_nothing(self, monkeypatch, forks):
        _with_cpus(monkeypatch, 2)
        items = [(0.6, 0.3, 1), (0.0, _DECAY, 2)]
        got = _pool.map_ordered(_flow_hex, items, 2)
        assert forks() == _fork_log("worker", 2)
        _with_cpus(monkeypatch, 1)
        assert got == [_flow_hex(*item) for item in items]

    def test_lost_helper_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(_kernels, "_flow_part", _killed_in_the_helper)
        _with_cpus(monkeypatch, 2)
        cfg = tmp_path / "t.txt"
        cfg.write_text(f"n_samples = 4000\nflow_dim = {_SPLIT_DIM}\n")
        code = main(["theory", "theorem3", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (
            2, "error: the flow helper process died before it sent its half of "
               "iteration 1\n")
        assert multiprocessing.active_children() == []
