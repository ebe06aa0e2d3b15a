"""End-to-end CLI behavior: exit codes, outputs, resume."""

import importlib
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import volumize
from volumize import _pool, theory
from volumize.cli import main
from volumize.csvio import read_csv

TRAIN_CFG = """\
n_classes = 3
n_per_class = 25
dim = 4
spread = 0.6
hidden_dims = 8
optimizer = sgd
lr = 0.05
epochs = {epochs}
batch_size = 16
v = 0.5
alpha = 0.5
checkpoint_every = 0
"""


def _run_cfg(command, bad):
    """TRAIN_CFG at 2 epochs for command, with bad in place of its key's
    line; spectral sets its own walls and saves no checkpoints, so its
    config has no wall or checkpoint keys."""
    drop = {bad.split()[0]}
    if command == "spectral":
        drop |= {"v", "alpha", "checkpoint_every"}
    lines = [line for line in TRAIN_CFG.format(epochs=2).splitlines()
             if line.split()[0] not in drop]
    return "\n".join([*lines, bad]) + "\n"


def _killed(*args):
    """A theory task whose worker process kills itself, as the OOM killer
    would."""
    assert multiprocessing.parent_process() is not None, "not in a worker"
    os.kill(os.getpid(), signal.SIGKILL)


def _cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "theory" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["sweep", "--help"]) == 0
        assert "--resume" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--turbo"]) == 1

    def test_bad_seed(self, capsys):
        assert main(["train", "--seed", "-3"]) == 1
        assert main(["train", "--seed", "soon"]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "warp_speed = 9\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"v = 0.5\n\xff\xfe = 1\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert not out.exists()

    def test_theory_without_kind(self, capsys):
        assert main(["theory", "--out", "unused"]) == 1
        assert "kind" in capsys.readouterr().err

    def test_corrupted_checkpoint_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = _cfg(tmp_path, TRAIN_CFG.format(epochs=2))
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        ckpt = out / "checkpoint.bin"
        blob = bytearray(ckpt.read_bytes())
        blob[-10] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        code = main(["train", "--config", cfg, "--out", str(out), "--resume"])
        assert code == 2
        assert "integrity" in capsys.readouterr().err

    def test_checkpoint_ahead_of_config_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--config",
                     _cfg(tmp_path, TRAIN_CFG.format(epochs=4)),
                     "--out", str(out)]) == 0
        code = main(["train", "--config",
                     _cfg(tmp_path, TRAIN_CFG.format(epochs=2), "less.cfg"),
                     "--out", str(out), "--resume"])
        assert code == 1

    def test_resume_refuses_a_bad_run_value(self, tmp_path, capsys):
        # --resume builds the fresh run too, so it refuses what a fresh run does
        out = tmp_path / "o"
        assert main(["train", "--config", _cfg(tmp_path, TRAIN_CFG.format(epochs=2)),
                     "--out", str(out)]) == 0
        saved = (out / "checkpoint.bin").read_bytes()
        bad = _cfg(tmp_path, TRAIN_CFG.format(epochs=4).replace("lr = 0.05", "lr = 0"),
                   "bad.cfg")
        capsys.readouterr()
        assert main(["train", "--config", bad, "--out", str(out), "--resume"]) == 1
        assert "lr must be positive" in capsys.readouterr().err
        assert (out / "checkpoint.bin").read_bytes() == saved

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("bad", ["n_classes = 1", "batch_size = 0", "spread = 0",
                                     "spread = inf"],
                             ids=["n_classes", "batch_size", "spread", "spread-inf"])
    def test_bad_sweep_config_exits_one(self, tmp_path, capsys, workers, bad):
        cfg = _cfg(tmp_path, (
            "n_per_class = 10\ndim = 4\nhidden_dims = 8\nepochs = 1\n"
            "repeats = 1\nv_grid = 0.5, inf\nalpha_grid = 0\n" + bad + "\n"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 1
        assert bad.split()[0] in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_without_workers_exits_one_before_making_out(self, tmp_path, capsys,
                                                               workers):
        cfg = _cfg(tmp_path, "n_per_class = 10\ndim = 4\nhidden_dims = 8\nepochs = 1\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_lost_theory_worker_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(_pool, "available_cpus", lambda: 2)
        monkeypatch.setattr(theory, "clip_error_mc", _killed)
        cfg = _cfg(tmp_path, "kind = theorem1\nn_samples = 500\n")
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the worker process died")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("message, line", [
        pytest.param("Unable to allocate 7.28 TiB for an array",
                     "error: out of memory (Unable to allocate 7.28 TiB for an array)",
                     id="with-message"),
        pytest.param("", "error: out of memory", id="no-message")])
    def test_out_of_memory_exits_two_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                   cpus, message, line):
        # raised in process at 1 CPU and in a map_ordered worker at 2; a real
        # allocation that large would stress the machine, not the code
        def out_of_memory(*args):
            assert (multiprocessing.parent_process() is not None) == (cpus == 2)
            raise MemoryError(message)

        monkeypatch.setattr(_pool, "available_cpus", lambda: cpus)
        monkeypatch.setattr(theory, "clip_error_mc", out_of_memory)
        cfg = _cfg(tmp_path, "kind = theorem1\nn_samples = 500\n")
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"{line}\n"

    @pytest.mark.parametrize("command", ["train", "quantize"])
    def test_zero_epochs_exits_one_before_writing(self, tmp_path, capsys, command):
        cfg = _cfg(tmp_path, TRAIN_CFG.format(epochs=0))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_spectral_zero_epochs_exits_one_before_writing(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_per_class = 25\ndim = 4\nhidden_dims = 8\n"
                             "epochs = 0\nprobe_pairs = 300\n")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_spectral_zero_probe_pairs_exits_one_before_writing(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_per_class = 25\ndim = 4\nhidden_dims = 8\n"
                             "epochs = 3\nprobe_pairs = 0\n")
        out = tmp_path / "o"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 1
        assert "probe_pairs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "quantize", "spectral"])
    @pytest.mark.parametrize("bad", ["noise_ratio = 1", "spread = 0", "spread = inf"],
                             ids=["noise_ratio", "spread", "spread-inf"])
    def test_bad_dataset_value_exits_one(self, tmp_path, capsys, command, bad):
        cfg = _cfg(tmp_path, _run_cfg(command, bad))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert bad.split()[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, bad, message", [
        *[pytest.param(command, bad, message, id=f"{command}-{bad.split()[0]}")
          for command in ("train", "quantize", "spectral")
          for bad, message in (("batch_size = 0", "batch_size must be >= 1"),
                               ("lr = 0", "lr must be positive"),
                               ("hidden_dims = 0", "layer dims must be positive"))],
        pytest.param("quantize", "v = inf", "requires active walls", id="quantize-v-inf"),
    ])
    def test_bad_run_value_exits_one_before_making_out(self, tmp_path, capsys,
                                                       command, bad, message):
        # the run is built, and quantize's walls checked, before --out is made
        cfg = _cfg(tmp_path, _run_cfg(command, bad))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_checkpoint_every_exits_one_before_making_out(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, _run_cfg("train", "checkpoint_every = -1"))
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert "checkpoint_every" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, bad", [
        ("theorem3", "lambda_grid = -1"),
        ("theorem3", "sigma = 2"),
        ("theorem3", "flow_dim = 0"),
        ("theorem1", "n_samples = 1"),
        ("theorem1", "sigma_grid = 1.5"),
        ("fig4b", "sigma = 0"),
        pytest.param("fig4b", "sigma = inf", id="fig4b-sigma-inf"),
        ("fig4a", "a = 0"),
    ], ids=lambda v: v.split()[0])
    def test_bad_theory_value_exits_one_before_writing(self, tmp_path, capsys, kind, bad):
        cfg = _cfg(tmp_path, f"kind = {kind}\n{bad}\n")
        out = tmp_path / "o"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and bad.split()[0] in err
        assert not out.exists()

    def test_failed_theory_check_exits_three(self, tmp_path, capsys):
        # starved sample budget: the 2% band cannot hold across the grid
        cfg = _cfg(tmp_path, "kind = theorem1\nn_samples = 500\n")
        code = main(["theory", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "1", "--check"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_passing_theory_check_exits_zero(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "kind = fig4b\nn_samples = 20000\n")
        code = main(["theory", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "0", "--check"])
        assert code == 0
        assert "checks: pass" in capsys.readouterr().out

    def test_infinite_lambda_is_the_constant_student_limit(self, tmp_path, capsys):
        # lambda = inf decays every weight to 0, so the error is a^2/3; the
        # closed form reads inf/inf there
        cfg = _cfg(tmp_path, "kind = theorem3\na = 1.5\nsigma = 0.5\n"
                             "lambda_grid = 0.5, inf\nn_samples = 20000\nflow_dim = 20000\n")
        out = tmp_path / "o"
        assert main(["theory", "--config", cfg, "--out", str(out), "--check"]) == 0
        finite, inf = read_csv(out / "theorem3.csv")[1]
        assert float(inf["predicted"]) == 1.5 * 1.5 / 3.0
        assert (inf["mc_within_2pct"], inf["flow_within_5pct"]) == ("true", "true")
        assert float(finite["predicted"]) == (0.25 + 0.25 * 2.25) / (3.0 * 1.5 ** 2)


class TestOutputs:
    def test_theory_kind_from_positional(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_samples = 20000\n")
        out = tmp_path / "o"
        assert main(["theory", "fig4b", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "fig4b.csv").exists()
        assert (out / "effective_config.txt").exists()

    def test_effective_config_echo_is_complete(self, tmp_path):
        out = tmp_path / "o"
        cfg = _cfg(tmp_path, TRAIN_CFG.format(epochs=2))
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        echo = (out / "effective_config.txt").read_text()
        assert "seed = 0" in echo
        assert "nu = " in echo  # defaults are echoed too, not just given keys
        assert "v = 0.5" in echo

    def test_train_writes_metrics_and_summary(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = _cfg(tmp_path, TRAIN_CFG.format(epochs=3))
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "best=" in stdout and "gap=" in stdout
        header, rows = read_csv(out / "metrics.csv")
        assert header == ("epoch", "train_loss", "train_acc", "test_loss", "test_acc")
        assert [r["epoch"] for r in rows] == ["1", "2", "3"]
        assert (out / "checkpoint.bin").exists()
        assert (out / "summary.csv").exists()

    def test_train_resume_matches_straight_run(self, tmp_path):
        cfg10 = _cfg(tmp_path, TRAIN_CFG.format(epochs=10), "ten.cfg")
        cfg5 = _cfg(tmp_path, TRAIN_CFG.format(epochs=5), "five.cfg")
        straight, split = tmp_path / "straight", tmp_path / "split"
        assert main(["train", "--config", cfg10, "--out", str(straight)]) == 0
        assert main(["train", "--config", cfg5, "--out", str(split)]) == 0
        assert main(["train", "--config", cfg10, "--out", str(split),
                     "--resume"]) == 0
        assert (straight / "metrics.csv").read_bytes() == \
               (split / "metrics.csv").read_bytes()
        assert (straight / "checkpoint.bin").read_bytes() == \
               (split / "checkpoint.bin").read_bytes()

    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, (
            "n_classes = 3\nn_per_class = 25\ndim = 4\nhidden_dims = 8\n"
            "optimizer = sgd\nlr = 0.05\nepochs = 2\nbatch_size = 16\n"
            "v_grid = 0.5, inf\nalpha_grid = 0, 1\nrepeats = 1\n"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", "1"]) == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header[0] == "v"
        assert len(rows) == 8  # 4 cells + 4 means
        # resume with everything present recomputes nothing and exits 0
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--resume"]) == 0

    def test_quantize_outputs(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, (
            "n_classes = 3\nn_per_class = 25\ndim = 4\nhidden_dims = 8\n"
            "optimizer = sgd\nlr = 0.2\nepochs = 6\nbatch_size = 16\n"
            "v = 0.5\nalpha = 0\nmode = ternary\nperiod_epochs = 2\n"))
        out = tmp_path / "o"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        assert "quantized_test_acc=" in capsys.readouterr().out
        for name in ("metrics.csv", "weights.vzqw", "walls.csv", "summary.csv"):
            assert (out / name).exists(), name

    def test_quantize_float_accuracy_is_the_last_epochs(self, tmp_path, capsys):
        # the final epoch never rounds, so the float net's test accuracy is
        # the one metrics.csv records for it; 5 epochs round at 2 and 4 only
        cfg = _cfg(tmp_path, "epochs = 5\nperiod_epochs = 2\n")
        out = tmp_path / "o"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        summary = {r["key"]: r["value"] for r in read_csv(out / "summary.csv")[1]}
        assert summary["quantize_events"] == "2"
        assert summary["float_test_acc"] == read_csv(out / "metrics.csv")[1][-1]["test_acc"]

    def test_quantize_default_walls_are_active(self, tmp_path, capsys):
        # quantize's own defaults, v = 0.5 and alpha = 0, need no wall keys
        out = tmp_path / "o"
        assert main(["quantize", "--config", _cfg(tmp_path, "epochs = 2\n"),
                     "--out", str(out)]) == 0
        assert (out / "weights.vzqw").exists()
        echo = (out / "effective_config.txt").read_text(encoding="utf-8")
        assert "\nv = 0.5\n" in echo and "\nalpha = 0" in echo

    def test_spectral_outputs(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, (
            "n_per_class = 25\ndim = 4\nhidden_dims = 8\noptimizer = sgd\n"
            "lr = 0.05\nepochs = 3\nbatch_size = 16\nprobe_pairs = 300\n"))
        out = tmp_path / "o"
        assert main(["spectral", "--config", cfg, "--out", str(out)]) == 0
        assert "ok=True" in capsys.readouterr().out
        header, rows = read_csv(out / "layers.csv")
        assert len(rows) == 2  # one row per weight matrix
        summary = {r["key"]: r["value"] for r in read_csv(out / "summary.csv")[1]}
        assert summary["ok"] == "true"


def _module_env():
    # a `python -m` child imports the package this suite imports, as pytest's
    # pythonpath setting makes it, with no install and no PYTHONPATH set
    src = os.path.dirname(os.path.dirname(os.path.abspath(volumize.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class TestInterrupt:
    @pytest.mark.parametrize("signum, code, line", [
        pytest.param(signal.SIGINT, 130, "interrupted", id="SIGINT"),
        pytest.param(signal.SIGTERM, 143, "terminated", id="SIGTERM")])
    def test_sigint_exits_130_with_one_line(self, tmp_path, signum, code, line):
        cfg = _cfg(tmp_path, "hidden_dims = 256,256\nepochs = 400\n")
        out = tmp_path / "o"
        proc = subprocess.Popen(
            [sys.executable, "-m", "volumize", "train", "--config", cfg, "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_module_env(),
            start_new_session=True,
            # a shell that starts the suite in the background ignores SIGINT,
            # and the child would inherit that
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not out.exists():  # made once the run is built
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.5)  # into the epochs, with the evaluator running
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == code
        assert err == f"{line}\n"
        deadline = time.monotonic() + 2
        while True:  # every process of the run's session has exited
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process outlived the run"
            time.sleep(0.05)
        assert list(out.glob("*.tmp")) == []


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("volumize") is None,
                        reason="volumize is not installed on PATH")
    def test_installed_entry_point(self):
        proc = subprocess.run(["volumize", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "spectral" in proc.stdout

    def test_declared_entry_point_resolves(self, capsys):
        # the console script pyproject.toml declares, resolved without an install
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"volumize": "volumize.cli:main"}
        module, _, attr = scripts["volumize"].partition(":")
        main_fn = getattr(importlib.import_module(module), attr)
        assert main_fn(["--help"]) == 0
        assert "spectral" in capsys.readouterr().out

    def test_package_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "volumize", "--help"],
                              capture_output=True, text=True, env=_module_env())
        assert proc.returncode == 0
        assert "spectral" in proc.stdout

    def test_module_invocation_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "volumize.cli", "theory"],
            capture_output=True, text=True, env=_module_env())
        assert proc.returncode == 1
        assert "config error" in proc.stderr
