"""End-to-end CLI behavior: exit codes, outputs, resume."""

import contextlib
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
from volumize import _pool, quantizer, theory
from volumize.checkpoint import load_checkpoint
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


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
    @pytest.mark.parametrize("bad, message", [
        ("n_classes = 1", "n_classes"), ("batch_size = 0", "batch_size"),
        ("spread = 0", "spread"), ("spread = inf", "spread"),
        ("lr = 0", "lr must be positive"), ("hidden_dims = 0", "hidden_dims must be >= 1"),
        ("noise_ratio = 1", "noise_ratio")],
        ids=["n_classes", "batch_size", "spread", "spread-inf", "lr", "hidden_dims",
             "noise_ratio"])
    def test_bad_sweep_config_exits_one(self, tmp_path, capsys, forks, workers, bad,
                                        message):
        # the spec builds its first cell's run, so the sweep refuses what
        # train refuses, before --out is made or a worker is forked
        lines = ["n_per_class = 10", "dim = 4", "hidden_dims = 8", "epochs = 1",
                 "repeats = 1", "v_grid = 0.5, inf", "alpha_grid = 0"]
        cfg = _cfg(tmp_path, "\n".join(
            [line for line in lines if line.split()[0] != bad.split()[0]] + [bad, ""]))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()
        assert forks() == []

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
                               ("hidden_dims = 0", "hidden_dims must be >= 1"))],
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

    def test_quantize_unwritable_out_exits_two_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        # the walls are checked and --out made before the first epoch, so an
        # unwritable --out costs no training time
        epochs = []
        monkeypatch.setattr(quantizer, "run_epochs",
                            lambda run, data, n, **kw: epochs.append(n))
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cfg = _cfg(tmp_path, _run_cfg("quantize", "v = 0.5"))
        assert main(["quantize", "--config", cfg, "--out", str(blocker / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert epochs == []

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

    def test_train_resume_deletes_a_killed_writers_temp_files(self, tmp_path):
        cfg4 = _cfg(tmp_path, TRAIN_CFG.format(epochs=4), "four.cfg")
        cfg2 = _cfg(tmp_path, TRAIN_CFG.format(epochs=2), "two.cfg")
        straight, split = tmp_path / "straight", tmp_path / "split"
        assert main(["train", "--config", cfg4, "--out", str(straight)]) == 0
        assert main(["train", "--config", cfg2, "--out", str(split)]) == 0
        # as write_atomic leaves them when its process is killed mid-write
        (split / "checkpoint.bin.424242.tmp").write_bytes(b"torn")
        (split / "metrics.csv.7.tmp").write_bytes(b"torn")
        assert main(["train", "--config", cfg4, "--out", str(split), "--resume"]) == 0
        assert _tree(split) == _tree(straight)

    def test_sweep_resume_deletes_a_killed_writers_temp_files(self, tmp_path):
        cfg = _cfg(tmp_path, (
            "n_classes = 3\nn_per_class = 25\ndim = 4\nhidden_dims = 8\n"
            "optimizer = sgd\nlr = 0.05\nepochs = 2\nbatch_size = 16\n"
            "v_grid = 0.5, inf\nalpha_grid = 0\nrepeats = 1\n"))
        whole, partial = tmp_path / "whole", tmp_path / "partial"
        assert main(["sweep", "--config", cfg, "--out", str(whole)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(partial)]) == 0
        os.remove(partial / "cells" / "cell_v1_a0_r0.json")
        (partial / "cells" / "cell_v1_a0_r0.json.424242.tmp").write_bytes(b"torn")
        (partial / "cells" / "cell_v0_a0_r0.json.424243.tmp").write_bytes(b"torn")
        (partial / "sweep.csv.424241.tmp").write_bytes(b"torn")
        assert main(["sweep", "--config", cfg, "--out", str(partial), "--resume"]) == 0
        assert _tree(partial) == _tree(whole)

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


def _session(sid):
    """Pids of the live processes of session sid, read from /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                state, _, _, session = f.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):  # not a process, or one that has gone
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


SIGNALS = [pytest.param(signal.SIGINT, 130, "interrupted", id="SIGINT"),
           pytest.param(signal.SIGTERM, 143, "terminated", id="SIGTERM")]


class TestInterrupt:
    @staticmethod
    def _interrupt(argv, out, ready, signum, code, line):
        """Starts `python -m volumize *argv` in its own session, sends signum
        once ready(session pids) holds, and checks the exit: code, line as
        the whole of stderr, no process of the session left 2 s later and
        no temp file under out."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "volumize", *argv, "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_module_env(),
            start_new_session=True,
            # a shell that starts the suite in the background ignores SIGINT,
            # and the child would inherit that
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not ready(_session(proc.pid)):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
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
        assert list(out.rglob("*.tmp")) == []

    @pytest.mark.parametrize("signum, code, line", SIGNALS)
    def test_sigint_exits_130_with_one_line(self, tmp_path, signum, code, line):
        cfg = _cfg(tmp_path, "hidden_dims = 256,256\nepochs = 400\n")
        out = tmp_path / "o"

        def ready(_):
            if not out.exists():  # made once the run is built
                return False
            time.sleep(0.5)  # into the epochs, with the evaluator running
            return True

        self._interrupt(["train", "--config", cfg], out, ready, signum, code, line)

    @pytest.mark.skipif(not os.path.isdir("/proc") or _pool.available_cpus() < 2,
                        reason="reads the session's processes from /proc; "
                               "a flow helper needs a spare CPU")
    @pytest.mark.parametrize("signum, code, line", SIGNALS)
    @pytest.mark.parametrize("command, text, children", [
        # two workers through a sweep far longer than the test
        pytest.param(["sweep", "--workers", "2"],
                     "n_per_class = 100\nhidden_dims = 64\nepochs = 400\n"
                     "v_grid = 0.5, inf\nalpha_grid = 0, 1\nrepeats = 2\n", 2, id="sweep"),
        # the flows come first, beside their helper; forty of them at the
        # default flow_dim of 2e5 outlast the test
        pytest.param(["theory", "theorem3"],
                     "n_samples = 1000\nlambda_grid = " + ", ".join(["0.25"] * 40) + "\n",
                     1, id="theorem3")])
    def test_served_processes_end_with_the_command(self, tmp_path, command, text, children,
                                                   signum, code, line):
        cfg = _cfg(tmp_path, text)
        self._interrupt([*command, "--config", cfg], tmp_path / "o",
                        lambda pids: len(pids) > children, signum, code, line)


class TestKilled:
    def test_resume_after_sigkill_gives_the_uninterrupted_bytes(self, tmp_path):
        cfg = _cfg(tmp_path, TRAIN_CFG.format(epochs=400).replace(
            "checkpoint_every = 0", "checkpoint_every = 1"))
        straight, killed = tmp_path / "straight", tmp_path / "killed"
        assert main(["train", "--config", cfg, "--out", str(straight)]) == 0
        ckpt = killed / "checkpoint.bin"
        proc = subprocess.Popen(
            [sys.executable, "-m", "volumize", "train", "--config", cfg,
             "--out", str(killed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_module_env(),
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            # checkpoints are replaced atomically, so each read sees a whole one
            while not (ckpt.exists() and load_checkpoint(ckpt).epoch >= 2):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the run and its evaluator
            proc.communicate()
        assert proc.returncode == -signal.SIGKILL
        assert 2 <= load_checkpoint(ckpt).epoch < 400
        assert main(["train", "--config", cfg, "--out", str(killed), "--resume"]) == 0
        assert _tree(killed) == _tree(straight)

    def test_sweep_resume_after_sigkill_between_cells_gives_the_uninterrupted_bytes(
            self, tmp_path):
        cfg = _cfg(tmp_path, (
            "n_classes = 3\nn_per_class = 100\ndim = 4\nhidden_dims = 64\n"
            "optimizer = sgd\nlr = 0.05\nepochs = 60\nbatch_size = 16\n"
            "v_grid = 0.5, inf\nalpha_grid = 0, 1\nrepeats = 1\n"))
        argv = ["sweep", "--config", cfg, "--workers", "1"]
        straight, killed = tmp_path / "straight", tmp_path / "killed"
        assert main([*argv, "--out", str(straight)]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "volumize", *argv, "--out", str(killed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_module_env(),
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            # cell files are written atomically: a cell is there whole or not at all
            while not list((killed / "cells").glob("*.json")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        assert proc.returncode == -signal.SIGKILL
        assert not (killed / "sweep.csv").exists()
        assert main([*argv, "--out", str(killed), "--resume"]) == 0
        assert _tree(killed) == _tree(straight)


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
