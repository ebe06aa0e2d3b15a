"""End-to-end CLI behavior: exit codes, outputs, resume."""

import importlib
import os
import shutil
import subprocess
import sys

import pytest

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("bad", ["n_classes = 1", "batch_size = 0"],
                             ids=["n_classes", "batch_size"])
    def test_bad_sweep_config_exits_one(self, tmp_path, capsys, workers, bad):
        cfg = _cfg(tmp_path, (
            "n_per_class = 10\ndim = 4\nhidden_dims = 8\nepochs = 1\n"
            "repeats = 1\nv_grid = 0.5, inf\nalpha_grid = 0\n" + bad + "\n"))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 1
        assert bad.split()[0] in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["train", "quantize"])
    def test_zero_epochs_exits_one_before_writing(self, tmp_path, capsys, command):
        cfg = _cfg(tmp_path, TRAIN_CFG.format(epochs=0))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

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
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "spectral" in proc.stdout

    def test_module_invocation_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "volumize.cli", "theory"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error" in proc.stderr
