"""The benchmark still runs against this tree and its checks still pass.

``perfbench/run.py`` imports volumize from ``src`` and wraps some of its
functions (the tracer, the step clock, the quantized-weight capture), then
compares every output with ``perfbench/digests.json``. One train-small
pass at seed 0, untraced and traced, catches a renamed hook, a changed
signature or a moved output byte; one sweep-wide pass checks the step
clock's wrapper of ``sweep.train_model``, the sweep workers' step spool and
the sweep's cell digests; one theory-mc pass catches a moved byte of the
theorem1, fig4a, fig4b or theorem3 tables, and its traced pass runs the
tracer's worker spool on the spans of the theory pools' workers.

The passes run in a copy of perfbench/, src/ and BENCHMARK.json, so they
write their results into the copy's .perfbench_out/, not the checkout's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", root)
    return root


def _assert_one_pass_is_correct(root, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_train_small_is_correct(bench_root, trace):
    _assert_one_pass_is_correct(bench_root, "train-small", trace)


def test_sweep_wide_is_correct(bench_root):
    _assert_one_pass_is_correct(bench_root, "sweep-wide", 0)


def test_theory_mc_is_correct(bench_root):
    _assert_one_pass_is_correct(bench_root, "theory-mc", 0)


def test_theory_mc_traced_is_correct(bench_root):
    _assert_one_pass_is_correct(bench_root, "theory-mc", 1)
