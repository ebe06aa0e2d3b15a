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
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _assert_one_pass_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_train_small_is_correct(trace):
    _assert_one_pass_is_correct("train-small", trace)


def test_sweep_wide_is_correct():
    _assert_one_pass_is_correct("sweep-wide", 0)


def test_theory_mc_is_correct():
    _assert_one_pass_is_correct("theory-mc", 0)


def test_theory_mc_traced_is_correct():
    _assert_one_pass_is_correct("theory-mc", 1)
