"""Shared fixtures: tiny nets, datasets, rngs and a spy on the processes
_pool forks, used across the suite."""

import multiprocessing
import os

import numpy as np
import pytest

from volumize import (
    Dataset,
    LayerSpec,
    OptimizerSpec,
    SeededRng,
    _pool,
    gen_blobs,
    init_network,
    stable_hash,
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a live child process behind, as the
    benchmark fails a run that does; the children are then ended, so the
    next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for p in left:
        p.terminate()
        p.join(timeout=10)
    assert left == [], f"child processes left running: {left}"


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """Logs "<pid> <name>" for every process that _pool.served forks, from
    any process, with the pid of the process that forks it; the value reads
    the log. A map over N workers logs N "worker" lines."""
    log = tmp_path / "forks.txt"
    real = _pool.served

    def served(answer, name):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{os.getpid()} {name}\n")
        return real(answer, name)

    monkeypatch.setattr(_pool, "served", served)
    return lambda: log.read_text().splitlines() if log.exists() else []


@pytest.fixture
def rng():
    return SeededRng(stable_hash("tests", 0))


@pytest.fixture
def small_net(rng):
    """8 -> 16 -> 4 relu MLP, He-uniform init."""
    specs = [LayerSpec(8, 16, activation="relu"), LayerSpec(16, 4)]
    return init_network(specs, rng.spawn("net"))


@pytest.fixture
def tiny_data(rng):
    """Separable 3-class blobs, small enough for fast epochs."""
    return gen_blobs(rng.spawn("data"), n_classes=3, n_per_class=40, dim=5, spread=0.5)


@pytest.fixture
def sgd_spec():
    return OptimizerSpec(kind="sgd", lr=0.05, mu=0.9)


def random_matrix(rng, rows, cols, scale=1.0):
    return scale * (2.0 * rng.random((rows, cols)) - 1.0)


@pytest.fixture
def np_rng():
    return np.random.default_rng(1234)
