"""Training runs checked bit for bit against tests/reference.py, a plain
Python trainer that spells out how a run composes its kernels: the update
before the walls, the momentum scaled by the walls, biases walled with
their weights, the minibatch divisor and the shuffle order."""

import numpy as np
import pytest

from reference import train
from volumize import _pool
from volumize.data import Dataset, gen_blobs
from volumize.linalg import SeededRng, stable_hash
from volumize.net import LayerSpec, init_network
from volumize.optimizers import OptimizerSpec
from volumize.training import new_run, run_epochs
from volumize.volumization import VolumizationConfig

SHAPES = ((3, 5), (5, 2))
ACTIVATIONS = ("relu", "identity")


def _one_hot_blobs():
    """10 training rows of 3-dim blobs with one-hot float labels, the 2-D
    targets the mse loss takes."""
    blobs = gen_blobs(SeededRng(stable_hash("reference", "data")), n_classes=2,
                      n_per_class=6, dim=3)
    eye = np.eye(2)
    return Dataset(x_train=blobs.x_train, y_train=eye[blobs.y_train],
                   x_test=blobs.x_test, y_test=eye[blobs.y_test],
                   n_classes=2, centers=blobs.centers)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("walls", [
    VolumizationConfig(),
    VolumizationConfig(v=0.05, alpha=0.5),
    VolumizationConfig(v=0.05, alpha=-0.8, overshoot_policy="clamp"),
], ids=["off", "alpha-0.5", "alpha--0.8-clamp"])
@pytest.mark.parametrize("kind", ["sgd", "adam", "laprop"])
def test_run_matches_the_reference_bit_for_bit(monkeypatch, kind, walls, cpus):
    # at 2 CPUs each epoch is evaluated in a forked evaluator, at 1 in process
    monkeypatch.setattr(_pool, "available_cpus", lambda: cpus)
    data = _one_hot_blobs()
    net = init_network([LayerSpec(n_in, n_out, activation=act)
                        for (n_in, n_out), act in zip(SHAPES, ACTIVATIONS)],
                       SeededRng(stable_hash("reference", "init")))
    spec = OptimizerSpec(kind=kind, lr=0.05)
    run = new_run(net, spec, walls, SeededRng(stable_hash("reference", "train")),
                  batch_size=4, loss="mse")
    arena = run.net.params.copy()
    perms = []
    draw = run.shuffle_rng.permutation
    run.shuffle_rng.permutation = lambda n: perms.append(draw(n)) or perms[-1]

    run_epochs(run, data, 2)

    assert len(perms) == 2
    opt = {"kind": kind, "lr": spec.lr, "mu": spec.mu, "nu": spec.nu, "eps": spec.eps,
           "bias_correction": spec.bias_correction}
    p, m, n = train(SHAPES, ACTIVATIONS, arena, data.x_train, data.y_train, perms,
                    run.batch_size, opt, vols=run.vols, alpha=walls.alpha,
                    clamp=walls.overshoot_policy == "clamp")
    assert _bits(run.net.params) == _bits(p)
    assert _bits(run.opt_state.m) == _bits(m)
    if kind != "sgd":
        assert _bits(run.opt_state.n) == _bits(n)
