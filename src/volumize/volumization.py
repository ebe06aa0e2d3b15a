"""Post-step weight transform that pulls out-of-volume weights toward walls.

Each layer gets one wall position V >= 0, shared by its weight and bias (in
absolute units; ``derive_layer_volumes`` maps the user-facing relative knob
v through the layer's init scale a = sqrt(6/fan)), and a pull strength
alpha:

    alpha = 1   leave crossed weights alone (identity)
    0 < a < 1   move them part way back to the wall, momentum scaled too
    alpha = 0   hard clip onto the wall
    alpha < 0   reflect them back inside, elastically at alpha = -1
    V = 0       pure multiplicative decay of weights and momentum

The update is computed as alpha*w + (1-alpha)*V*sgn(w), which the exactness
contract requires: with V = 0 it is bitwise alpha*w, with alpha = 0 bitwise
a clip, with alpha = 1 bitwise the identity.

A strongly negative alpha with a small V can reflect a far-out weight past
the opposite wall; overshoot_policy says whether to leave that as-is
("leave", default) or clamp the result into [-V, V] ("clamp").

The walls follow the fan convention the network was initialized under
(each layer's a already carries it), so VolumizationConfig has no fan
setting of its own.
"""

from dataclasses import dataclass

from . import _kernels
from .errors import ConfigError, ShapeError

OVERSHOOT_POLICIES = ("leave", "clamp")


@dataclass(frozen=True)
class VolumizationConfig:
    """User-facing knobs; v is relative to each layer's init scale."""

    v: float = float("inf")
    alpha: float = 1.0
    overshoot_policy: str = "leave"

    def __post_init__(self):
        if not (self.v >= 0.0):  # catches NaN too
            raise ConfigError(f"v must be >= 0 (inf = off), got {self.v}")
        if not -1.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [-1, 1], got {self.alpha}")
        check_overshoot_policy(self.overshoot_policy)

    @property
    def enabled(self) -> bool:
        return not _kernels._is_identity(self.v, self.alpha)


def check_overshoot_policy(overshoot_policy: str) -> None:
    """Raises ConfigError unless overshoot_policy is one of OVERSHOOT_POLICIES."""
    if overshoot_policy not in OVERSHOOT_POLICIES:
        raise ConfigError(f"overshoot_policy must be one of {OVERSHOOT_POLICIES}, "
                          f"got {overshoot_policy!r}")


def check_walls(net, vols) -> None:
    """Raises ShapeError unless vols holds one wall per layer of net."""
    if len(vols) != len(net.layers):
        raise ShapeError(f"got {len(vols)} walls for {len(net.layers)} layers")


def apply_volumization(net, state, vols, alpha: float, overshoot_policy: str = "leave") -> None:
    """In-place transform over every layer slice of the network's arena.

    ``vols`` holds one wall per layer; ``state.m`` rides along (optimizer
    first moments are decayed with their weights).
    """
    check_walls(net, vols)
    check_overshoot_policy(overshoot_policy)
    clamp = overshoot_policy == "clamp"
    for sl, vol in zip(net.layer_slices, vols):
        _kernels.volumize(net.params[sl], state.m[sl], float(vol), float(alpha), clamp)


def derive_layer_volumes(net, cfg: VolumizationConfig):
    """One absolute wall per layer, V = cfg.v * a(layer), for its weight and
    bias alike, with a under the net's own fan convention; None when the
    transform is inactive."""
    if not cfg.enabled:
        return None
    return tuple(cfg.v * layer.init_scale_a for layer in net.layers)
