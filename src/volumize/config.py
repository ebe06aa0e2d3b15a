"""Flat key=value config files with explicit schemas.

Files look like

    # comment
    v = 0.5
    alpha_grid = -1, 0, 0.99
    optimizer = adam

One key per line, '#' starts a comment, later duplicate keys are an error
(silent last-wins hides typos). Every run echoes its effective config (all
keys, defaults filled in, canonical formatting) so an output directory is
self-describing.

The schemas below own every key and its default, and the builders at the
end, the one check of a training config's values, make its run objects:
the dataset, model, optimizer, walls and run. Each builder takes the seed
its caller derived for it, so `train` and a sweep cell build the same
objects from the same values and differ only in how they derive their seeds.
"""

import math
from dataclasses import dataclass

# data, net and training are reached through their modules at call time, so
# a wrapper installed on data.gen_blobs or the like (perfbench's tracer) sees
# the builders' calls
from . import data, net, training
from .csvio import format_value
from .errors import ConfigError
from .linalg import SeededRng
from .optimizers import KINDS, OptimizerSpec
from .quantizer import MODES
from .volumization import OVERSHOOT_POLICIES, VolumizationConfig

_TYPES = ("int", "float", "bool", "str", "floats", "ints")
_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass(frozen=True)
class Field:
    type: str
    default: object = None
    required: bool = False
    choices: tuple = ()

    def __post_init__(self):
        if self.type not in _TYPES:
            raise ConfigError(f"unknown field type {self.type!r}")


def parse_kv_file(path) -> dict:
    """Raw key -> string-value mapping; no typing yet."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    out = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _coerce_scalar(key: str, value: str, ftype: str):
    try:
        if ftype == "int":
            return int(value)
        if ftype == "float":
            return float(value)
        if ftype == "bool":
            if value.lower() not in _BOOL:
                raise ConfigError(f"{key}: expected a boolean, got {value!r}")
            return _BOOL[value.lower()]
        return value
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as {ftype}") from None


def coerce(key: str, value: str, field: Field):
    if field.type in ("floats", "ints"):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: expected at least one value")
        return tuple(_coerce_scalar(key, p, field.type.removesuffix("s")) for p in parts)
    out = _coerce_scalar(key, value, field.type)
    if field.choices and out not in field.choices:
        raise ConfigError(f"{key}: must be one of {field.choices}, got {out!r}")
    return out


def apply_schema(raw: dict, schema: dict, source: str = "config") -> dict:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{source}: unknown keys {unknown}")
    out = {}
    for key, field in schema.items():
        if key in raw:
            out[key] = coerce(key, raw[key], field)
        elif field.required:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            out[key] = field.default
    return out


def load_config(path, schema: dict, overrides: dict | None = None) -> dict:
    """Typed values of the file at path (if any) with overrides, raw strings
    such as a command-line argument, on top; defaults fill in the rest."""
    raw = parse_kv_file(path) if path else {}
    raw.update(overrides or {})
    return apply_schema(raw, schema, source=str(path) if path else "command line")


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(format_value(x) for x in v)
    return format_value(v)


EFFECTIVE_CONFIG = "effective_config.txt"  # the echo's name in every out_dir


def effective_config_text(values: dict) -> str:
    """Canonical echo: sorted keys, one per line, re-parseable."""
    lines = [f"{k} = {_format_value(values[k])}" for k in sorted(values)]
    return "\n".join(lines) + "\n"


# --- schemas ------------------------------------------------------------

_DATASET_FIELDS = {
    "n_classes": Field("int", 4),
    "n_per_class": Field("int", 250),
    "dim": Field("int", 8),
    "spread": Field("float", 1.0),
    "noise_ratio": Field("float", 0.0),
}

_MODEL_FIELDS = {
    "hidden_dims": Field("ints", (32,)),
    "activation": Field("str", "relu", choices=net.ACTIVATIONS),
    "fan_mode": Field("str", "fan_in", choices=net.FAN_MODES),
}

_OPT_FIELDS = {
    "optimizer": Field("str", "adam", choices=KINDS),
    "lr": Field("float", 1e-4),
    "mu": Field("float", 0.9),
    "nu": Field("float", 0.999),
    "eps": Field("float", 1e-8),
    "bias_correction": Field("bool", True),
    "epochs": Field("int", 100),
    "batch_size": Field("int", 128),
}

_VOL_FIELDS = {
    "v": Field("float", float("inf")),
    "alpha": Field("float", 1.0),
    "overshoot_policy": Field("str", "leave", choices=OVERSHOOT_POLICIES),
}

TRAIN_SCHEMA = {
    **_DATASET_FIELDS, **_MODEL_FIELDS, **_OPT_FIELDS, **_VOL_FIELDS,
    "checkpoint_every": Field("int", 0),
}

SWEEP_SCHEMA = {
    **_DATASET_FIELDS, **_MODEL_FIELDS, **_OPT_FIELDS,
    "overshoot_policy": Field("str", "leave", choices=OVERSHOOT_POLICIES),
    "v_grid": Field("floats", (0.25, 0.5, 1.0, 2.0, float("inf"))),
    "alpha_grid": Field("floats", (-1.0, -0.5, 0.0, 0.5, 0.99, 0.9999, 1.0)),
    "repeats": Field("int", 3),
}

QUANTIZE_SCHEMA = {
    **TRAIN_SCHEMA,
    # active walls by default, at criterion 11's ternary setting
    "v": Field("float", 0.5),
    "alpha": Field("float", 0.0),
    "mode": Field("str", "ternary", choices=MODES),
    "period_epochs": Field("int", 2),
}

SPECTRAL_SCHEMA = {
    **_DATASET_FIELDS, **_MODEL_FIELDS, **_OPT_FIELDS,
    "probe_pairs": Field("int", 10000),
}

THEORY_SCHEMA = {
    "kind": Field("str", required=True,
                  choices=("fig4a", "fig4b", "theorem1", "theorem3")),
    "a": Field("float", 1.0),
    "sigma": Field("float", 0.5),
    "sigma_grid": Field("floats", tuple(round(0.1 * i, 10) for i in range(1, 11))),
    "v_grid_points": Field("int", 41),
    "v_max": Field("float", 2.0),
    "lambda_grid": Field("floats", (0.25, 0.5, 1.0, 2.0, 4.0)),
    "n_samples": Field("int", 10_000_000),
    "flow_dim": Field("int", 200_000),
}


# --- builders -----------------------------------------------------------

def check_theory_cfg(cfg: dict) -> None:
    """Refuse, as config errors, the theory values the lab refuses as domain
    errors (or fails on), checking only the keys the configured kind reads."""
    kind, a = cfg["kind"], cfg["a"]
    if not 0 < a < math.inf:
        raise ConfigError(f"a must be positive and finite, got {a}")
    if cfg["n_samples"] < 2:
        raise ConfigError(f"n_samples must be >= 2, got {cfg['n_samples']}")
    if kind in ("theorem1", "fig4a"):
        for sigma in cfg["sigma_grid"]:
            if not 0 <= sigma <= a:
                raise ConfigError(f"sigma_grid values must lie in [0, a={a}], got {sigma}")
    if kind == "fig4a":
        if cfg["v_grid_points"] < 2:
            raise ConfigError(f"v_grid_points must be >= 2, got {cfg['v_grid_points']}")
        if not 0 < cfg["v_max"] < math.inf:
            raise ConfigError(f"v_max must be positive and finite, got {cfg['v_max']}")
    if kind == "fig4b" and not 0 < cfg["sigma"] < math.inf:
        raise ConfigError("sigma (the cauchy scale) must be positive and finite, "
                          f"got {cfg['sigma']}")
    if kind == "theorem3":
        if not 0 <= cfg["sigma"] <= a:
            raise ConfigError(f"sigma must lie in [0, a={a}], got {cfg['sigma']}")
        for lam in cfg["lambda_grid"]:
            if not lam >= 0:
                raise ConfigError(f"lambda_grid values must be >= 0, got {lam}")
        if cfg["flow_dim"] < 1:
            raise ConfigError(f"flow_dim must be >= 1, got {cfg['flow_dim']}")


def dataset_from_cfg(cfg: dict, seed: int):
    """Blobs from the dataset keys, then label noise, each on its own child
    stream of seed."""
    root = SeededRng(seed)
    blobs = data.gen_blobs(root.spawn("blobs"), n_classes=cfg["n_classes"],
                           n_per_class=cfg["n_per_class"], dim=cfg["dim"],
                           spread=cfg["spread"])
    return data.inject_label_noise(blobs, cfg["noise_ratio"], root.spawn("noise"))


def model_from_cfg(cfg: dict, seed: int):
    """dim -> hidden_dims -> n_classes, the configured activation on every
    hidden layer and none on the output, initialized from seed."""
    if min(cfg["hidden_dims"], default=1) < 1:
        raise ConfigError(f"hidden_dims must be >= 1, got {min(cfg['hidden_dims'])}")
    dims = [cfg["dim"], *cfg["hidden_dims"], cfg["n_classes"]]
    specs = [
        net.LayerSpec(dims[i], dims[i + 1],
                      activation=cfg["activation"] if i + 2 < len(dims) else "identity")
        for i in range(len(dims) - 1)
    ]
    return net.init_network(specs, SeededRng(seed), fan_mode=cfg["fan_mode"])


def optimizer_from_cfg(cfg: dict) -> OptimizerSpec:
    return OptimizerSpec(kind=cfg["optimizer"], lr=cfg["lr"], mu=cfg["mu"],
                         nu=cfg["nu"], eps=cfg["eps"],
                         bias_correction=cfg["bias_correction"])


def walls_from_cfg(cfg: dict) -> VolumizationConfig:
    return VolumizationConfig(v=cfg["v"], alpha=cfg["alpha"],
                              overshoot_policy=cfg["overshoot_policy"])


def run_from_cfg(cfg: dict, data_seed: int, init_seed: int, train_seed: int,
                 walls=None, vols=None):
    """(dataset, a new TrainingRun) from cfg and the seeds of the data, the
    weights and the shuffle stream. walls, a VolumizationConfig, replaces
    the config's walls; vols maps the net to its walls (new_run's vols)."""
    if cfg["epochs"] < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg['epochs']}")
    dataset = dataset_from_cfg(cfg, data_seed)
    model = model_from_cfg(cfg, init_seed)
    run = training.new_run(model, optimizer_from_cfg(cfg),
                           walls_from_cfg(cfg) if walls is None else walls,
                           SeededRng(train_seed), batch_size=cfg["batch_size"],
                           vols=None if vols is None else vols(model))
    return dataset, run
