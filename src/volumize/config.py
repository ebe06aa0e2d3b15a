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
end are the one place typed values become run objects: the dataset, the
model, the optimizer and the walls. Each builder takes the seed its caller
derived for it, so `train` and a sweep cell build the same objects from the
same values and differ only in how they derive their seeds.
"""

from dataclasses import dataclass

# data and net are reached through their modules at call time, so a wrapper
# installed on data.gen_blobs or net.init_network (perfbench's tracer) sees
# the builders' calls
from . import data, net
from .csvio import format_value
from .errors import ConfigError
from .linalg import SeededRng
from .optimizers import OptimizerSpec
from .volumization import VolumizationConfig

_TYPES = ("int", "u64", "float", "bool", "str", "floats", "ints")
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
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
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
        if ftype == "u64":
            n = int(value)
            if not 0 <= n < 2 ** 64:
                raise ConfigError(f"{key}: seed must fit in 64 unsigned bits, got {n}")
            return n
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
    if field.type == "floats":
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: expected at least one value")
        return tuple(_coerce_scalar(key, p, "float") for p in parts)
    if field.type == "ints":
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: expected at least one value")
        return tuple(_coerce_scalar(key, p, "int") for p in parts)
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
    "activation": Field("str", "relu", choices=("identity", "relu", "tanh")),
    "fan_mode": Field("str", "fan_in", choices=("fan_in", "fan_out")),
}

_OPT_FIELDS = {
    "optimizer": Field("str", "adam", choices=("sgd", "adam", "laprop")),
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
    "overshoot_policy": Field("str", "leave", choices=("leave", "clamp")),
}

TRAIN_SCHEMA = {
    **_DATASET_FIELDS, **_MODEL_FIELDS, **_OPT_FIELDS, **_VOL_FIELDS,
    "checkpoint_every": Field("int", 0),
}

SWEEP_SCHEMA = {
    **_DATASET_FIELDS, **_MODEL_FIELDS, **_OPT_FIELDS,
    "overshoot_policy": Field("str", "leave", choices=("leave", "clamp")),
    "v_grid": Field("floats", (0.25, 0.5, 1.0, 2.0, float("inf"))),
    "alpha_grid": Field("floats", (-1.0, -0.5, 0.0, 0.5, 0.99, 0.9999, 1.0)),
    "repeats": Field("int", 3),
}

QUANTIZE_SCHEMA = {
    **TRAIN_SCHEMA,
    "mode": Field("str", "ternary", choices=("binary", "ternary")),
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
                              fan_mode=cfg["fan_mode"],
                              overshoot_policy=cfg["overshoot_policy"])
