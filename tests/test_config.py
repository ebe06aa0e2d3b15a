"""key=value config parsing, schemas, and the canonical echo."""

import math

import pytest

from volumize import runs, sweep
from volumize.config import (
    QUANTIZE_SCHEMA,
    SWEEP_SCHEMA,
    THEORY_SCHEMA,
    TRAIN_SCHEMA,
    Field,
    apply_schema,
    check_theory_cfg,
    coerce,
    effective_config_text,
    load_config,
    parse_kv_file,
)
from volumize.data import gen_blobs, inject_label_noise
from volumize.errors import ConfigError
from volumize.linalg import SeededRng, stable_hash
from volumize.net import LayerSpec, init_network
from volumize.optimizers import OptimizerSpec
from volumize.training import new_run, run_epochs, train_model
from volumize.volumization import VolumizationConfig


def _write(tmp_path, text):
    p = tmp_path / "cfg"
    p.write_text(text, encoding="utf-8")
    return p


class TestParseKvFile:
    def test_basic_and_whitespace(self, tmp_path):
        p = _write(tmp_path, "a = 1\n  b=  two words \n")
        assert parse_kv_file(p) == {"a": "1", "b": "two words"}

    def test_comments_and_blank_lines(self, tmp_path):
        p = _write(tmp_path, "# full comment\n\na = 1  # trailing\n   \n")
        assert parse_kv_file(p) == {"a": "1"}

    def test_value_may_contain_equals(self, tmp_path):
        p = _write(tmp_path, "expr = a=b\n")
        assert parse_kv_file(p) == {"expr": "a=b"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = _write(tmp_path, "a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = _write(tmp_path, "just some text\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_kv_file(p)

    def test_empty_key_rejected(self, tmp_path):
        p = _write(tmp_path, " = 3\n")
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv_file(p)

    def test_error_carries_line_number(self, tmp_path):
        p = _write(tmp_path, "a = 1\nbroken\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_kv_file(p)


class TestCoerce:
    def test_scalars(self):
        assert coerce("k", "3", Field("int")) == 3
        assert coerce("k", "2.5e-3", Field("float")) == 0.0025
        assert coerce("k", "inf", Field("float")) == math.inf
        assert coerce("k", "hello", Field("str")) == "hello"

    @pytest.mark.parametrize("text,want", [
        ("true", True), ("false", False), ("1", True), ("0", False),
        ("Yes", True), ("NO", False),
    ])
    def test_bool_spellings(self, text, want):
        assert coerce("k", text, Field("bool")) is want

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            coerce("k", "maybe", Field("bool"))

    def test_lists_become_tuples(self):
        assert coerce("k", "0.25, 0.5,1", Field("floats")) == (0.25, 0.5, 1.0)
        assert coerce("k", "1,2, 3", Field("ints")) == (1, 2, 3)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            coerce("k", " , ", Field("floats"))

    def test_choices_enforced(self):
        f = Field("str", choices=("sgd", "adam"))
        assert coerce("k", "sgd", f) == "sgd"
        with pytest.raises(ConfigError, match="one of"):
            coerce("k", "rmsprop", f)

    def test_parse_failure_names_key(self):
        with pytest.raises(ConfigError, match="lr"):
            coerce("lr", "fast", Field("float"))

    def test_unknown_field_type(self):
        with pytest.raises(ConfigError):
            Field("complex")


class TestApplySchema:
    SCHEMA = {
        "a": Field("int", 7),
        "b": Field("float", required=True),
        "c": Field("str", "x"),
    }

    def test_defaults_fill_in(self):
        out = apply_schema({"b": "1.5"}, self.SCHEMA)
        assert out == {"a": 7, "b": 1.5, "c": "x"}

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="required"):
            apply_schema({}, self.SCHEMA)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match=r"\['zz'\]"):
            apply_schema({"b": "1", "zz": "3"}, self.SCHEMA)

    def test_load_config_without_path_gives_defaults(self):
        out = load_config(None, TRAIN_SCHEMA)
        assert out["optimizer"] == "adam"
        assert out["v"] == math.inf
        assert out["alpha"] == 1.0

    def test_load_config_reads_file(self, tmp_path):
        p = _write(tmp_path, "v = 0.5\nalpha = 0.99\noptimizer = sgd\n")
        out = load_config(p, TRAIN_SCHEMA)
        assert (out["v"], out["alpha"], out["optimizer"]) == (0.5, 0.99, "sgd")


    def test_load_config_overrides_win_over_file(self, tmp_path):
        p = _write(tmp_path, "kind = fig4a\nsigma = 0.25\n")
        out = load_config(p, THEORY_SCHEMA, {"kind": "theorem3"})
        assert (out["kind"], out["sigma"]) == ("theorem3", 0.25)


class TestEffectiveConfigText:
    def test_echo_reparses_to_same_values(self, tmp_path):
        values = load_config(None, SWEEP_SCHEMA)
        text = effective_config_text(values)
        p = _write(tmp_path, text)
        again = apply_schema(parse_kv_file(p), SWEEP_SCHEMA)
        assert again == values

    def test_float_precision_survives(self, tmp_path):
        vals = {"x": 0.1 + 0.2, "y": 1e-17}
        schema = {"x": Field("float"), "y": Field("float")}
        p = _write(tmp_path, effective_config_text(vals))
        again = apply_schema(parse_kv_file(p), schema)
        assert again["x"] == vals["x"]  # bit-identical, not approx
        assert again["y"] == vals["y"]

    def test_inf_and_bool_and_tuple_formatting(self):
        text = effective_config_text(
            {"v": math.inf, "flag": True, "grid": (0.25, 0.5)})
        assert "v = inf" in text
        assert "flag = true" in text
        assert "grid = 0.25, 0.5" in text

    def test_keys_sorted(self):
        text = effective_config_text({"b": 1, "a": 2})
        assert text.index("a = ") < text.index("b = ")


class TestShippedSchemas:
    def test_theory_requires_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            load_config(None, THEORY_SCHEMA)

    def test_theory_check_reads_only_the_kinds_keys(self):
        def check(**raw):
            check_theory_cfg(load_config(None, THEORY_SCHEMA, raw))

        # values out of range for keys the kind never reads pass
        check(kind="theorem1", sigma="0", lambda_grid="-1", flow_dim="0", v_max="0")
        check(kind="fig4b", sigma_grid="1.5", v_grid_points="1")
        for kind, key, bad in (("fig4a", "v_grid_points", "1"), ("fig4a", "v_max", "inf"),
                               ("theorem3", "a", "nan")):
            with pytest.raises(ConfigError, match=key):
                check(kind=kind, **{key: bad})

    def test_quantize_extends_train(self):
        assert set(TRAIN_SCHEMA) < set(QUANTIZE_SCHEMA)
        out = apply_schema({"mode": "binary"}, QUANTIZE_SCHEMA)
        assert out["mode"] == "binary"
        assert out["period_epochs"] == 2

    def test_sweep_grids_have_defaults(self):
        out = load_config(None, SWEEP_SCHEMA)
        assert out["v_grid"][-1] == math.inf
        assert -1.0 in out["alpha_grid"] and 1.0 in out["alpha_grid"]


# The seed derivations of a train run and a sweep cell, spelled out by hand.
# Both runners go through the config builders; these tests pin that the
# builders and the runners' seed tags still give these exact bits.

_SMALL = {"n_classes": "3", "n_per_class": "25", "dim": "4", "spread": "0.6",
          "noise_ratio": "0.2", "hidden_dims": "8, 5", "activation": "tanh",
          "fan_mode": "fan_out", "optimizer": "sgd", "lr": "0.05",
          "epochs": "2", "batch_size": "16"}
_WALLS = VolumizationConfig(v=0.5, alpha=0.5)


def _blobs_by_hand(seed):
    root = SeededRng(seed)
    data = gen_blobs(root.spawn("blobs"), n_classes=3, n_per_class=25, dim=4,
                     spread=0.6)
    return inject_label_noise(data, 0.2, root.spawn("noise"))


def _net_by_hand(seed):
    specs = [LayerSpec(4, 8, activation="tanh"), LayerSpec(8, 5, activation="tanh"),
             LayerSpec(5, 3)]
    return init_network(specs, SeededRng(seed), fan_mode="fan_out")


def _data_bytes(d):
    return [a.tobytes() for a in (d.x_train, d.y_train, d.x_test, d.y_test,
                                  d.corrupted_indices)]


def _net_bytes(net):
    return [(name, t.tobytes()) for name, t in net.param_tensors()]


def _traj_lists(t):
    return (t.train_loss, t.train_acc, t.test_loss, t.test_acc)


def _test_bits(t):
    return ([x.hex() for x in t.test_loss], [x.hex() for x in t.test_acc])


class TestSeedDerivations:
    def test_train_run(self, tmp_path, monkeypatch):
        seen = {}
        real = runs.run_epochs

        def spy(run, data, n_epochs, **kw):
            seen.update(data=data, init=_net_bytes(run.net), run=run)
            real(run, data, n_epochs, **kw)

        monkeypatch.setattr(runs, "run_epochs", spy)
        cfg = apply_schema({**_SMALL, "v": "0.5", "alpha": "0.5"}, TRAIN_SCHEMA)
        runs.run_train(cfg, str(tmp_path), 11)

        data = _blobs_by_hand(stable_hash(11, "dataset"))
        net = _net_by_hand(stable_hash(11, "init"))
        assert _data_bytes(seen["data"]) == _data_bytes(data)
        assert seen["init"] == _net_bytes(net)
        run = new_run(net, OptimizerSpec(kind="sgd", lr=0.05), _WALLS,
                      SeededRng(stable_hash(11, "train")), batch_size=16)
        run_epochs(run, data, 2)
        assert _net_bytes(seen["run"].net) == _net_bytes(run.net)
        assert _traj_lists(seen["run"].trajectory) == _traj_lists(run.trajectory)

    def test_sweep_cell(self, monkeypatch):
        seen = {}
        real = sweep.train_model

        def spy(net, data, opt_spec, walls, rng, **kw):
            seen.update(data=data, init=_net_bytes(net), net=net)
            seen["traj"] = real(net, data, opt_spec, walls, rng, **kw)
            return seen["traj"]

        monkeypatch.setattr(sweep, "train_model", spy)
        cfg = apply_schema({**_SMALL, "v_grid": "1, 0.5", "alpha_grid": "0.5",
                            "repeats": "2"}, SWEEP_SCHEMA)
        res = sweep.run_cell(sweep.SweepSpec(cfg, base_seed=11), 1, 0, 1)

        cell_seed = stable_hash(11, 1, 0, 1)
        data = _blobs_by_hand(stable_hash(11, "dataset", 1))
        net = _net_by_hand(stable_hash(cell_seed, "init"))
        assert res.seed == cell_seed
        assert _data_bytes(seen["data"]) == _data_bytes(data)
        assert seen["init"] == _net_bytes(net)
        traj = train_model(net, data, OptimizerSpec(kind="sgd", lr=0.05), _WALLS,
                           SeededRng(cell_seed), epochs=2, batch_size=16)
        assert _net_bytes(seen["net"]) == _net_bytes(net)
        # a cell reads test metrics only and never evaluates the training split
        assert _test_bits(seen["traj"]) == _test_bits(traj)
        assert seen["traj"].train_loss == [] and seen["traj"].train_acc == []
        assert (res.best, res.last, res.gap) == (traj.best, traj.last, traj.gap)
