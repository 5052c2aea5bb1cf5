"""Tests for the layered config system."""

import dataclasses
import inspect
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import querysplat.config as cf
import querysplat.decoder as dec
import querysplat.finetune as ft
import querysplat.pretrain as pt
from querysplat.decoder import DecoderConfig
from querysplat.finetune import InteractionConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_json(tmp_path, document, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def nested(dotted, value):
    """The config document that sets one dotted key."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def leaves(table, path=""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{path}{key}.")
        else:
            yield f"{path}{key}"


class TestDefaults:
    def test_load_without_file_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        cfg = cf.load_config()
        assert cfg["seed"] == 0
        assert cfg["out_dir"] == "runs/default"
        assert cfg["data"]["n_scenes"] == 4
        assert cfg["decoder"]["queries"] == 512
        assert cfg["pretrain"]["w_rgb"] == 1.0
        assert cfg["pretrain"]["w_depth"] == 0.05

    def test_readme_config_block_matches(self):
        with open(README) as f:
            text = f.read()
        block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
        assert json.loads(re.sub(r"\s*//.*", "", block)) == cf.DEFAULTS

    def test_returned_config_is_a_copy(self, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        cfg = cf.load_config()
        cfg["data"]["n_scenes"] = 99
        assert cf.DEFAULTS["data"]["n_scenes"] == 4

    def test_file_overrides_merge_into_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        path = write_json(tmp_path, {"data": {"n_scenes": 7}})
        cfg = cf.load_config(path)
        assert cfg["data"]["n_scenes"] == 7
        assert cfg["data"]["n_objects"] == 3  # sibling keys survive the merge

    def test_cli_overrides_beat_the_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        path = write_json(tmp_path, {"seed": 5, "data": {"n_scenes": 7}})
        cfg = cf.load_config(path, overrides={"seed": 11, "data.n_scenes": 2})
        assert cfg["seed"] == 11
        assert cfg["data"]["n_scenes"] == 2


class TestSeedResolution:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SQS_SEED", "17")
        assert cf.load_config()["seed"] == 17

    def test_explicit_seed_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SQS_SEED", "17")
        path = write_json(tmp_path, {"seed": 3})
        assert cf.load_config(path)["seed"] == 3

    def test_missing_env_means_zero(self, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        assert cf.load_config()["seed"] == 0

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("SQS_SEED", "twelve")
        with pytest.raises(cf.ConfigError, match="SQS_SEED"):
            cf.load_config()


class TestUnknownKeys:
    def test_top_level_unknown_key_is_named(self, tmp_path):
        path = write_json(tmp_path, {"bogus": 1})
        with pytest.raises(cf.ConfigError, match="unknown config key: bogus"):
            cf.load_config(path)

    def test_nested_unknown_key_uses_dotted_path(self, tmp_path):
        path = write_json(tmp_path, {"data": {"foo": 1}})
        with pytest.raises(cf.ConfigError, match="unknown config key: data.foo"):
            cf.load_config(path)

    def test_scalar_where_table_expected(self, tmp_path):
        path = write_json(tmp_path, {"data": 5})
        with pytest.raises(cf.ConfigError, match="nested table"):
            cf.load_config(path)

    def test_unknown_override_key_is_named(self):
        with pytest.raises(cf.ConfigError, match="unknown config key: pretrain.nope"):
            cf.load_config(overrides={"pretrain.nope": 1})

    def test_unknown_override_prefix_is_named(self):
        with pytest.raises(cf.ConfigError, match="unknown config key: nosuch"):
            cf.load_config(overrides={"nosuch.steps": 1})


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="not found"):
            cf.load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(cf.ConfigError, match="not valid JSON"):
            cf.load_config(str(path))

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"seed": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "int-over-digit-limit"])
    def test_undecodable_document(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(cf.ConfigError, match="not valid JSON"):
            cf.load_config(str(path))

    def test_directory(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="cannot be read"):
            cf.load_config(str(tmp_path))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(cf.ConfigError, match="JSON object"):
            cf.load_config(str(path))


class TestValidation:
    def load(self, document, tmp_path):
        return cf.load_config(write_json(tmp_path, document))

    def test_keep_rate_zero_rejected(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="keep_rate"):
            self.load({"data": {"keep_rate": 0.0}}, tmp_path)

    def test_keep_rate_one_allowed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        cfg = self.load({"data": {"keep_rate": 1.0}}, tmp_path)
        assert cfg["data"]["keep_rate"] == 1.0

    def test_train_fraction_above_one_rejected(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="train_fraction"):
            self.load({"finetune": {"train_fraction": 1.5}}, tmp_path)

    def test_total_steps_must_exceed_warmup(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="total_steps"):
            self.load(
                {"pretrain": {"total_steps": 10, "warmup_steps": 10}}, tmp_path
            )

    @pytest.mark.parametrize("size", [[48, 48], [64, 0], [-32, 64], 64])
    def test_image_size_off_the_coarsest_stride_rejected(self, tmp_path, size):
        with pytest.raises(cf.ConfigError, match="image_size"):
            self.load({"data": {"image_size": size}}, tmp_path)

    def test_zero_scenes_rejected(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="n_scenes"):
            self.load({"data": {"n_scenes": 0}}, tmp_path)

    def test_feature_dim_head_mismatch_rejected(self, tmp_path):
        with pytest.raises(cf.ConfigError, match="divisible"):
            self.load({"decoder": {"feature_dim": 30, "n_heads": 4}}, tmp_path)

    def test_bad_interaction_k_rejected(self, tmp_path):
        with pytest.raises(cf.ConfigError):
            self.load({"finetune": {"k": 0}}, tmp_path)

    @pytest.mark.parametrize("dotted, value", [
        ("pretrain.peak_lr", 0.0),
        ("pretrain.weight_decay", -0.1),
        ("pretrain.hflip_prob", -0.5),
        ("pretrain.snapshot_every", -1),
        ("finetune.steps", 0),
        ("finetune.lr", float("inf")),
        ("finetune.weight_decay", "heavy"),
        ("finetune.d_task", 0),
        ("pretrain.w_depth", float("nan")),
        ("data.n_objects", float("inf")),
        ("out_dir", 5),
        ("out_dir", ""),
        ("data.n_scenes", 2.7),
        ("data.n_scenes", True),
        ("data.n_scenes", 4.0),
        ("finetune.k", 2.5),
        ("decoder.queries", "64"),
        ("decoder.voxel_size", "0.1"),
        ("decoder.voxel_size", 0),
        ("seed", 1.9),
        ("seed", -1),
        ("finetune.alpha_thresh", True),
        ("data.bounds", "x"),
        ("data.bounds", [[1, 1, 1], [-1, -1, -1]]),
        ("data.bounds", [[-1, -1, -1], [1, 1, float("inf")]]),
        ("data.bounds", [[-1, -1], [1, 1]]),
        ("pretrain.warmup_steps", -5),
        pytest.param("pretrain.w_rgb", 10**400, id="pretrain.w_rgb-10**400"),
    ])
    def test_leaf_out_of_kind_or_range_is_named(self, tmp_path, dotted, value):
        with pytest.raises(cf.ConfigError, match=f"^{dotted} must be "):
            self.load(nested(dotted, value), tmp_path)

    def test_schema_declares_every_default_leaf(self):
        assert set(cf.SCHEMA) == set(leaves(cf.DEFAULTS))
        assert len(cf.SCHEMA) == 33

    def test_no_warmup_is_allowed(self, tmp_path):
        assert self.load({"pretrain": {"warmup_steps": 0}}, tmp_path)["pretrain"]["warmup_steps"] == 0

    def test_checked_values_are_not_rewritten(self, tmp_path):
        cfg = self.load({"pretrain": {"peak_lr": 1, "hflip_prob": 0}}, tmp_path)
        assert cfg["pretrain"]["peak_lr"] == 1 and type(cfg["pretrain"]["peak_lr"]) is int
        assert cfg["pretrain"]["hflip_prob"] == 0 and type(cfg["pretrain"]["hflip_prob"]) is int


# JSON values of every kind, including the ones no leaf takes: bools where
# numbers go, non-finite floats, an integer too large for a float, and
# lists and tables of them.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-40, 130),
    st.integers(), st.just(10**400), st.just(-10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=400, deadline=None)
@given(dotted=st.sampled_from(sorted(cf.SCHEMA)), value=JSON_VALUES)
def test_any_leaf_value_loads_unchanged_or_raises_config_error(fuzz_dir, dotted, value):
    path = write_json(fuzz_dir, nested(dotted, value))
    try:
        cfg = cf.load_config(path, overrides={"seed": 3} if dotted != "seed" else None)
    except cf.ConfigError:
        return
    got = cfg
    for part in dotted.split("."):
        got = got[part]
    if value is not None or dotted != "seed":
        assert json.dumps(got) == json.dumps(value)


class TestWriteResolved:
    def test_round_trips_and_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        cfg = cf.load_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        path_a = cf.write_resolved(cfg, str(a))
        path_b = cf.write_resolved(cfg, str(b))
        assert path_a.endswith(cf.RESOLVED_NAME)
        raw_a = (a / cf.RESOLVED_NAME).read_bytes()
        raw_b = (b / cf.RESOLVED_NAME).read_bytes()
        assert raw_a == raw_b
        assert raw_a.endswith(b"\n")
        assert json.loads(raw_a) == cfg

    def test_resolved_file_reloads_identically(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        cfg = cf.load_config()
        path = cf.write_resolved(cfg, str(tmp_path))
        assert cf.load_config(path) == cfg


class TestTypedBuilders:
    def setup_method(self):
        self.cfg = cf.load_config(overrides={"seed": 0})

    def test_decoder_config_maps_queries_and_views(self):
        self.cfg["decoder"]["queries"] = 64
        self.cfg["data"]["n_views"] = 6
        dc = cf.decoder_config(self.cfg)
        assert isinstance(dc, DecoderConfig)
        assert dc.K == 64
        assert dc.n_views == 6
        assert dc.n_layers == 2

    def test_loss_weights(self):
        w = cf.loss_weights(self.cfg)
        assert w.w_rgb == 1.0
        assert w.w_depth == 0.05

    def test_interaction_config(self):
        ic = cf.interaction_config(self.cfg)
        assert isinstance(ic, InteractionConfig)
        assert ic.k == 8
        assert ic.alpha_thresh == 0.05
        assert ic.pe_hidden == 64


# Values across every kind and range a typed-config leaf can reject: none,
# a string, bools, a fraction, non-finite floats, an integer too large for a
# float, zero, negatives and a value above one.
CANDIDATES = [None, "1", True, False, 2.5, float("nan"), float("inf"), -float("inf"),
              10**400, 0, 0.0, -1, -0.5, 1.5]
TYPED_FIELDS = [(cls, f) for cls in (cf.DecoderConfig, cf.LossWeights, cf.InteractionConfig)
                for f in dataclasses.fields(cls)]


def schema_rejects(dotted, value):
    """Whether SCHEMA's own kind test or range refuses value for a leaf."""
    (is_kind, _, _), limit = cf.SCHEMA[dotted]
    return not is_kind(value) or (limit is not None and value is not None
                                  and not limit[0](value))


class TestTypedConfigsCheckSchema:
    """A typed-config field is checked against its leaf's SCHEMA entry, so a
    library-built config rejects what a config file rejects."""

    @pytest.mark.parametrize("cls, field", TYPED_FIELDS,
                             ids=[f"{c.__name__}.{f.name}" for c, f in TYPED_FIELDS])
    def test_every_value_schema_rejects_raises_naming_the_field(self, cls, field):
        leaf = field.metadata["leaf"]
        (is_kind, _, _), _ = cf.SCHEMA[leaf]
        rejected = [v for v in CANDIDATES if schema_rejects(leaf, v)]
        assert any(not is_kind(v) for v in rejected), f"no candidate is out of {leaf}'s kind"
        for value in rejected:
            with pytest.raises(ValueError, match=f"^{field.name} must be "):
                cls(**{field.name: value})

    @pytest.mark.parametrize("cls, name, value", [
        (cf.LossWeights, "w_rgb", float("nan")),
        (cf.LossWeights, "w_depth", float("inf")),
        (cf.DecoderConfig, "voxel_size", float("nan")),
        (cf.DecoderConfig, "K", 2.5),
        (cf.InteractionConfig, "k", True),
    ])
    def test_out_of_kind_value_is_refused(self, cls, name, value):
        with pytest.raises(cf.ConfigError, match=f"^{name} must be "):
            cls(**{name: value})


# Library names of config leaves whose last dotted part differs.
LEAF_ALIASES = {
    "K": "decoder.queries",
    "n_views": "data.n_views",
    "warmup": "pretrain.warmup_steps",
    "peak": "pretrain.peak_lr",
    "d_pre": "decoder.feature_dim",
}
# Library defaults that differ from their leaf on purpose, with their value:
# a library caller trains unaugmented, the CLI applies pretrain.hflip_prob.
UNLIKE_THEIR_LEAF = {"run_pretraining.hflip_prob": 0.0}


def library_defaults():
    """(owner.name, module section, default) for every default of a public
    function's parameter or a public dataclass's field, in the modules that
    take configured values. A name re-exported from config counts once."""
    for module in (cf, dec, pt, ft):
        section = module.__name__.rsplit(".", 1)[1]
        for owner, obj in vars(module).items():
            if owner.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    if f.default is not dataclasses.MISSING:
                        yield f"{owner}.{f.name}", section, f.default
            elif inspect.isfunction(obj):
                for p in inspect.signature(obj).parameters.values():
                    if p.default is not inspect.Parameter.empty:
                        yield f"{owner}.{p.name}", section, p.default


def leaf_for(name, section, resolved):
    """The dotted leaf a library name stands for, or None if it names none:
    an alias, else the leaf of that name in the owner module's own section,
    else the one leaf anywhere whose last part is the name."""
    if name in LEAF_ALIASES:
        return LEAF_ALIASES[name]
    if f"{section}.{name}" in resolved:
        return f"{section}.{name}"
    matches = [leaf for leaf in resolved if leaf.rsplit(".", 1)[-1] == name]
    assert len(matches) <= 1, f"{name} could name any of {matches}; give it an alias"
    return matches[0] if matches else None


class TestLibraryDefaultsAgree:
    """Every library default that names a config leaf equals the leaf's
    resolved default, so DEFAULTS is the one place a default is decided."""

    def resolved(self, monkeypatch):
        monkeypatch.delenv("SQS_SEED", raising=False)
        cfg = cf.load_config()
        out = {}
        for dotted in leaves(cf.DEFAULTS):
            value = cfg
            for part in dotted.split("."):
                value = value[part]
            out[dotted] = value
        return out

    def test_each_default_equals_its_leaf(self, monkeypatch):
        resolved = self.resolved(monkeypatch)
        checked, unlike = set(), {}
        for qualname, section, default in library_defaults():
            leaf = leaf_for(qualname.rsplit(".", 1)[1], section, resolved)
            if leaf is None:
                continue
            if qualname in UNLIKE_THEIR_LEAF:
                unlike[qualname] = default
                continue
            assert default == resolved[leaf] and type(default) is type(resolved[leaf]), (
                f"{qualname} defaults to {default!r} but {leaf} to {resolved[leaf]!r}"
            )
            checked.add(qualname)
        assert unlike == UNLIKE_THEIR_LEAF
        # The enumeration reaches every kind of owner: typed sub-configs,
        # the optimizer state and the library's signature defaults.
        assert {
            "DecoderConfig.K", "DecoderConfig.n_views", "DecoderConfig.voxel_size",
            "LossWeights.w_depth", "InteractionConfig.alpha_thresh",
            "OptimizerState.weight_decay", "lr_schedule.warmup", "lr_schedule.peak",
            "run_pretraining.peak_lr", "run_pretraining.checkpoint_every",
            "run_finetuning.lr", "run_finetuning.weight_decay",
            "finetune_step.use_interaction", "predict_occupancy.use_interaction",
        } <= checked

    def test_library_modules_re_export_the_config_classes(self):
        assert dec.DecoderConfig is cf.DecoderConfig
        assert pt.LossWeights is cf.LossWeights
        assert ft.InteractionConfig is cf.InteractionConfig
