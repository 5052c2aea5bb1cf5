"""Run configuration: documented defaults, strict merging, and echoing.

A run is configured by one nested JSON document. Every key has a default
below; a file or command-line override may only touch keys that exist here —
an unknown key is an error naming the full dotted path. SCHEMA gives every
leaf its JSON kind and range; a value is checked against it, never
converted. The fully-resolved document is echoed to
``out_dir/config.resolved`` so each run records exactly what it ran with.
DEFAULTS is the one place a default is written and SCHEMA the one place a
kind or range is. Each typed sub-config field below names its leaf once and
takes its default and its check from there, so a library-built config
rejects what a config file rejects; signature defaults read DEFAULTS too.

Seed resolution: an explicit ``seed`` (file or flag) wins; otherwise the
``SQS_SEED`` environment variable; otherwise 0.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import encoder as enc

# Every configurable knob with its default. `seed: None` means "not set",
# resolved against SQS_SEED at load time.
DEFAULTS = {
    "seed": None,
    "out_dir": "runs/default",
    "data": {
        "n_scenes": 4,
        "n_objects": 3,
        "bounds": [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]],
        "n_views": 4,
        "image_size": [64, 64],
        "keep_rate": 0.3,
    },
    "decoder": {
        "n_layers": 2,
        "n_offsets": 4,
        "n_heads": 4,
        "voxel_size": None,
        "queries": 512,
        "feature_dim": 64,
    },
    "pretrain": {
        "total_steps": 2000,
        "warmup_steps": 500,
        "peak_lr": 2e-4,
        "weight_decay": 0.01,
        "w_rgb": 1.0,
        "w_depth": 0.05,
        "hflip_prob": 0.5,
        "checkpoint_every": 500,
        "snapshot_every": 0,
    },
    "finetune": {
        "steps": 500,
        "lr": 1e-3,
        "weight_decay": 0.01,
        "grid": 16,
        "k": 8,
        "alpha_thresh": 0.05,
        "pe_hidden": 64,
        "d_task": 64,
        "use_interaction": True,
        "train_fraction": 1.0,
    },
}

RESOLVED_NAME = "config.resolved"


class ConfigError(ValueError):
    """A malformed or unknown configuration key or value."""


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        full = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown config key: {full}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {full} expects a nested table")
            out[key] = _merge(base[key], value, full)
        else:
            out[key] = value
    return out


def load_config(path=None, overrides=None):
    """Defaults <- file <- overrides, with the seed fallback applied.

    `overrides` maps dotted keys to values (command-line flags).
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as f:
                document = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as e:
            raise ConfigError(f"config file {path} cannot be read: {e.strerror}")
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(document, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg = _merge(cfg, document)
    for dotted, value in (overrides or {}).items():
        for part in reversed(dotted.split(".")):
            value = {part: value}
        cfg = _merge(cfg, value)  # a dotted key applies as a file key would
    if cfg["seed"] is None:
        env = os.environ.get("SQS_SEED")
        try:
            cfg["seed"] = int(env) if env is not None else 0
        except ValueError:
            raise ConfigError(f"SQS_SEED must be an integer, got {env!r}")
    validate(cfg)
    return cfg


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v):
    # math.isfinite overflows on an integer too large for a float.
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


# The encoder halves each view down to its coarsest pyramid stride.
_STRIDE = enc.STRIDES[-1]

# JSON kinds: the test a value must pass, how an error names the kind, and
# how a command-line flag parses its text into one (None: no flag takes it).
# JSON integers pass as numbers; bools pass only as bools.
_INT = (_is_int, "an integer", int)
_FLOAT = (_is_finite, "a finite number", float)
_FLOAT_OR_NULL = (lambda v: v is None or _is_finite(v), "null or a finite number", None)
_BOOL = (lambda v: isinstance(v, bool), "true or false", None)
_PATH = (lambda v: isinstance(v, str) and v != "", "a non-empty string", str)
_SIZE = (
    lambda v: isinstance(v, list) and len(v) == 2
    and all(_is_int(x) and x >= 1 and x % _STRIDE == 0 for x in v),
    f"two positive multiples of {_STRIDE}", None,
)
_BOX = (
    lambda v: isinstance(v, list) and len(v) == 2
    and all(isinstance(c, list) and len(c) == 3 and all(map(_is_finite, c)) for c in v)
    and all(lo < hi for lo, hi in zip(*v)),
    "two finite [x, y, z] corners with low < high", None,
)

_POSITIVE = (lambda x: x > 0, "> 0")
_NON_NEGATIVE = (lambda x: x >= 0, ">= 0")
_AT_LEAST_ONE = (lambda x: x >= 1, ">= 1")
_UNIT = (lambda x: 0 <= x <= 1, "in [0, 1]")
_UNIT_OPEN = (lambda x: 0 < x <= 1, "in (0, 1]")

# Every leaf of DEFAULTS by dotted key: its JSON kind and, where limited,
# its range (a null voxel_size has none).
SCHEMA = {
    "seed": (_INT, _NON_NEGATIVE),
    "out_dir": (_PATH, None),
    "data.n_scenes": (_INT, _AT_LEAST_ONE),
    "data.n_objects": (_INT, _AT_LEAST_ONE),
    "data.bounds": (_BOX, None),
    "data.n_views": (_INT, _AT_LEAST_ONE),
    "data.image_size": (_SIZE, None),
    "data.keep_rate": (_FLOAT, _UNIT_OPEN),
    "decoder.n_layers": (_INT, _NON_NEGATIVE),
    "decoder.n_offsets": (_INT, _AT_LEAST_ONE),
    "decoder.n_heads": (_INT, _AT_LEAST_ONE),
    "decoder.voxel_size": (_FLOAT_OR_NULL, _POSITIVE),
    "decoder.queries": (_INT, _AT_LEAST_ONE),
    "decoder.feature_dim": (_INT, _AT_LEAST_ONE),
    "pretrain.total_steps": (_INT, _AT_LEAST_ONE),
    "pretrain.warmup_steps": (_INT, _NON_NEGATIVE),
    "pretrain.peak_lr": (_FLOAT, _POSITIVE),
    "pretrain.weight_decay": (_FLOAT, _NON_NEGATIVE),
    "pretrain.w_rgb": (_FLOAT, _NON_NEGATIVE),
    "pretrain.w_depth": (_FLOAT, _NON_NEGATIVE),
    "pretrain.hflip_prob": (_FLOAT, _UNIT),
    "pretrain.checkpoint_every": (_INT, _NON_NEGATIVE),
    "pretrain.snapshot_every": (_INT, _NON_NEGATIVE),
    "finetune.steps": (_INT, _AT_LEAST_ONE),
    "finetune.lr": (_FLOAT, _POSITIVE),
    "finetune.weight_decay": (_FLOAT, _NON_NEGATIVE),
    "finetune.grid": (_INT, _AT_LEAST_ONE),
    "finetune.k": (_INT, _AT_LEAST_ONE),
    "finetune.alpha_thresh": (_FLOAT, _UNIT),
    "finetune.pe_hidden": (_INT, _AT_LEAST_ONE),
    "finetune.d_task": (_INT, _AT_LEAST_ONE),
    "finetune.use_interaction": (_BOOL, None),
    "finetune.train_fraction": (_FLOAT, _UNIT_OPEN),
}


def _lookup(tree, dotted):
    for part in dotted.split("."):
        tree = tree[part]
    return tree


def _check(value, dotted, name):
    """Raise a ConfigError naming `name` unless value has leaf `dotted`'s kind and range."""
    (is_kind, kind, _), limit = SCHEMA[dotted]
    if not is_kind(value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if limit is not None and value is not None and not limit[0](value):
        raise ConfigError(f"{name} must be {limit[1]}, got {value!r}")


def _leaf(dotted):
    """A typed-config field for one leaf: it takes the leaf's default, is checked
    against the leaf's SCHEMA entry, and the builders below read it from the leaf."""
    return field(default=_lookup(DEFAULTS, dotted), metadata={"leaf": dotted})


class _Leaves:
    """Base of the typed sub-configs: checks each field against its leaf."""

    def __post_init__(self):
        for f in fields(self):
            _check(getattr(self, f.name), f.metadata["leaf"], f.name)


@dataclass
class DecoderConfig(_Leaves):
    n_layers: int = _leaf("decoder.n_layers")
    n_offsets: int = _leaf("decoder.n_offsets")
    n_heads: int = _leaf("decoder.n_heads")
    n_views: int = _leaf("data.n_views")
    voxel_size: float | None = _leaf("decoder.voxel_size")  # None -> bounds extent / 32
    K: int = _leaf("decoder.queries")
    feature_dim: int = _leaf("decoder.feature_dim")

    def __post_init__(self):
        super().__post_init__()
        if self.feature_dim % self.n_heads != 0:
            raise ConfigError("feature_dim must be divisible by n_heads")
        if enc.D_F % self.n_heads != 0:
            raise ConfigError("pyramid width must be divisible by n_heads")

    def resolve_voxel_size(self, bounds):
        if self.voxel_size is not None:
            return float(self.voxel_size)
        return float(np.linalg.norm(np.subtract(bounds[1], bounds[0]))) / 32.0


@dataclass
class LossWeights(_Leaves):
    w_rgb: float = _leaf("pretrain.w_rgb")
    w_depth: float = _leaf("pretrain.w_depth")


@dataclass
class InteractionConfig(_Leaves):
    """Knobs for the anchor-to-task-query attention block."""

    k: int = _leaf("finetune.k")
    alpha_thresh: float = _leaf("finetune.alpha_thresh")
    pe_hidden: int = _leaf("finetune.pe_hidden")


def validate(cfg):
    """Check every leaf against SCHEMA, total_steps > warmup_steps and that
    each scene's seed fits a scene file's uint64, then build the decoder
    config so its divisibility checks run. The document is left as it is."""
    for dotted in SCHEMA:
        _check(_lookup(cfg, dotted), dotted, dotted)
    p = cfg["pretrain"]
    if p["total_steps"] <= p["warmup_steps"]:
        raise ConfigError("pretrain.total_steps must exceed pretrain.warmup_steps "
                          f"({p['total_steps']} <= {p['warmup_steps']})")
    seed, n_scenes = cfg["seed"], cfg["data"]["n_scenes"]
    if seed + n_scenes - 1 >= 2**64:  # scene i takes seed + i
        raise ConfigError("seed + data.n_scenes - 1 must be below 2**64, "
                          f"got {seed} + {n_scenes} - 1")
    decoder_config(cfg)


def write_resolved(cfg, out_dir):
    """Echo the fully-resolved config into out_dir/config.resolved."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RESOLVED_NAME)
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _typed(cls, cfg):
    return cls(**{f.name: _lookup(cfg, f.metadata["leaf"]) for f in fields(cls)})


def decoder_config(cfg):
    return _typed(DecoderConfig, cfg)


def loss_weights(cfg):
    return _typed(LossWeights, cfg)


def interaction_config(cfg):
    return _typed(InteractionConfig, cfg)
