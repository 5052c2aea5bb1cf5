"""Run configuration: documented defaults, strict merging, and echoing.

A run is configured by one nested JSON document. Every key has a default
below; a file or command-line override may only touch keys that exist here —
an unknown key is an error naming the full dotted path. SCHEMA gives every
leaf its JSON kind and range; a value is checked against it, never
converted. The fully-resolved document is echoed to
``out_dir/config.resolved`` so each run records exactly what it ran with.
DEFAULTS is the one place a default is written: the typed sub-configs below
and the library's signature defaults read its leaves.

Seed resolution: an explicit ``seed`` (file or flag) wins; otherwise the
``SQS_SEED`` environment variable; otherwise 0.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

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

_DECODER, _PRETRAIN, _FINETUNE = DEFAULTS["decoder"], DEFAULTS["pretrain"], DEFAULTS["finetune"]


@dataclass
class DecoderConfig:
    n_layers: int = _DECODER["n_layers"]
    n_offsets: int = _DECODER["n_offsets"]
    n_heads: int = _DECODER["n_heads"]
    n_views: int = DEFAULTS["data"]["n_views"]
    voxel_size: float | None = _DECODER["voxel_size"]  # None -> bounds extent / 32
    K: int = _DECODER["queries"]
    feature_dim: int = _DECODER["feature_dim"]

    def __post_init__(self):
        for field in ("n_offsets", "n_heads", "n_views", "K", "feature_dim"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.voxel_size is not None and self.voxel_size <= 0.0:
            raise ValueError("voxel_size must be positive")
        if self.feature_dim % self.n_heads != 0:
            raise ValueError("feature_dim must be divisible by n_heads")
        if enc.D_F % self.n_heads != 0:
            raise ValueError("pyramid width must be divisible by n_heads")

    def resolve_voxel_size(self, bounds):
        if self.voxel_size is not None:
            return float(self.voxel_size)
        return float(np.linalg.norm(np.subtract(bounds[1], bounds[0]))) / 32.0


@dataclass
class LossWeights:
    w_rgb: float = _PRETRAIN["w_rgb"]
    w_depth: float = _PRETRAIN["w_depth"]

    def __post_init__(self):
        if self.w_rgb < 0.0 or self.w_depth < 0.0:
            raise ValueError("loss weights must be non-negative")


@dataclass
class InteractionConfig:
    """Knobs for the anchor-to-task-query attention block."""

    k: int = _FINETUNE["k"]
    alpha_thresh: float = _FINETUNE["alpha_thresh"]
    pe_hidden: int = _FINETUNE["pe_hidden"]

    def __post_init__(self):
        for field in ("k", "pe_hidden"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if not 0.0 <= self.alpha_thresh <= 1.0:
            raise ValueError(f"alpha_thresh must be in [0, 1], got {self.alpha_thresh}")


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
        except ValueError as e:
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

# JSON kinds: the test a value must pass and how an error names the kind.
# JSON integers pass as numbers; bools pass only as bools.
_INT = (_is_int, "an integer")
_FLOAT = (_is_finite, "a finite number")
_FLOAT_OR_NULL = (lambda v: v is None or _is_finite(v), "null or a finite number")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_PATH = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_SIZE = (
    lambda v: isinstance(v, list) and len(v) == 2
    and all(_is_int(x) and x >= 1 and x % _STRIDE == 0 for x in v),
    f"two positive multiples of {_STRIDE}",
)
_BOX = (
    lambda v: isinstance(v, list) and len(v) == 2
    and all(isinstance(c, list) and len(c) == 3 and all(map(_is_finite, c)) for c in v)
    and all(lo < hi for lo, hi in zip(*v)),
    "two finite [x, y, z] corners with low < high",
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


def validate(cfg):
    """Check every leaf against SCHEMA and total_steps > warmup_steps, then
    build each typed sub-config so its own invariants run. The document is
    left as it is."""
    for dotted, ((is_kind, kind), limit) in SCHEMA.items():
        value = cfg
        for part in dotted.split("."):
            value = value[part]
        if not is_kind(value):
            raise ConfigError(f"{dotted} must be {kind}, got {value!r}")
        if limit is not None and value is not None and not limit[0](value):
            raise ConfigError(f"{dotted} must be {limit[1]}, got {value!r}")
    p = cfg["pretrain"]
    if p["total_steps"] <= p["warmup_steps"]:
        raise ConfigError("pretrain.total_steps must exceed pretrain.warmup_steps "
                          f"({p['total_steps']} <= {p['warmup_steps']})")
    try:
        decoder_config(cfg)
        loss_weights(cfg)
        interaction_config(cfg)
    except ValueError as e:
        raise ConfigError(str(e))


def write_resolved(cfg, out_dir):
    """Echo the fully-resolved config into out_dir/config.resolved."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, RESOLVED_NAME)
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def decoder_config(cfg):
    d = cfg["decoder"]
    return DecoderConfig(
        n_layers=d["n_layers"], n_offsets=d["n_offsets"], n_heads=d["n_heads"],
        n_views=cfg["data"]["n_views"], voxel_size=d["voxel_size"], K=d["queries"],
        feature_dim=d["feature_dim"],
    )


def loss_weights(cfg):
    p = cfg["pretrain"]
    return LossWeights(w_rgb=p["w_rgb"], w_depth=p["w_depth"])


def interaction_config(cfg):
    f = cfg["finetune"]
    return InteractionConfig(k=f["k"], alpha_thresh=f["alpha_thresh"], pe_hidden=f["pe_hidden"])
