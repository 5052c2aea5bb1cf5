"""Run configuration: documented defaults, strict merging, and echoing.

A run is configured by one nested JSON document. Every key has a default
below; a file or command-line override may only touch keys that exist here —
an unknown key is an error naming the full dotted path.  The fully-resolved
document is echoed to ``out_dir/config.resolved`` so each run records
exactly what it ran with.

Seed resolution: an explicit ``seed`` (file or flag) wins; otherwise the
``SQS_SEED`` environment variable; otherwise 0.
"""

from __future__ import annotations

import copy
import json
import math
import os

from . import encoder as enc
from .decoder import DecoderConfig
from .finetune import InteractionConfig
from .pretrain import LossWeights

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


def set_key(cfg, dotted, value):
    """Override one dotted key in place; the key must already exist."""
    parts = dotted.split(".")
    node = cfg
    for i, part in enumerate(parts[:-1]):
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"unknown config key: {'.'.join(parts[: i + 1])}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key: {dotted}")
    node[parts[-1]] = value


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
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(document, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg = _merge(cfg, document)
    for dotted, value in (overrides or {}).items():
        set_key(cfg, dotted, value)
    if cfg["seed"] is None:
        env = os.environ.get("SQS_SEED")
        try:
            cfg["seed"] = int(env) if env is not None else 0
        except ValueError:
            raise ConfigError(f"SQS_SEED must be an integer, got {env!r}")
    validate(cfg)
    return cfg


def _leaf(cfg, dotted, kind):
    """The value at a dotted key converted by kind (int or float); a value
    kind rejects, or a float that is not finite, raises ConfigError naming
    the key."""
    value = cfg
    for part in dotted.split("."):
        value = value[part]
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is float and not math.isfinite(out)):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{dotted} must be {what}, got {value!r}")
    return out


_POSITIVE = (lambda x: x > 0, "> 0")
_NON_NEGATIVE = (lambda x: x >= 0, ">= 0")
_AT_LEAST_ONE = (lambda x: x >= 1, ">= 1")
_UNIT = (lambda x: 0 <= x <= 1, "in [0, 1]")
_UNIT_OPEN = (lambda x: 0 < x <= 1, "in (0, 1]")

# Leaves no typed sub-config builds: their kind and, where limited, range.
_LEAVES = (
    ("seed", int, None),
    ("data.n_scenes", int, _AT_LEAST_ONE),
    ("data.n_objects", int, _AT_LEAST_ONE),
    ("data.n_views", int, _AT_LEAST_ONE),
    ("data.keep_rate", float, _UNIT_OPEN),
    ("pretrain.peak_lr", float, _POSITIVE),
    ("pretrain.weight_decay", float, _NON_NEGATIVE),
    ("pretrain.hflip_prob", float, _UNIT),
    ("pretrain.checkpoint_every", int, _NON_NEGATIVE),
    ("pretrain.snapshot_every", int, _NON_NEGATIVE),
    ("finetune.steps", int, _AT_LEAST_ONE),
    ("finetune.lr", float, _POSITIVE),
    ("finetune.weight_decay", float, _NON_NEGATIVE),
    ("finetune.grid", int, _AT_LEAST_ONE),
    ("finetune.d_task", int, _AT_LEAST_ONE),
    ("finetune.train_fraction", float, _UNIT_OPEN),
)


def validate(cfg):
    """Check the kind and range of each leaf in _LEAVES and build every typed
    sub-config so its own invariants run. The document is left as it is."""
    try:
        decoder_config(cfg)
        loss_weights(cfg)
        interaction_config(cfg)
    except ValueError as e:
        raise ConfigError(str(e))
    for dotted, kind, limit in _LEAVES:
        value = _leaf(cfg, dotted, kind)
        if limit is not None and not limit[0](value):
            raise ConfigError(f"{dotted} must be {limit[1]}, got {value!r}")
    # The encoder halves each view down to its coarsest pyramid stride.
    stride = enc.STRIDES[-1]
    size = cfg["data"]["image_size"]
    if not (isinstance(size, list) and len(size) == 2
            and all(isinstance(v, int) and v >= 1 and v % stride == 0 for v in size)):
        raise ConfigError(
            f"data.image_size must be two positive multiples of {stride}, got {size!r}"
        )
    interaction = cfg["finetune"]["use_interaction"]
    if not isinstance(interaction, bool):
        raise ConfigError(
            f"finetune.use_interaction must be true or false, got {interaction!r}"
        )
    steps = _leaf(cfg, "pretrain.total_steps", int)
    warmup = _leaf(cfg, "pretrain.warmup_steps", int)
    if steps <= warmup:
        raise ConfigError(
            "pretrain.total_steps must exceed pretrain.warmup_steps "
            f"({steps} <= {warmup})"
        )


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
        n_layers=_leaf(cfg, "decoder.n_layers", int),
        n_offsets=_leaf(cfg, "decoder.n_offsets", int),
        n_heads=_leaf(cfg, "decoder.n_heads", int),
        n_views=_leaf(cfg, "data.n_views", int),
        voxel_size=None if d["voxel_size"] is None else _leaf(cfg, "decoder.voxel_size", float),
        K=_leaf(cfg, "decoder.queries", int),
        feature_dim=_leaf(cfg, "decoder.feature_dim", int),
    )


def loss_weights(cfg):
    return LossWeights(
        w_rgb=_leaf(cfg, "pretrain.w_rgb", float),
        w_depth=_leaf(cfg, "pretrain.w_depth", float),
    )


def interaction_config(cfg):
    return InteractionConfig(
        k=_leaf(cfg, "finetune.k", int),
        alpha_thresh=_leaf(cfg, "finetune.alpha_thresh", float),
        pe_hidden=_leaf(cfg, "finetune.pe_hidden", int),
    )
