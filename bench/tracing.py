"""Spans and counts around the program's public functions.

The tracer replaces a function in the module namespace its callers look it
up in, so a call made through that name runs inside a span. A span records
its name, start, end and the index of the span that was open when it began.
Counts are recorded by hooks that run after a call, inside a ``trace.hook``
span so their own cost is not charged to the layer that called them.

A layer's self time is its span's duration minus the time its child spans
cover. Per-layer time metrics are sums of self time over the traced pass.
"""

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(list)
        self.tensors_created = 0
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name].append(value)

    def patch(self, owner, attr, replacement):
        """Replace an attribute of ``owner``, or an entry if it is a dict."""
        self._patches.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, replacement)

    def wrap(self, owner, attr, name, hook=None):
        """Run ``owner.attr`` inside a span; ``hook(result, *args)`` after it."""
        original = _get(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if hook is not None:
                with tracer.span("trace.hook"):
                    hook(result, *args, **kwargs)
            return result

        self.patch(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += (end - start) - child[i]
        return total

    def calls(self, name, within=None):
        """Spans called ``name``, only those inside a ``within`` span if given."""
        def inside(i):
            while i >= 0:
                if self.spans[i][0] == within:
                    return True
                i = self.spans[i][3]
            return False

        return sum(1 for s in self.spans if s[0] == name and (within is None or inside(s[3])))

    def dump(self, path, header):
        import json

        doc = dict(header)
        doc["spans"] = self.spans
        doc["counts"] = {k: v for k, v in sorted(self.counts.items())}
        with open(path, "w") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ---------------------------------------------------------------------------


def _bilinear_hook(tracer):
    def hook(out, level_map, pixels, stride, mask=None):
        h, w, _ = level_map.data.shape
        pix = getattr(pixels, "data", pixels)
        uv = np.asarray(pix) / float(stride)
        inside = (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1) & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1)
        if mask is not None:
            inside &= np.asarray(mask).reshape(-1) > 0
        tracer.count("encoder.bilinear_samples", int(uv.shape[0]))
        tracer.count("encoder.bilinear_in_bounds", int(inside.sum()))
        vjp = out._vjp

        def traced_vjp(g):
            with tracer.span("encoder.bilinear.vjp"):
                return vjp(g)

        out._vjp = traced_vjp

    return hook


def kept_pairs(cache):
    """(kept, evaluated) Gaussian-pixel pairs over the tiles of one render.

    A pair is kept when its quadform is within the Gaussian's contribution
    cutoff, the renderer's own drop rule, recomputed here from the cache.
    """
    prep, ts = cache.prep, cache.config.tile_size
    ntx = -(-cache.width // ts)
    kept = evaluated = 0
    for t, slots in enumerate(cache.tiles):
        if slots.shape[0] == 0:
            continue
        ty, tx = divmod(t, ntx)
        px = np.arange(tx * ts, min((tx + 1) * ts, cache.width), dtype=np.float64)
        py = np.arange(ty * ts, min((ty + 1) * ts, cache.height), dtype=np.float64)
        dx = px[None, None, :] - prep["mx"][slots][:, None, None]
        dy = py[None, :, None] - prep["my"][slots][:, None, None]
        ia = prep["ia"][slots][:, None, None]
        ib = prep["ib"][slots][:, None, None]
        ic = prep["ic"][slots][:, None, None]
        q = dx * (ia * dx + ib * dy) + dy * (ib * dx + ic * dy)
        kept += int((q <= prep["qcut"][slots][:, None, None]).sum())
        evaluated += q.size
    return kept, evaluated


def _render_hook(tracer):
    def hook(result, *args, **kwargs):
        cache = result[1]
        tracer.count("renderer.visible_gaussians", int(cache.prep["sel"].shape[0]))
        tracer.count("renderer.tile_pairs", int(sum(t.shape[0] for t in cache.tiles)))
        kept, evaluated = kept_pairs(cache)
        tracer.count("renderer.kept_pairs", kept)
        tracer.count("renderer.evaluated_pairs", evaluated)

    return hook


def _save_hook(tracer):
    def hook(result, path, state):
        tracer.count("checkpoint.bytes", os.path.getsize(path))

    return hook


def _filter_hook(tracer):
    def hook(result, *args, **kwargs):
        tracer.count("finetune.anchors_kept", int(result[0].shape[0]))

    return hook


def install(tracer):
    """Wrap every traced boundary of the program's modules."""
    import querysplat.autodiff as ad
    import querysplat.cli as cli
    import querysplat.decoder as dec
    import querysplat.encoder as enc
    import querysplat.finetune as ft
    import querysplat.pretrain as pt
    import querysplat.renderer as rd
    import querysplat.scenes as sc

    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.tensors_created += 1
        init(self, *args, **kwargs)

    tracer.patch(ad.Tensor, "__init__", counting_init)

    backward = ad.Tensor.backward
    created_at_last = [0]

    def traced_backward(self, *args, **kwargs):
        tracer.count("autodiff.tape_nodes", tracer.tensors_created - created_at_last[0])
        with tracer.span("autodiff.backward"):
            backward(self, *args, **kwargs)
        created_at_last[0] = tracer.tensors_created

    tracer.patch(ad.Tensor, "backward", traced_backward)

    # Stage spans give every layer span a caller: a training run or a command.
    tracer.wrap(pt, "run_pretraining", "pretrain.run")
    tracer.wrap(ft, "run_finetuning", "finetune.run")
    for command in ("gen-data", "render", "eval"):
        tracer.wrap(cli.COMMANDS, command, f"cli.{command}")
    tracer.wrap(enc, "encode", "encoder.encode")
    tracer.wrap(enc, "bilinear_sample_batch", "encoder.bilinear", _bilinear_hook(tracer))
    tracer.wrap(dec, "decode", "decoder.decode")
    tracer.wrap(dec, "voxelize_and_sparse_conv", "decoder.voxconv")
    tracer.wrap(dec, "deformable_cross_attention", "decoder.attn")
    tracer.wrap(dec, "gaussian_head", "decoder.head")
    tracer.wrap(rd, "render_forward", "renderer.forward", _render_hook(tracer))
    tracer.wrap(rd, "render_backward", "renderer.backward")
    tracer.wrap(rd, "render_reference", "renderer.reference")
    tracer.wrap(sc, "bake_ground_truth", "scenes.bake")
    tracer.wrap(pt, "forward", "pretrain.forward")
    tracer.wrap(pt, "adamw_step", "pretrain.adamw")
    tracer.wrap(pt, "save_checkpoint", "checkpoint.save", _save_hook(tracer))
    tracer.wrap(ft, "save_checkpoint", "checkpoint.save", _save_hook(tracer))
    tracer.wrap(cli, "load_checkpoint", "checkpoint.load")
    tracer.wrap(ft, "finetune_step", "finetune.step")
    tracer.wrap(ft, "predict_occupancy", "finetune.predict")
    tracer.wrap(ft, "knn_neighbors", "finetune.knn")
    tracer.wrap(ft, "local_query_interaction", "finetune.interaction")
    tracer.wrap(ft, "filter_by_opacity", "finetune.filter", _filter_hook(tracer))
    tracer.wrap(ft, "infer_frozen", "finetune.infer_frozen")
    for name in ("write_ppm", "write_pfm", "write_mask"):
        tracer.wrap(cli, name, "images.write")
    tracer.wrap(cli, "read_mask", "images.read")


# Per-layer metric -> (unit, how it is computed from the trace).
TIME_METRICS = {
    "autodiff.backward_s": ("autodiff.backward",),
    "encoder.encode_s": ("encoder.encode",),
    "encoder.bilinear_s": ("encoder.bilinear", "encoder.bilinear.vjp"),
    "decoder.decode_s": ("decoder.decode",),
    "decoder.voxconv_s": ("decoder.voxconv",),
    "decoder.attn_s": ("decoder.attn",),
    "decoder.head_s": ("decoder.head",),
    "renderer.forward_s": ("renderer.forward",),
    "renderer.backward_s": ("renderer.backward",),
    "renderer.reference_s": ("renderer.reference",),
    "scenes.bake_s": ("scenes.bake",),
    "pretrain.forward_s": ("pretrain.forward",),
    "pretrain.adamw_s": ("pretrain.adamw",),
    "checkpoint.save_s": ("checkpoint.save",),
    "checkpoint.load_s": ("checkpoint.load",),
    "finetune.step_s": ("finetune.step",),
    "finetune.predict_s": ("finetune.predict",),
    "finetune.knn_s": ("finetune.knn",),
    "finetune.interaction_s": ("finetune.interaction",),
    "finetune.infer_frozen_s": ("finetune.infer_frozen",),
    "images.read_s": ("images.read",),
    "images.write_s": ("images.write",),
}

COUNT_METRICS = {
    "autodiff.tape_nodes": "count",
    "encoder.bilinear_samples": "count",
    "encoder.bilinear_in_bounds_share": "ratio",
    "renderer.visible_gaussians": "count",
    "renderer.tile_pairs": "count",
    "renderer.kept_pair_share": "ratio",
    "checkpoint.bytes": "bytes",
    "finetune.knn_calls": "count",
    "finetune.anchors_kept": "count",
}


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def _share(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer):
    """Every per-layer metric; a layer the workload never reached reads 0."""
    self_time = tracer.self_times()
    c = tracer.counts
    steps = tracer.calls("autodiff.backward")
    metrics = {
        name: {"value": sum(self_time.get(s, 0.0) for s in spans), "unit": "s"}
        for name, spans in TIME_METRICS.items()
    }
    values = {
        # Tensors created between consecutive backward passes: one step's tape.
        "autodiff.tape_nodes": float(np.median(c["autodiff.tape_nodes"])) if steps else 0.0,
        # Sample points per decoder pass, over every layer, view and level.
        "encoder.bilinear_samples": _share(
            sum(c["encoder.bilinear_samples"]), tracer.calls("decoder.decode")
        ),
        "encoder.bilinear_in_bounds_share": _share(
            sum(c["encoder.bilinear_in_bounds"]), sum(c["encoder.bilinear_samples"])
        ),
        "renderer.visible_gaussians": _mean(c["renderer.visible_gaussians"]),
        "renderer.tile_pairs": _mean(c["renderer.tile_pairs"]),
        "renderer.kept_pair_share": _share(
            sum(c["renderer.kept_pairs"]), sum(c["renderer.evaluated_pairs"])
        ),
        "checkpoint.bytes": float(sum(c["checkpoint.bytes"])),
        "finetune.knn_calls": _share(
            tracer.calls("finetune.knn", within="finetune.run"), tracer.calls("finetune.step")
        ),
        "finetune.anchors_kept": _mean(c["finetune.anchors_kept"]),
    }
    for name, unit in COUNT_METRICS.items():
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics
