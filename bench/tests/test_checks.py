"""Negative controls: each correctness check passes on sound output and fails
on output with a planted fault.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracing
import querysplat.decoder as dec
import querysplat.finetune as ft
import querysplat.pretrain as pt
import querysplat.renderer as rd
import querysplat.scenes as sc
from querysplat.images import write_pfm, write_ppm

SPEC = {"n_objects": 1, "bounds": [[-1, -1, -1], [1, 1, 1]], "n_views": 2, "image_size": (32, 32)}


@pytest.fixture(scope="module")
def tiny():
    scene = sc.generate_scene(SPEC, seed=3)
    sample = sc.bake_ground_truth(scene)
    model = pt.build_model(scene.bounds, dec.DecoderConfig(n_views=2, K=16), seed=3)
    return scene, sample, model


# -- pre-training -----------------------------------------------------------


def test_gradient_check_catches_sign_flipped_render_vjp(tiny, monkeypatch):
    _, sample, model = tiny
    w = pt.LossWeights()
    assert checks.gradient_error(model, sample, w, seed=0) is None

    backward = rd.render_backward

    def flipped(*args, **kwargs):
        return {k: -v for k, v in backward(*args, **kwargs).items()}

    monkeypatch.setattr(rd, "render_backward", flipped)
    assert "directional derivative" in checks.gradient_error(model, sample, w, seed=0)


def test_loss_and_render_checks_catch_perturbed_output(tiny):
    _, sample, model = tiny
    w = pt.LossWeights()
    loss, head, outputs = pt.forward(model, sample, w)
    assert checks.loss_error(outputs, sample, float(loss.data), w) is None
    assert checks.render_error(outputs, head, sample.cameras) is None

    assert checks.loss_error(outputs, sample, float(loss.data) * (1 + 1e-6), w)
    outputs[1].rgb[5, 7, 0] += 1e-5
    assert checks.render_error(outputs, head, sample.cameras)


def test_learning_and_log_checks(tmp_path):
    losses = [0.5, 0.4, 0.3, 0.2]
    assert checks.learning_error(losses, 2, "x") is None
    assert checks.learning_error(losses[::-1], 2, "x")

    path = tmp_path / "loss.csv"
    rows = [["step", "loss", "lr"]] + [[i + 1, repr(v), "0.0"] for i, v in enumerate(losses)]
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert checks.log_error(path, losses) is None
    assert checks.log_error(path, losses[:2] + [0.25, 0.2])


# -- fine-tuning ------------------------------------------------------------


def test_knn_check_catches_swapped_neighbour_index():
    rng = np.random.default_rng(0)
    tasks = rng.uniform(-1, 1, size=(64, 3))
    anchors = rng.uniform(-1, 1, size=(40, 3))
    neighbours = ft.knn_neighbors(tasks, anchors, 8)
    assert checks.knn_error(tasks, anchors, neighbours, 8) is None

    planted = neighbours.copy()
    row = next(r for r in range(1, 64) if planted[r, 0] not in planted[0])
    planted[0, 0], planted[row, 0] = planted[row, 0], planted[0, 0]
    assert "beyond the k-th smallest" in checks.knn_error(tasks, anchors, planted, 8)


def test_iou_check_catches_a_flipped_voxel(tiny):
    scene = tiny[0]
    truth = ft.make_ground_truth_grid(scene, 8)
    pred = truth.copy()
    pred[0, 0, 0] = 1 - pred[0, 0, 0]
    per_class, miou = ft.evaluate_iou(pred, truth)
    assert checks.iou_error(pred, scene, 8, per_class.get(1, 0.0), miou) is None
    assert checks.iou_error(pred, scene, 8, *checks.iou(truth, truth))


def test_frozen_check_catches_a_changed_parameter(tiny):
    model = tiny[2]
    before = checks.state_bytes(model.store)
    assert checks.frozen_error(before, checks.state_bytes(model.store)) is None
    after = dict(before)
    name = sorted(after)[0]
    after[name] = bytes([after[name][0] ^ 1]) + after[name][1:]
    assert checks.frozen_error(before, after)


# -- files written by the CLI -----------------------------------------------


@pytest.mark.parametrize("size", [(32, 32), (48, 32)])
def test_image_check_catches_transposed_written_image(tmp_path, size):
    scene = sc.generate_scene(dict(SPEC, image_size=size), seed=5)
    cam = scene.cameras[0]
    out = rd.render(scene.arrays(), cam)
    ppm, pfm = tmp_path / "v.ppm", tmp_path / "v.pfm"
    write_ppm(ppm, out.rgb)
    write_pfm(pfm, out.depth)
    assert checks.image_error(ppm, pfm, out, cam) is None

    write_ppm(ppm, out.rgb.transpose(1, 0, 2))
    assert checks.image_error(ppm, pfm, out, cam)


def test_image_check_catches_a_wrong_depth(tmp_path):
    scene = sc.generate_scene(SPEC, seed=5)
    cam = scene.cameras[0]
    out = rd.render(scene.arrays(), cam)
    ppm, pfm = tmp_path / "v.ppm", tmp_path / "v.pfm"
    write_ppm(ppm, out.rgb)
    write_pfm(pfm, out.depth * (1 + 1e-4))
    assert "depth" in checks.image_error(ppm, pfm, out, cam)


def _write_eval_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["scene", "iou_occupied", "miou"])
        for name, a, b in rows:
            writer.writerow([name, repr(a), repr(b)])
        writer.writerow(["mean", repr(float(np.mean([r[1] for r in rows]))),
                         repr(float(np.mean([r[2] for r in rows])))])


def test_eval_csv_check_catches_off_by_one_iou_row(tmp_path):
    expected = [("0000", 0.25, 0.6), ("0001", 0.5, 0.7), ("0002", 0.125, 0.55)]
    path = tmp_path / "eval.csv"
    _write_eval_csv(path, expected)
    assert checks.eval_csv_error(path, expected) is None

    shifted = [(name, *expected[(i + 1) % 3][1:]) for i, (name, _, _) in enumerate(expected)]
    _write_eval_csv(path, shifted)
    assert "per-scene IoU" in checks.eval_csv_error(path, expected)


# -- tracing and the entry point --------------------------------------------


def test_tracer_self_time_and_restore():
    import querysplat.encoder as enc

    original = enc.encode
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert enc.encode is not original
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    finally:
        tracer.restore()
    assert enc.encode is original
    (_, s0, e0, p0), (_, s1, e1, p1) = tracer.spans
    assert (p0, p1) == (-1, 0)
    assert tracer.self_times()["outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)


def test_run_refuses_without_program_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    here = os.path.dirname(checks.__file__)
    for name in ("run.py", "workloads.py", "checks.py", "tracing.py"):
        (bench / name).write_bytes(open(os.path.join(here, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "infer-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
