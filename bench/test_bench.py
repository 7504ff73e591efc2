"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench

The oracles are compared against the program on random inputs and shown
to reject outputs broken on purpose; the tracer is shown to leave the
program's results bit for bit unchanged and to put every function back.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.import_aligndet()

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aligndet import geometry, metrics  # noqa: E402
from aligndet.assignment import assign  # noqa: E402
from aligndet.geometry import Box, Detection  # noqa: E402
from aligndet.model import ModelConfig, build_model  # noqa: E402
from aligndet.scenes import DatasetConfig, generate_scene  # noqa: E402


def random_dets(rng, n, classes=3, size=64.0, coarse=False):
    xy = rng.uniform(0, size * 0.7, (n, 2))
    wh = rng.uniform(4, size * 0.3, (n, 2))
    boxes = np.concatenate([xy, xy + wh], axis=1)
    scores = rng.uniform(0.05, 1.0, n)
    if coarse:
        scores = np.round(scores, 1)  # many ties
    return {
        "boxes": boxes,
        "scores": scores,
        "classes": rng.integers(0, classes, n).astype(np.int64),
        "anchors": rng.permutation(n).astype(np.int64),
    }


def as_detections(dets):
    return [
        Detection(Box(*b, class_id=int(c)), float(s), int(c), int(a))
        for b, s, c, a in zip(dets["boxes"], dets["scores"], dets["classes"], dets["anchors"])
    ]


@pytest.mark.parametrize("seed", range(12))
def test_greedy_nms_matches_program(seed):
    rng = np.random.default_rng(seed)
    dets = random_dets(rng, 60, coarse=seed % 2 == 0)
    kept = geometry.nms(as_detections(dets), iou_threshold=0.5)
    ours = oracles.greedy_nms(dets, 0.5)
    assert [(d.anchor_index, d.class_id) for d in kept] == list(
        zip(dets["anchors"][ours].tolist(), dets["classes"][ours].tolist()))
    oracles.check_greedy_nms(dets, oracles.take(dets, ours), 0.5, max_detections=100)
    truncated = oracles.greedy_nms(dets, 0.5, max_detections=7)
    assert np.array_equal(truncated, ours[:7])
    oracles.check_greedy_nms(dets, oracles.take(dets, truncated), 0.5, max_detections=7)


def test_greedy_nms_suppresses_within_class_only():
    dets = {
        "boxes": np.array([[0, 0, 10, 10], [1, 0, 11, 10], [1, 0, 11, 10], [50, 50, 60, 60]], float),
        "scores": np.array([0.9, 0.8, 0.7, 0.6]),
        "classes": np.array([0, 0, 1, 0]),
        "anchors": np.array([0, 1, 2, 3]),
    }
    assert oracles.greedy_nms(dets, 0.6).tolist() == [0, 2, 3]


def test_check_greedy_nms_rejects_broken_lists():
    rng = np.random.default_rng(3)
    dets = random_dets(rng, 80, classes=2)
    kept = oracles.greedy_nms(dets, 0.3)
    assert 3 < kept.size < 80
    order = oracles.visit_order(dets)
    suppressed = [k for k in order if k not in set(kept.tolist())]
    broken = {
        "a suppressed candidate kept": np.sort(np.append(kept, suppressed[0])),
        "a kept candidate missing": np.delete(kept, 1),
        "out of visit order": kept[[1, 0] + list(range(2, kept.size))],
    }
    rank = {k: r for r, k in enumerate(order)}
    for what, index in broken.items():
        if what != "out of visit order":
            index = np.array(sorted(index, key=rank.get))
        with pytest.raises(oracles.CheckFailed):
            oracles.check_greedy_nms(dets, oracles.take(dets, index), 0.3, max_detections=100)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_greedy_nms(dets, oracles.take(dets, kept), 0.3, max_detections=kept.size - 1)


def random_eval(rng, n_images=4, classes=3):
    image_dets, program_dets, gts, program_gts = [], [], [], []
    for _ in range(n_images):
        dets = random_dets(rng, int(rng.integers(0, 25)), classes, coarse=True)
        n_gt = int(rng.integers(0, 4))
        gt = random_dets(rng, n_gt, classes)
        image_dets.append(dets)
        program_dets.append(as_detections(dets))
        gts.append((gt["boxes"], gt["classes"]))
        program_gts.append([(Box(*b), int(c)) for b, c in zip(gt["boxes"], gt["classes"])])
    return image_dets, program_dets, gts, program_gts


@pytest.mark.parametrize("seed", range(10))
def test_average_precision_matches_program(seed):
    image_dets, program_dets, gts, program_gts = random_eval(np.random.default_rng(seed))
    ours = oracles.average_precision(image_dets, gts)
    theirs = metrics.average_precision(program_dets, program_gts)
    if theirs[0] is None:
        assert ours == (None, None)
    else:
        assert ours == pytest.approx(theirs, abs=1e-12)


def test_average_precision_hand_cases():
    gt = (np.array([[0, 0, 10, 10], [20, 20, 30, 30]], float), np.array([0, 0]))
    hit = {"boxes": gt[0].copy(), "scores": np.array([0.9, 0.8]),
           "classes": np.array([0, 0]), "anchors": np.array([0, 1])}
    assert oracles.average_precision([hit], [gt]) == (1.0, 1.0)
    # a false positive ranked first: precision 1/2 then 2/3 -> envelope 2/3 at every recall
    miss = {"boxes": np.array([[50, 50, 60, 60], [0, 0, 10, 10], [20, 20, 30, 30]], float),
            "scores": np.array([0.95, 0.9, 0.8]), "classes": np.array([0, 0, 0]),
            "anchors": np.array([0, 1, 2])}
    ap50, _ = oracles.average_precision([miss], [gt])
    assert ap50 == pytest.approx(2.0 / 3.0, abs=1e-15)
    none = {"boxes": np.zeros((0, 4)), "scores": np.zeros(0), "classes": np.zeros(0, int),
            "anchors": np.zeros(0, int)}
    assert oracles.average_precision([none], [gt]) == (0.0, 0.0)


def _assignment(seed):
    cfg = ModelConfig(seed=seed)
    _, forward = build_model(cfg)
    rec = generate_scene(seed, DatasetConfig())
    out = forward(rec.image)
    a = assign(rec.instances, cfg.grid(), out.P_align.data, out.B_align.data, m=cfg.top_m)
    return rec, a, cfg


def test_soft_label_check_accepts_the_assigner_and_rejects_a_rescale():
    rec, a, cfg = _assignment(1)
    oracles.check_soft_labels(a.is_positive, a.instance_index, a.u, a.t_hat,
                              len(rec.instances), cfg.top_m)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_soft_labels(a.is_positive, a.instance_index, a.u, a.t_hat * 0.99,
                                  len(rec.instances), cfg.top_m)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_soft_labels(a.is_positive, a.instance_index, a.u, a.t_hat,
                                  len(rec.instances), a.positives_of(0).size - 1)


def test_checkpoint_round_trip_detects_one_flipped_bit(tmp_path):
    params, _ = build_model(ModelConfig())
    loaded = workloads.checkpoint_round_trip(params, str(tmp_path / "ck"), 3, ModelConfig())
    arrays = {n: p.data.copy() for n, p in loaded.items()}
    name = next(iter(arrays))
    arrays[name].view(np.uint32).reshape(-1)[0] ^= 1
    with pytest.raises(oracles.CheckFailed):
        oracles.check_same_arrays({n: p.data for n, p in params.items()}, arrays)
    (tmp_path / "a").write_bytes(b"xy")
    (tmp_path / "b").write_bytes(b"xz")
    with pytest.raises(oracles.CheckFailed):
        oracles.check_same_files(str(tmp_path / "a"), str(tmp_path / "b"))


def test_candidates_and_decode_match_the_program():
    cfg = ModelConfig()
    _, forward = build_model(cfg)
    out = forward(generate_scene(5, DatasetConfig()).image)
    grid = cfg.grid()
    program = metrics.detections_from_outputs(out.P_align.data, out.B_align.data, grid,
                                              max_detections=10 ** 6)
    cands = oracles.candidates(out.P_align.data, out.B_align.data, grid.stride)
    assert cands["scores"].size == out.P_align.data.size == 768
    kept = oracles.take(cands, oracles.greedy_nms(cands, 0.6))
    assert np.array_equal(kept["boxes"], workloads.detections_as_arrays(program)["boxes"])


def test_tracer_leaves_results_unchanged_and_restores_functions():
    from aligndet import model, tensor

    cfg = ModelConfig()
    rec = generate_scene(2, DatasetConfig())
    originals = (tensor.conv2d, geometry.nms, metrics.nms, tensor.Tensor.backward)

    def loss_and_grads():
        # looked up at call time: the tracer patches the module attribute
        params, forward = model.build_model(cfg)
        out = forward(rec.image)
        loss = tensor.tensor_sum(out.B_align)
        loss.backward()
        return out.P_align.data.tobytes(), params["inter.0.w"].grad.tobytes()

    plain = loss_and_grads()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = loss_and_grads()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (tensor.conv2d, geometry.nms, metrics.nms, tensor.Tensor.backward) == originals
    totals = tracer.totals()
    assert totals["tensor.conv2d.inter.fwd"][0] == 6
    assert totals["tensor.conv2d.inter.bwd"][0] == 6
    assert totals["tensor.conv2d.stem.fwd"][0] == 1
    assert tracer.counts["model.forward_calls"] == 1
    calls, inclusive, self_time = totals["tensor.backward"]
    children = sum(totals[n][1] for n in totals if n.endswith(".bwd"))
    assert calls == 1 and self_time == pytest.approx(inclusive - children, abs=1e-9)


def test_peak_rss_sees_an_allocation():
    with workloads.PeakRss(interval=0.001) as rss:
        block = np.ones(32 * 2 ** 20 // 8)
        block.sum()
    assert rss.mb > 32


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "checkpoint"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "src" in done.stderr
