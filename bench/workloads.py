"""The three workloads: set-up, timed phase, checks and metrics.

Every workload follows the same shape. Set-up runs ``SETUP_ROUNDS`` times
and ``setup_s`` is the median round. Untimed warm-up follows (on the eval
workloads, one eval pass that also captures what the checks need), then
the timed phase, with no instrumentation but a thread that samples the
resident set size for ``peak_mem_mb``. Checks run last, outside every
timing.

With ``trace`` on, the same timed phase runs a second time with the
tracer installed (plus one traced set-up round), its outputs are compared
byte for byte with the untraced phase's, and the per-layer metrics come
from its spans.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import threading
import time

import numpy as np

import common
import oracles
from tracing import CONV_GROUPS, Tracer

SETUP_ROUNDS = 7
# Scene seeds of a run are the default split seeds shifted by seed * 2^16,
# so runs with different --seed values share no scene.
SEED_STRIDE = 2 ** 16
TRAIN_SCENES = 64
# Steps run before the timed steps; the first forwards of a process are
# several times slower while OpenBLAS starts its threads.
TRAIN_WARMUP_STEPS = 3
# Timed train steps per second of --seconds: a fixed count, so loss_end is
# always read after the same number of samples, sized to take about
# --seconds at the reference step time (see README).
TRAIN_STEPS_PER_SECOND = 5
# loss_end averages the last four passes over the 64-scene split (8 steps
# each), so every scene weighs the same.
LOSS_END_STEPS = 32
EVAL_TRAINED_SCENES = 64
EVAL_UNTRAINED_SCENES = 1
# loss_end on the eval workloads: mean training loss of the evaluated
# weights over this many val scenes (eval_trained's own split), enough to
# keep the seed-to-seed spread small.
LOSS_SCENES = 64
WARMUP_FORWARDS = 16
# The eval verb's detection settings (metrics.detections_from_outputs).
SCORE_FLOOR = 0.05
NMS_IOU = 0.6
MAX_DETECTIONS = 100
# Val AP50 of the committed checkpoint ranged 0.840-0.919 over seeds 0-9
# (median 0.875); the floor sits 0.09 below the lowest (see README).
AP50_FLOOR = 0.75
MB = 2.0 ** 20


class Run:
    """One workload run: its directory, its counters and its metrics."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(common.RUNS_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.layers = {}
        self.notes = {}

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def layer(self, name, value, unit):
        self.layers[name] = {"value": float(value), "unit": unit}


def scene_seeds(split_seeds, seed):
    return [(s + seed * SEED_STRIDE) % 2 ** 64 for s in split_seeds]


class PeakRss:
    """Highest resident set size seen while the block runs, in MB.

    A thread reads /proc/self/statm every ``interval`` seconds. Each read
    holds the interpreter lock for some microseconds, well under 1% of the
    timed work at the default interval.
    """

    def __init__(self, interval=0.005):
        self.interval = interval
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def _sample(self):
        with open("/proc/self/statm") as f:
            self.peak = max(self.peak, int(f.read().split()[1]) * self._page)

    def _watch(self):
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def mb(self):
        return self.peak / MB


# -- set-up ----------------------------------------------------------------


def make_split(run, split_seeds, name):
    """Generate a split, write it, read it back; returns (path, records)."""
    from aligndet.scenes import DatasetConfig, make_dataset, read_dataset, write_dataset

    path = run.path(f"{name}.tdset")
    records = make_dataset(scene_seeds(split_seeds, run.seed), DatasetConfig())
    write_dataset(records, path)
    return path, read_dataset(path)


def checkpoint_round_trip(params, path, step, cfg):
    """Write ``params`` as a checkpoint, load it back, check the bits."""
    from aligndet.train import load_checkpoint, save_checkpoint

    save_checkpoint(params, path, step=step, config=cfg)
    loaded, loaded_step, _ = load_checkpoint(path)
    oracles.check_same_arrays({n: p.data for n, p in params.items()},
                              {n: p.data for n, p in loaded.items()})
    if loaded_step != step:
        raise oracles.CheckFailed(f"checkpoint step {loaded_step} != {step}")
    return loaded


# -- train -----------------------------------------------------------------


def train_config(seconds):
    from aligndet.model import ModelConfig

    timed = max(LOSS_END_STEPS, round(seconds * TRAIN_STEPS_PER_SECOND))
    return ModelConfig(steps=TRAIN_WARMUP_STEPS + timed)


def train_setup(run):
    from aligndet.model import ModelConfig, build_model
    from aligndet.scenes import train_seeds

    path, records = make_split(run, train_seeds(TRAIN_SCENES), "train")
    cfg = ModelConfig()
    params, _ = build_model(cfg)
    checkpoint_round_trip(params, run.path("step0"), 0, cfg)
    return path, records


def train_phase(run, data, out):
    """One train() call; returns (params, history, step end times, peak MB).

    The peak covers the whole call, warm-up steps included.
    """
    from aligndet.train import train

    marks = []
    with PeakRss() as rss:
        params, history = train(train_config(run.seconds), data, out,
                                progress=lambda step, losses: marks.append(time.perf_counter()))
    return params, history, marks, rss.mb


def train_checks(run, cfg, records, params, history, out):
    from aligndet.assignment import assign
    from aligndet.model import build_model
    from aligndet.train import adopt_params, load_checkpoint, save_checkpoint

    totals = np.array([h["total"] for h in history])
    if not np.all(np.isfinite(totals)):
        raise oracles.CheckFailed("non-finite loss")
    if not totals[-LOSS_END_STEPS:].mean() < totals[0]:
        raise oracles.CheckFailed(
            f"loss did not fall: {totals[0]:.4f} -> {totals[-LOSS_END_STEPS:].mean():.4f}")
    ckpt = os.path.join(out, "checkpoint")
    loaded, _, _ = load_checkpoint(ckpt)
    oracles.check_same_arrays({n: p.data for n, p in params.items()},
                              {n: p.data for n, p in loaded.items()})
    save_checkpoint(loaded, run.path("resaved"), step=cfg.steps, config=cfg)
    for name in os.listdir(ckpt):
        oracles.check_same_files(os.path.join(ckpt, name), run.path("resaved", name))
    model_params, forward = build_model(cfg)
    adopt_params(model_params, loaded)
    grid = cfg.grid()
    for rec in records[:cfg.batch_size]:
        outputs = forward(rec.image)
        a = assign(rec.instances, grid, outputs.P_align.data, outputs.B_align.data,
                   m=cfg.top_m, alpha=cfg.alpha, beta=cfg.beta)
        oracles.check_soft_labels(a.is_positive, a.instance_index, a.u, a.t_hat,
                                  len(rec.instances), cfg.top_m)


def run_train(run):
    data, records = _setup(run, train_setup)
    cfg = train_config(run.seconds)
    params, history, marks, peak = train_phase(run, data, run.path("train"))
    steps_ms = 1000.0 * np.diff(marks[TRAIN_WARMUP_STEPS - 1:])
    run.attempted = len(history)
    run.metric("images_per_s", cfg.batch_size * steps_ms.size / (steps_ms.sum() / 1000.0), "images/s")
    run.metric("step_ms_p50", statistics.median(steps_ms), "ms")
    run.metric("peak_mem_mb", peak, "MB")
    run.metric("loss_end", np.mean([h["total"] for h in history[-LOSS_END_STEPS:]]), "loss")
    run.notes.update(unit_ms=steps_ms.round(3).tolist(), loss_start=history[0]["total"],
                     scenes=len(records),
                     instances=sum(len(r.instances) for r in records))
    train_checks(run, cfg, records, params, history, run.path("train"))
    if run.trace:
        tracer = Tracer()
        tracer.install()
        try:
            train_setup(run)
            _, _, traced_marks, _ = train_phase(run, data, run.path("train_traced"))
            traced_steps = np.diff(traced_marks[TRAIN_WARMUP_STEPS - 1:])
        finally:
            tracer.uninstall()
        for name in ("loss_curve.csv", os.path.join("checkpoint", "params.bin")):
            oracles.check_same_files(run.path("train", name), run.path("train_traced", name))
        _layers(run, tracer, images=cfg.steps * cfg.batch_size,
                overhead=traced_steps.sum() / (steps_ms.sum() / 1000.0))


# -- eval ------------------------------------------------------------------


def eval_setup(run):
    from aligndet.model import ModelConfig, build_model
    from aligndet.scenes import val_seeds
    from aligndet.train import adopt_params, load_checkpoint

    if run.workload == "eval_trained":
        path, records = make_split(run, val_seeds(EVAL_TRAINED_SCENES), "val")
        loaded, _, config_json = load_checkpoint(common.CHECKPOINT_DIR)
        cfg = ModelConfig.from_json(config_json)
        params, forward = build_model(cfg)
        adopt_params(params, loaded)
        return path, records, common.CHECKPOINT_DIR, cfg, forward
    path, records = make_split(run, val_seeds(EVAL_UNTRAINED_SCENES), "val")
    cfg = ModelConfig()
    params, forward = build_model(cfg)
    ckpt = run.path("step0")
    checkpoint_round_trip(params, ckpt, 0, cfg)
    return path, records, ckpt, cfg, forward


def eval_pass(data, ckpt, out):
    """One in-process `aligndet eval`; returns its exit status."""
    from aligndet import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["eval", "--dataset", data, "--checkpoint", ckpt, "--out", out])


def captured_eval(data, ckpt, out):
    """An eval pass that also records each scene's score/box maps and the
    detections and AP the program computed from them."""
    from aligndet import metrics

    scenes = []
    ap = []
    detect, average_precision = metrics.detections_from_outputs, metrics.average_precision

    def capture_detections(p_align, b_align, grid, **kwargs):
        kept = detect(p_align, b_align, grid, **kwargs)
        scenes.append((np.array(p_align), np.array(b_align), grid.stride, kept))
        return kept

    def capture_ap(*args, **kwargs):
        ap.append(average_precision(*args, **kwargs))
        return ap[-1]

    metrics.detections_from_outputs = capture_detections
    metrics.average_precision = capture_ap
    try:
        status = eval_pass(data, ckpt, out)
    finally:
        metrics.detections_from_outputs = detect
        metrics.average_precision = average_precision
    return status, scenes, ap


def detections_as_arrays(kept):
    return {
        "boxes": np.array([[d.box.x1, d.box.y1, d.box.x2, d.box.y2] for d in kept],
                          dtype=np.float64).reshape(-1, 4),
        "scores": np.array([d.score for d in kept], dtype=np.float64),
        "classes": np.array([d.class_id for d in kept], dtype=np.int64),
        "anchors": np.array([d.anchor_index for d in kept], dtype=np.int64),
    }


def eval_checks(run, records, scenes, program_ap, report_csv, cfg):
    if len(scenes) != len(records) or len(program_ap) != 1:
        raise oracles.CheckFailed(
            f"eval detected on {len(scenes)} of {len(records)} scenes and computed AP "
            f"{len(program_ap)} times")
    mine = []
    n_candidates = 0
    for rec, (p_align, b_align, stride, kept) in zip(records, scenes):
        cands = oracles.candidates(p_align, b_align, stride, SCORE_FLOOR)
        n_candidates += cands["scores"].size
        if run.workload == "eval_untrained" and cands["scores"].size != p_align.size:
            raise oracles.CheckFailed(
                f"scene {rec.seed}: {cands['scores'].size} candidates, expected {p_align.size}")
        program = detections_as_arrays(kept)
        oracles.check_greedy_nms(cands, program, NMS_IOU, MAX_DETECTIONS)
        ours = oracles.take(cands, oracles.greedy_nms(cands, NMS_IOU, MAX_DETECTIONS))
        if not (np.array_equal(ours["anchors"], program["anchors"])
                and np.array_equal(ours["classes"], program["classes"])):
            raise oracles.CheckFailed(f"scene {rec.seed}: kept detections differ from greedy NMS")
        mine.append(ours)
    gts = [(rec.boxes_array(), rec.classes_array()) for rec in records]
    ap50, ap = oracles.average_precision(mine, gts)
    header, row = report_csv.decode().splitlines()[:2]
    report = dict(zip(header.split(","), row.split(",")))
    for name, ours, theirs in (("ap50", ap50, program_ap[0][0]), ("ap", ap, program_ap[0][1])):
        if abs(ours - theirs) > 1e-9 or report[name] != f"{ours:.6f}":
            raise oracles.CheckFailed(
                f"{name}: independent {ours!r}, program {theirs!r}, report {report[name]}")
    run.notes.update(ap50=ap50, ap=ap, candidates_per_scene=n_candidates / len(records),
                     scenes=len(records), instances=sum(len(r.instances) for r in records))
    if run.workload == "eval_trained" and ap50 < AP50_FLOOR:
        raise oracles.CheckFailed(f"ap50 {ap50:.4f} below the floor {AP50_FLOOR}")


def val_loss(run, cfg, forward):
    """Mean training loss (aligned assigner) of the evaluated weights."""
    from aligndet.assignment import assign
    from aligndet.losses import total_loss
    from aligndet.scenes import DatasetConfig, make_dataset, val_seeds

    records = make_dataset(scene_seeds(val_seeds(LOSS_SCENES), run.seed), DatasetConfig())
    grid = cfg.grid()
    totals = []
    for rec in records:
        out = forward(rec.image)
        a = assign(rec.instances, grid, out.P_align.data, out.B_align.data,
                   m=cfg.top_m, alpha=cfg.alpha, beta=cfg.beta)
        totals.append(total_loss(out.P_align, out.B_align, a, rec.instances, grid,
                                 gamma=cfg.gamma).values()["total"])
    return float(np.mean(totals))


def eval_phase(run, data, ckpt, out_name, passes=None):
    """Eval passes until --seconds have passed (or ``passes`` of them)."""
    times = []
    start = time.perf_counter()
    while (len(times) < passes) if passes else (not times or time.perf_counter() - start < run.seconds):
        t0 = time.perf_counter()
        status = eval_pass(data, ckpt, run.path(out_name))
        times.append(time.perf_counter() - t0)
        if status != 0:
            raise RuntimeError(f"eval exited with status {status}")
    return times


def run_eval(run):
    data, records, ckpt, cfg, forward = _setup(run, eval_setup)
    for k in range(WARMUP_FORWARDS):
        forward(records[k % len(records)].image)
    status, scenes, program_ap = captured_eval(data, ckpt, run.path("capture"))
    if status != 0:
        raise RuntimeError(f"eval exited with status {status}")
    with open(run.path("capture", "alignment_report.csv"), "rb") as f:
        reference = f.read()
    with PeakRss() as rss:
        times = eval_phase(run, data, ckpt, "eval")
    n = len(records)
    run.notes.update(unit_ms=[round(1000.0 * t, 3) for t in times])
    run.attempted = n * len(times)
    run.metric("images_per_s", run.attempted / sum(times), "images/s")
    run.metric("step_ms_p50", 1000.0 * statistics.median(times) / n, "ms")
    run.metric("peak_mem_mb", rss.mb, "MB")
    for name in ("alignment_report.csv", "score_map.csv"):
        oracles.check_same_files(run.path("capture", name), run.path("eval", name))
    eval_checks(run, records, scenes, program_ap, reference, cfg)
    run.metric("loss_end", val_loss(run, cfg, forward), "loss")
    if run.trace:
        tracer = Tracer()
        tracer.install()
        try:
            eval_setup(run)
            traced = eval_phase(run, data, ckpt, "eval_traced", passes=len(times))
        finally:
            tracer.uninstall()
        for name in ("alignment_report.csv", "score_map.csv"):
            oracles.check_same_files(run.path("eval", name), run.path("eval_traced", name))
        _layers(run, tracer, images=n * len(traced), overhead=sum(traced) / sum(times))


# -- shared ----------------------------------------------------------------


def _setup(run, setup):
    """Set up SETUP_ROUNDS times, report the median; returns the last set-up."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        result = setup(run)
        times.append(time.perf_counter() - start)
    run.metric("setup_s", statistics.median(times), "s")
    return result


def sgemm_gflops(shapes, seed, repeats=15):
    """BLAS sgemm rate at the conv GEMM shapes, weighted as the model calls them."""
    rng = np.random.default_rng(seed)
    flops = seconds = 0.0
    for (m, k, n), calls in sorted(shapes.items()):
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, n), dtype=np.float32)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            a @ b
            times.append(time.perf_counter() - t0)
        flops += calls * 2.0 * m * k * n
        seconds += calls * statistics.median(times)
    return flops / seconds / 1e9 if seconds else 0.0


PER_CALL = (
    "scenes.make_dataset", "scenes.write_dataset", "scenes.read_dataset",
    "model.build_model", "train.load_checkpoint", "train.save_checkpoint",
    "train.sgd_update", "model.forward",
)
PER_IMAGE = (
    "tensor.backward", "assignment.assign", "losses.total_loss",
    "metrics.evaluate_dataset", "metrics.instance_pools", "metrics.alignment_analysis",
    "metrics.box_census", "metrics.average_precision", "metrics.detections_from_outputs",
    "geometry.nms", "tensor.bilinear_sample_per_channel.fwd",
    "tensor.bilinear_sample_per_channel.bwd",
)
PER_IMAGE_COUNTS = (
    "model.forward_calls", "tensor.graph_nodes", "assignment.candidates",
    "assignment.positives", "geometry.iou_calls", "metrics.candidates",
    "geometry.nms_kept", "metrics.detections_kept",
)


def _layers(run, tracer, images, overhead):
    """Per-layer metrics from the traced phase's spans and counts."""
    tracer.write(run.path("spans.csv"))
    totals = tracer.totals()

    def ms(name, per):
        calls, inclusive, _ = totals.get(name, (0, 0.0, 0.0))
        if per == "call":
            return 1000.0 * inclusive / calls if calls else 0.0
        return 1000.0 * inclusive / images

    for name in PER_CALL:
        run.layer(f"{name}_ms", ms(name, "call"), "ms")
    for name in PER_IMAGE:
        run.layer(f"{name}_ms", ms(name, "image"), "ms")
    run.layer("tensor.backward_self_ms",
              1000.0 * totals.get("tensor.backward", (0, 0.0, 0.0))[2] / images, "ms")
    run.layer("tensor.concat_ms", ms("tensor.concat.fwd", "image") + ms("tensor.concat.bwd", "image"), "ms")
    for group in CONV_GROUPS:
        busy = 0.0
        flops = 0.0
        for direction in ("fwd", "bwd"):
            calls, seconds, _ = totals.get(f"tensor.conv2d.{group}.{direction}", (0, 0.0, 0.0))
            run.layer(f"tensor.conv2d.{group}.{direction}_ms", 1000.0 * seconds / images, "ms")
            if calls:
                busy += seconds
                flops += tracer.conv_flops[(group, direction)]
        run.layer(f"tensor.conv2d.{group}.gflops", flops / busy / 1e9 if busy else 0.0, "GFLOP/s")
    for name in PER_IMAGE_COUNTS:
        run.layer(name, tracer.counts[name] / images, "count")
    kept = tracer.counts["geometry.nms_kept"]
    run.layer("metrics.kept_useful_ratio",
              tracer.counts["metrics.detections_kept"] / kept if kept else 0.0, "ratio")
    run.layer("blas.sgemm_gflops", sgemm_gflops(tracer.gemm_shapes, run.seed), "GFLOP/s")
    run.layer("trace.overhead_pct", 100.0 * (overhead - 1.0), "%")


WORKLOADS = {"train": run_train, "eval_trained": run_eval, "eval_untrained": run_eval}
