"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines as
they print. The quick criteria finish in seconds; the two that train real
models do not (criterion 6 is the smoke run, around six minutes, criterion
7 compares assigners across three seeds and takes two to three times that;
the two share the seed-0 aligned run, which is trained once per module).

The AP50 pin for the smoke run lives in tests/data/smoke_baseline.json,
committed with the repository next to its platform band and the per-kernel
measurements the band is sized from. The test only reads that file; when
it is missing the criterion fails instead of recording a new pin.
"""

from __future__ import annotations

import ctypes
import inspect
import json
import os
import time

import numpy as np
import pytest

from oracle_utils import recompute_losses_from_rows

from aligndet import selfcheck
from aligndet import tensor as T
from aligndet.assignment import (
    AnchorGrid,
    Assignment,
    assign,
    decode_boxes,
    dump_assignment_csv,
    read_assignment_csv,
)
from aligndet.errors import CheckpointError
from aligndet.geometry import (
    Box,
    Detection,
    giou,
    iou,
    nms,
)
from aligndet.losses import total_loss
from aligndet.metrics import evaluate_dataset
from aligndet.model import ModelConfig, build_model
from aligndet.scenes import (
    DatasetConfig,
    generate_scene,
    make_dataset,
    read_dataset,
    train_seeds,
    val_seeds,
    write_dataset,
)
from aligndet.tensor import Tensor
from aligndet.train import adopt_params, load_checkpoint, save_checkpoint, train

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SMOKE_PIN = os.path.join(DATA_DIR, "smoke_baseline.json")


def _verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: finite differences ------------------------------------


def _away_from_zero(rng, shape, margin=0.15):
    # keeps relu/abs/min/max fixtures off their kinks, where central
    # differences straddle the non-smooth point and disagree by design
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return signs * (margin + rng.random(shape))


def _op_cases(rng):
    """One (name, params, build) triple per differentiable op.

    Structural ops (concat, gated_weight, ...) are multiplied by a fixed
    probe constant before the reducing sum, otherwise any permutation of
    their gradient would sum to the same scalar and pass by accident.
    """
    a = rng.random((3, 4)) + 0.25
    b = rng.random((3, 4)) + 0.25
    probe = 0.5 + rng.random((3, 4))

    def reduced(op):
        def build(p):
            return T.tensor_sum(T.mul(op(p), Tensor(probe)))

        return build

    cases = [
        ("add", {"a": a, "b": b}, reduced(lambda p: T.add(p["a"], p["b"]))),
        ("mul", {"a": a, "b": b}, reduced(lambda p: T.mul(p["a"], p["b"]))),
        ("exp", {"a": 1.6 * (rng.random((3, 4)) - 0.5)}, reduced(lambda p: T.exp(p["a"]))),
        ("sqrt", {"a": a + 0.1}, reduced(lambda p: T.sqrt(p["a"]))),
        ("relu", {"a": _away_from_zero(rng, (3, 4))}, reduced(lambda p: T.relu(p["a"]))),
        ("sigmoid", {"a": 2.0 * (rng.random((3, 4)) - 0.5)}, reduced(lambda p: T.sigmoid(p["a"]))),
        ("tensor_sum", {"a": a}, lambda p: T.tensor_sum(p["a"])),
    ]

    probe6 = 0.5 + rng.random((2, 3, 6))
    cases.append(
        (
            "concat",
            {"a": rng.random((2, 3, 2)), "b": rng.random((2, 3, 4))},
            lambda p: T.tensor_sum(T.mul(T.concat([p["a"], p["b"]]), Tensor(probe6))),
        )
    )

    probe_gate = 0.5 + rng.random((1, 1, 12, 2))
    cases.append(
        (
            "gated_weight",
            {"weight": rng.random((1, 1, 12, 2)) - 0.5, "w": rng.random(3) - 0.5},
            lambda p: T.tensor_sum(
                T.mul(T.gated_weight(p["weight"], p["w"]), Tensor(probe_gate))
            ),
        )
    )

    probe_pool = 0.5 + rng.random(5)
    cases.append(
        (
            "global_avg_pool",
            {"a": rng.random((3, 4, 5))},
            lambda p: T.tensor_sum(T.mul(T.global_avg_pool(p["a"]), Tensor(probe_pool))),
        )
    )

    probe_lin = 0.5 + rng.random(3)
    cases.append(
        (
            "linear",
            {"w": rng.random((3, 4)) - 0.5, "b": rng.random(3) - 0.5, "x": rng.random(4)},
            lambda p: T.tensor_sum(
                T.mul(T.linear(p["w"], p["b"], p["x"]), Tensor(probe_lin))
            ),
        )
    )

    probe_conv = 0.5 + rng.random((3, 3, 3))
    cases.append(
        (
            "conv2d",
            {
                "x": rng.random((5, 5, 2)),
                "w": 0.5 * (rng.random((3, 3, 2, 3)) - 0.5),
                "b": rng.random(3) - 0.5,
            },
            lambda p: T.tensor_sum(
                T.mul(T.conv2d(p["x"], p["w"], p["b"], stride=2, pad=1), Tensor(probe_conv))
            ),
        )
    )

    # sample coordinates sit mid-cell so the corner weights stay smooth
    probe_bil = 0.5 + rng.random((4, 4, 3))
    cell = np.mgrid[0:4, 0:4].transpose(1, 2, 0)[..., [0, 1] * 3]
    cases.append(
        (
            "bilinear_sample_per_channel",
            {
                "map": rng.random((4, 4, 3)),
                "offsets": rng.integers(0, 3, (4, 4, 6)) + 0.15 + 0.7 * rng.random((4, 4, 6))
                - cell,
            },
            lambda p: T.tensor_sum(
                T.mul(
                    T.bilinear_sample_per_channel(p["map"], p["offsets"]),
                    Tensor(probe_bil),
                )
            ),
        )
    )

    # positives sit at least 0.05 from their label, off the focal weight's
    # sign change; pos and neg get different weights so each is checked
    shape = (2, 3, 4)
    pos_mask = (rng.random(shape) < 0.4).astype(np.float64)
    target = pos_mask * (0.45 + 0.1 * rng.random(shape))
    scores = np.where(
        pos_mask > 0, 0.5 + 0.3 * _away_from_zero(rng, shape, 0.35), 0.05 + 0.9 * rng.random(shape)
    )

    def focal_bce(p):
        pos, neg = T.focal_bce(p["s"], target, pos_mask, 1.5, 0.8)
        return T.add(pos, T.mul(neg, 0.37))

    cases.append(("focal_bce", {"s": scores}, focal_bce))

    # each target edge sits 0.15-0.65 px off its predicted edge (no min/max
    # ties, overlaps at least 0.7 px wide); the last pair is disjoint
    dists = 0.5 + rng.random((3, 4, 4))
    rows = np.array([0, 5, 6, 11])
    centers = 2.0 + 8.0 * rng.random((4, 2))
    d = 2.0 * dists.reshape(12, 4)[rows]
    boxes = np.concatenate([centers - d[:, :2], centers + d[:, 2:]], axis=1)
    gt = boxes + 0.5 * _away_from_zero(rng, (4, 4), 0.3)
    gt[3] += 20.0
    weights = 0.2 + 0.8 * rng.random(4)
    cases.append(
        (
            "giou_loss",
            {"d": dists},
            lambda p: T.giou_loss(p["d"], rows, centers, gt, weights, 2, 0.7),
        )
    )
    return cases


def test_c1_gradient_suite():
    t0 = time.perf_counter()
    failures = []
    n_ops = 0
    worst_op = ("", 0.0)
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        cases = _op_cases(rng)
        n_ops = len(cases)
        for name, arrays, build in cases:
            params = {k: Tensor(v) for k, v in arrays.items()}
            err = T.grad_check(build, params, seed=seed)
            if err >= 1e-3:
                failures.append(f"{name} seed {seed} rel err {err:.2e}")
            if err > worst_op[1]:
                worst_op = (name, err)

    graph_worst = 0.0
    for name, passed, detail in selfcheck.gradient_suite(seeds=tuple(range(10))):
        if not passed:
            failures.append(f"{name}: {detail}")
        graph_worst = max(graph_worst, float(detail.split()[-1]))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    detail = (
        f"{n_ops} ops x 10 seeds worst {worst_op[1]:.1e} ({worst_op[0]}), "
        f"full graph x 10 seeds worst {graph_worst:.1e}, {elapsed:.1f}s of 120s"
    )
    if failures:
        detail += "; " + "; ".join(failures[:4])
    _verdict("criterion 1 (gradient suite)", ok, detail)


def test_c1_cases_cover_every_op():
    """Every public graph-building op of aligndet.tensor has one c1 case,
    and every case names an op that exists."""
    not_ops = {"grad_check", "tensor_to_bytes", "tensor_from_bytes"}
    ops = {
        name
        for name, fn in inspect.getmembers(T, inspect.isfunction)
        if fn.__module__ == T.__name__ and not name.startswith("_") and name not in not_ops
    }
    cases = [name for name, _, _ in _op_cases(np.random.default_rng(0))]
    assert len(cases) == len(set(cases)), f"duplicate c1 cases in {sorted(cases)}"
    assert ops - set(cases) == set(), f"ops without a c1 case: {sorted(ops - set(cases))}"
    assert set(cases) - ops == set(), f"c1 cases naming no op: {sorted(set(cases) - ops)}"


def _graph_grads(out):
    """The grad arrays of every node reachable from ``out``."""
    grads, stack, seen = [], [out], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
            if t.grad is not None:
                grads.append(t.grad)
    return grads


def test_gradients_share_no_memory():
    """After backward no two nodes' grads share memory, and each is a
    writable array that a later gradient can be added into: over every c1
    case, one tensor on both sides of add, a float64 gradient reaching
    float32 and 0-d leaves, and a default training image's graph."""
    outputs = []
    for name, arrays, build in _op_cases(np.random.default_rng(0)):
        outputs.append((name, build({k: Tensor(v) for k, v in arrays.items()})))

    x = Tensor(np.arange(3.0))
    doubled = T.add(x, x)
    outputs.append(("add(x, x)", T.tensor_sum(T.mul(doubled, Tensor(np.full(3, 0.5))))))

    x32 = Tensor(np.ones(3, dtype=np.float32))
    s32 = Tensor(np.float32(2.0))
    mixed = T.mul(T.mul(x32, s32), Tensor(np.full(3, 0.1)))  # float64 from here on
    outputs.append(("float64 into float32", T.tensor_sum(mixed)))

    cfg = ModelConfig()
    _, forward = build_model(cfg)
    rec = generate_scene(train_seeds(1)[0], DatasetConfig())
    out = forward(rec.image)
    frozen = assign(rec.instances, cfg.grid(), out.P_align.data, out.B_align.data,
                    m=cfg.top_m, alpha=cfg.alpha, beta=cfg.beta)
    loss = total_loss(out.P_align, out.B_align, frozen, rec.instances, cfg.grid(),
                      gamma=cfg.gamma).total
    outputs.append(("training graph", loss))

    for name, root in outputs:
        root.backward()
        grads = _graph_grads(root)
        for i, a in enumerate(grads):
            assert isinstance(a, np.ndarray) and a.flags.writeable, name
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b), f"{name}: two grads share memory"
    assert np.array_equal(doubled.grad, np.full(3, 0.5))
    assert np.array_equal(x.grad, np.full(3, 1.0))
    assert x32.grad.dtype == np.float32 and s32.grad.dtype == np.float32
    assert s32.grad.shape == () and np.array_equal(x32.grad, np.full(3, 0.2, np.float32))


# -- criterion 2: head identities ----------------------------------------


def test_c2_equation_identities():
    failures = []
    configs = [
        selfcheck._check_cfg(seed=5),
        ModelConfig(image_size=32, num_classes=3, seed=6),
    ]
    gap_seen = 0.0
    for idx, (cfg, scale) in enumerate(zip(configs, (0.15, 0.02))):
        # off-init params keep the identities non-vacuous; the scale must
        # stay small enough for the deeper config not to saturate in float32
        params, forward = build_model(cfg)
        rng = selfcheck._perturb(params, 70 + idx, scale)
        image = rng.uniform((cfg.image_size, cfg.image_size, 3)).astype(np.float32)
        for name, passed, detail in selfcheck.identity_suite(params, forward, image):
            if not passed:
                failures.append(f"config {idx} {name}: {detail}")
            if name == "identity/unit-probability-map":
                gap_seen = max(gap_seen, float(detail.split()[-1]))

    detail = (
        f"2 configs: unit-M gap {gap_seen:.1e} (tol 1e-6), "
        "zero-O bitwise, unit-w bitwise"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    _verdict("criterion 2 (equation identities)", not failures, detail)


# -- criterion 3: assignment vs brute force ------------------------------


def _random_instances(rng, width_px, height_px, k):
    out = []
    for _ in range(int(rng.integers(1, 4))):
        bw = float(rng.uniform(9.0, width_px - 1.0))
        bh = float(rng.uniform(9.0, height_px - 1.0))
        x1 = float(rng.uniform(0.0, width_px - bw))
        y1 = float(rng.uniform(0.0, height_px - bh))
        cls = int(rng.integers(0, k))
        out.append((Box(x1, y1, x1 + bw, y1 + bh, class_id=cls), cls))
    return out


def test_c3_assignment_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    cases = 0
    failures = []
    while checked < 100:
        cases += 1
        gh = int(rng.integers(2, 17))
        gw = int(rng.integers(2, 17))
        grid = AnchorGrid(height=gh, width=gw, stride=8)
        instances = _random_instances(rng, gw * 8, gh * 8, 3)
        p = rng.uniform(0.02, 0.98, size=(gh, gw, 3))
        b = rng.uniform(0.1, 3.0, size=(gh, gw, 4))

        got = assign(instances, grid, p, b)
        ref_pos, ref_idx, ref_that = selfcheck.brute_force_assign(
            instances, grid, p, b, 13, 1.0, 6.0
        )
        if not np.array_equal(got.is_positive, np.asarray(ref_pos)):
            failures.append(f"case {cases}: positive sets differ")
        elif not np.array_equal(got.instance_index, np.asarray(ref_idx)):
            failures.append(f"case {cases}: matched instances differ")
        elif not np.allclose(got.t_hat, np.asarray(ref_that), rtol=0.0, atol=1e-12):
            failures.append(f"case {cases}: t_hat differs")

        for i in range(len(instances)):
            members = got.positives_of(i)
            if members.size and abs(got.t_hat[members].max() - got.u[members].max()) > 1e-12:
                failures.append(f"case {cases}: instance {i} max t_hat != max u")
        checked += len(instances)

    detail = f"{checked} instances over {cases} random grids match brute force"
    if failures:
        detail = "; ".join(failures[:5])
    _verdict("criterion 3 (assignment oracle)", not failures, detail)


# -- criterion 4: losses vs CSV recomputation ----------------------------


def test_c4_loss_oracle(tmp_path):
    rng = np.random.default_rng(4)
    failures = []
    worst = 0.0
    for case in range(20):
        gh = int(rng.integers(3, 7))
        gw = int(rng.integers(3, 7))
        grid = AnchorGrid(height=gh, width=gw, stride=8)
        instances = _random_instances(rng, gw * 8, gh * 8, 3)
        p = rng.uniform(0.05, 0.95, size=(gh, gw, 3))
        b = rng.uniform(0.2, 2.8, size=(gh, gw, 4))
        asn = assign(instances, grid, p, b)

        dump = tmp_path / f"dump_{case}.csv"
        dump_assignment_csv(dump, grid, p, b, asn, instances)
        want_pos, want_neg, want_reg = recompute_losses_from_rows(
            read_assignment_csv(dump)
        )
        got = total_loss(Tensor(p), Tensor(b), asn, instances, grid)
        gaps = {
            "cls_pos": abs(float(got.cls_pos.data) - want_pos),
            "cls_neg": abs(float(got.cls_neg.data) - want_neg),
            "reg": abs(float(got.reg.data) - want_reg),
        }
        worst = max(worst, max(gaps.values()))
        failures += [
            f"case {case}: {k} off by {v:.2e}" for k, v in gaps.items() if v > 1e-5
        ]

    # analytic zero: a positive whose score already equals its label
    asn = Assignment(
        is_positive=np.array([True]),
        instance_index=np.array([0], dtype=np.int64),
        matched_class=np.array([1], dtype=np.int64),
        s=np.array([0.6]),
        u=np.array([0.75]),
        t=np.array([0.6 * 0.75 ** 6]),
        t_hat=np.array([0.6]),
    )
    p = np.zeros((1, 1, 2))
    p[0, 0, 1] = 0.6
    one_anchor = AnchorGrid(height=1, width=1, stride=8)
    pos_term = total_loss(Tensor(p), Tensor(np.ones((1, 1, 4))), asn, [], one_anchor).cls_pos
    if float(pos_term.data) != 0.0:
        failures.append(f"matched positive gives cls_pos {float(pos_term.data):.2e}")

    # analytic zero: silent negatives
    n = 4
    zeros = np.zeros(n)
    asn = Assignment(
        is_positive=np.zeros(n, dtype=bool),
        instance_index=np.full(n, -1, dtype=np.int64),
        matched_class=np.full(n, -1, dtype=np.int64),
        s=zeros,
        u=zeros,
        t=zeros,
        t_hat=zeros,
    )
    neg_term = total_loss(
        Tensor(np.zeros((2, 2, 3))), Tensor(np.ones((2, 2, 4))), asn, [],
        AnchorGrid(height=2, width=2, stride=8),
    ).cls_neg
    if float(neg_term.data) != 0.0:
        failures.append(f"zero-score negatives give cls_neg {float(neg_term.data):.2e}")

    detail = f"20 dumps recomputed, worst gap {worst:.1e} (tol 1e-5), analytic zeros exact"
    if failures:
        detail = "; ".join(failures[:5])
    _verdict("criterion 4 (loss oracle)", not failures, detail)


# -- criterion 5: geometry -----------------------------------------------


def test_c5_geometry_oracles():
    center_cell = AnchorGrid(height=1, width=1, stride=8)  # anchor at (4, 4)
    numeric = [
        ("self iou", abs(iou(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) - 1.0)),
        ("disjoint iou", abs(iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)))),
        ("overlap iou 1/3", abs(iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) - 1.0 / 3.0)),
        ("self giou", abs(giou(Box(0, 0, 1, 1), Box(0, 0, 1, 1)) - 1.0)),
        ("disjoint giou -7/9", abs(giou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) + 7.0 / 9.0)),
        ("contained giou 1/16", abs(giou(Box(0, 0, 4, 4), Box(1, 1, 2, 2)) - 1.0 / 16.0)),
        (
            "decode zero distances",
            float(np.abs(decode_boxes(np.zeros((1, 1, 4)), center_cell) - 4.0).max()),
        ),
        (
            "decode direct",
            float(
                np.abs(
                    decode_boxes(np.array([0.125, 0.25, 0.375, 0.5]).reshape(1, 1, 4),
                                 center_cell)
                    - np.array([3.0, 2.0, 7.0, 8.0])
                ).max()
            ),
        ),
    ]
    failures = [f"{name} off by {gap:.2e}" for name, gap in numeric if gap > 1e-6]

    high = Detection(Box(0, 0, 2, 2), 0.9, 0, 0)
    low = Detection(Box(0, 0, 2, 2), 0.8, 0, 1)
    far = Detection(Box(5, 5, 7, 7), 0.8, 0, 2)
    if [d.score for d in nms([high], 0.6)] != [0.9]:
        failures.append("singleton nms")
    if [d.score for d in nms([low, high], 0.6)] != [0.9]:
        failures.append("duplicate nms kept the wrong set")
    if len(nms([high, far], 0.6)) != 2:
        failures.append("disjoint nms suppressed")

    worst = max(gap for _, gap in numeric)
    detail = f"{len(numeric)} numeric checks worst {worst:.1e} (tol 1e-6), nms examples hold"
    if failures:
        detail = "; ".join(failures)
    _verdict("criterion 5 (geometry oracles)", not failures, detail)


# -- criterion 6: training smoke -----------------------------------------


def _openblas_core():
    """Name of the OpenBLAS kernel in use, or None where it cannot be read.

    OpenBLAS builds with DYNAMIC_ARCH pick a kernel per CPU at load time
    (``OPENBLAS_CORETYPE`` overrides the pick). numpy's extension module
    links the library, so the query is looked up through its handle.
    """
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in (
        "scipy_openblas_get_corename64_",
        "scipy_openblas_get_corename",
        "openblas_get_corename64_",
        "openblas_get_corename",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def _numeric_path():
    """numpy version, BLAS build and kernel: what the float32 trajectory rests on."""
    parts = [f"numpy {np.__version__}"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts.append(f"{blas['name']} {blas['version']}")
    except (TypeError, KeyError):  # numpy < 1.25, or a build without the entry
        parts.append("BLAS unknown")
    core = _openblas_core()
    if core:
        parts.append(f"core {core}")
    return ", ".join(parts)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """The default model (seed 0, aligned) trained 500 steps on train_seeds(64).

    Criterion 6 checks this run and criterion 7 reuses it as its seed-0
    aligned run, which has the same config and data, so the module trains
    it once. Returns (dataset path, run dir, loss history, train seconds).
    """
    root = tmp_path_factory.mktemp("smoke")
    data = str(root / "train.tdset")
    write_dataset(make_dataset(train_seeds(64), DatasetConfig()), data)
    run_dir = str(root / "run_0_aligned")
    t0 = time.perf_counter()
    _, hist = train(ModelConfig(seed=0), data, run_dir)
    return data, run_dir, hist, time.perf_counter() - t0


def test_c6_training_smoke(tmp_path, smoke_run):
    if not os.path.exists(SMOKE_PIN):
        _verdict(
            "criterion 6 (training smoke)",
            False,
            f"pin file {SMOKE_PIN} is missing; it is part of the repository "
            "and this test never records it, restore it from version control",
        )
    with open(SMOKE_PIN) as f:
        pin = json.load(f)
    # the pin was recorded on one BLAS kernel; the band covers the AP50 spread
    # measured across kernels (see ap50_band_source in the pin file)
    floor = pin["ap50"] - pin["ap50_band"]

    t0 = time.perf_counter()
    data, run_a, hist, train_s = smoke_run
    cfg = ModelConfig(seed=0)  # 500 steps, batch 8 by default

    failures = []
    first, last = hist[0]["total"], hist[-1]["total"]
    if not last < 0.5 * first:
        failures.append(f"loss ratio {last / first:.3f} >= 0.5")

    model_params, forward = build_model(cfg)
    loaded, _, _ = load_checkpoint(os.path.join(run_a, "checkpoint"))
    adopt_params(model_params, loaded)
    report = evaluate_dataset(forward, read_dataset(data), cfg.grid())

    note = (
        f"ap50 {report.ap50:.4f} vs pin {pin['ap50']:.4f} "
        f"(floor {floor:.4f} = pin - {pin['ap50_band']} platform band)"
    )
    if report.ap50 is None or report.ap50 < floor:
        failures.append(note)

    train(cfg, data, str(tmp_path / "runB"))
    with open(os.path.join(run_a, "checkpoint", "params.bin"), "rb") as f:
        bytes_a = f.read()
    bytes_b = (tmp_path / "runB" / "checkpoint" / "params.bin").read_bytes()
    if bytes_a != bytes_b:
        failures.append("reruns produced different checkpoints")

    elapsed = train_s + time.perf_counter() - t0
    detail = (
        f"loss {first:.3f} -> {last:.3f} (ratio {last / first:.2f}), {note}, "
        f"reruns {'bit-identical' if bytes_a == bytes_b else 'DIFFER'}, "
        f"{elapsed:.0f}s (target 600s), on {_numeric_path()}"
    )
    _verdict("criterion 6 (training smoke)", not failures, detail)


# -- criterion 7: directional check against the center baseline ----------


def test_c7_directional_alignment(tmp_path, smoke_run):
    data, smoke_dir, _, _ = smoke_run
    val_records = make_dataset(val_seeds(16), DatasetConfig())

    pairs = []
    for seed in (0, 1, 2):
        reports = {}
        for assigner in ("aligned", "center"):
            cfg = ModelConfig(seed=seed, assigner=assigner)
            if (seed, assigner) == (0, "aligned"):
                run_dir = smoke_dir  # criterion 6's run: same config and data
            else:
                run_dir = str(tmp_path / f"run_{seed}_{assigner}")
                train(cfg, data, run_dir)
            model_params, forward = build_model(cfg)
            loaded, _, _ = load_checkpoint(os.path.join(run_dir, "checkpoint"))
            adopt_params(model_params, loaded)
            reports[assigner] = evaluate_dataset(forward, val_records, cfg.grid())
        a, c = reports["aligned"], reports["center"]
        pairs.append((a, c))
        win = a.pcc_top50 >= c.pcc_top50 and a.mean_iou_top10 >= c.mean_iou_top10
        print(
            f"  seed {seed}: aligned pcc {a.pcc_top50:+.4f} iou {a.mean_iou_top10:.4f} "
            f"ap50 {a.ap50:.3f} | center pcc {c.pcc_top50:+.4f} "
            f"iou {c.mean_iou_top10:.4f} ap50 {c.ap50:.3f} "
            f"-> {'win' if win else 'loss'}"
        )

    wins = sum(
        a.pcc_top50 >= c.pcc_top50 and a.mean_iou_top10 >= c.mean_iou_top10
        for a, c in pairs
    )
    if wins < 2:
        iou_wins = sum(a.mean_iou_top10 >= c.mean_iou_top10 for a, c in pairs)
        ap_wins = sum(a.ap50 >= c.ap50 for a, c in pairs)
        print(
            f"  note: the aligned assigner wins mean_iou_top10 in {iou_wins}/3 "
            f"seeds and ap50 in {ap_wins}/3"
        )
    _verdict(
        "criterion 7 (directional, soft)",
        wins >= 2,
        f"aligned >= center on both alignment metrics in {wins}/3 seeds (need 2), "
        f"on {_numeric_path()}",
    )


# -- criterion 8: on-disk formats ----------------------------------------


def test_c8_format_roundtrips(tmp_path):
    failures = [
        f"{name}: {detail}"
        for name, passed, detail in selfcheck.format_suite()
        if not passed
    ]

    # datasets must round-trip at the byte level, not just record equality
    records = make_dataset(range(3), DatasetConfig(image_size=32, max_per_scene=2))
    first = str(tmp_path / "a.tdset")
    second = str(tmp_path / "b.tdset")
    write_dataset(records, first)
    write_dataset(read_dataset(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        if fa.read() != fb.read():
            failures.append("dataset bytes changed across a round trip")

    cfg = selfcheck._check_cfg(seed=11)
    params, _ = build_model(cfg)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(params, ckpt, step=12, config=cfg)
    loaded, step, config_json = load_checkpoint(ckpt)
    if step != 12:
        failures.append(f"checkpoint step came back as {step}")
    if sorted(loaded) != sorted(params):
        failures.append("checkpoint parameter names differ")
    elif not all(np.array_equal(loaded[k].data, params[k].data) for k in params):
        failures.append("checkpoint payload drifted")
    if config_json is None or json.loads(config_json).get("image_size") != 16:
        failures.append("model config was not embedded")

    payload = os.path.join(ckpt, "params.bin")
    with open(payload, "rb") as f:
        blob = f.read()
    for label, corrupt in [
        ("truncated", blob[: len(blob) // 2]),
        ("trailing", blob + b"xx"),
    ]:
        with open(payload, "wb") as f:
            f.write(corrupt)
        try:
            load_checkpoint(ckpt)
            failures.append(f"{label} payload accepted")
        except CheckpointError:
            pass
    with open(payload, "wb") as f:
        f.write(blob)

    manifest = os.path.join(ckpt, "manifest.txt")
    with open(manifest) as f:
        lines = f.read().splitlines()
    for idx, line in enumerate(lines):
        if line.startswith("param ") and not line.endswith(" scalar"):
            head, dims, offset = line.rsplit(" ", 2)
            bumped = ",".join(str(int(d) + 1) for d in dims.split(","))
            lines[idx] = f"{head} {bumped} {offset}"
            break
    with open(manifest, "w") as f:
        f.write("\n".join(lines) + "\n")
    try:
        load_checkpoint(ckpt)
        failures.append("edited manifest shape accepted")
    except CheckpointError:
        pass

    detail = "tensor, dataset and checkpoint round-trips exact; corrupt files rejected"
    if failures:
        detail = "; ".join(failures[:5])
    _verdict("criterion 8 (format round-trips)", not failures, detail)
