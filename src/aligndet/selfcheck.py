"""Runtime health checks behind the ``gradcheck`` CLI verb.

Each suite returns (name, passed, detail) triples so the CLI can print a
line per check. The assignment suite compares the vectorized assigner
against :func:`brute_force_assign`, written as plain per-anchor loops, so
it is checked against independently derived results rather than itself.
The acceptance and unit tests use the same reference.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import tensor as T
from .assignment import AnchorGrid, assign
from .errors import FormatError
from .geometry import Box, iou
from .head import align_classification, align_localization
from .losses import total_loss
from .model import ModelConfig, build_model
from .scenes import (
    DatasetConfig,
    SplitMix64,
    generate_scene,
    read_dataset,
    write_dataset,
)
from .tensor import Tensor, tensor_from_bytes, tensor_to_bytes


def _check_cfg(seed=0):
    """The tiny model the gradient checks run on (acceptance c2 and c8 too)."""
    return ModelConfig(
        image_size=16,
        num_classes=2,
        backbone_channels=(4, 4, 8, 8),
        backbone_strides=(2, 2, 2, 1),
        channels=8,
        num_layers=2,
        attention_ratio=4,
        align_channels=4,
        seed=seed,
    )


def _perturb(params, seed, scale=0.15):
    # fresh initialization leaves relu inputs and sample coordinates on
    # kinks; finite differences need smooth surroundings. Returns the
    # stream, so that a caller can draw its inputs from it next.
    rng = SplitMix64(seed)
    for p in params.values():
        p.data = p.data + (rng.normal(p.data.shape) * scale).astype(np.float32)
    return rng


def _fixture_record(seed):
    rng = SplitMix64(seed)
    image = rng.uniform((16, 16, 3)).astype(np.float32)
    instances = [
        (Box(1.0, 2.0, 11.0, 12.0, class_id=0), 0),
        (Box(6.0, 5.0, 15.0, 15.0, class_id=1), 1),
    ]
    return image, instances


def gradient_suite(seeds=(0, 1, 2), tolerance=1e-3):
    """Finite differences against the full backbone+head+loss graph."""
    results = []
    for seed in seeds:
        cfg = _check_cfg(seed)
        image, instances = _fixture_record(1000 + seed)
        params, forward = build_model(cfg)
        _perturb(params, 99 + seed)
        out = forward(image)
        frozen = assign(instances, cfg.grid(), out.P_align.data, out.B_align.data,
                        m=cfg.top_m, alpha=cfg.alpha, beta=cfg.beta)
        image64 = image.astype(np.float64)

        def build(p, forward=forward, frozen=frozen, cfg=cfg, instances=instances):
            out = forward(Tensor(image64), params=p)
            return total_loss(out.P_align, out.B_align, frozen, instances,
                              cfg.grid(), gamma=cfg.gamma).total

        err = T.grad_check(build, params, eps=1e-5, coords_per_param=2, seed=seed)
        results.append((f"gradient/full-graph/seed{seed}",
                        err < tolerance, f"max rel err {err:.3e}"))
    return results


def identity_suite(params, forward, image):
    """The head's three identities, on a model the caller built and perturbed.

    Unit M gives P_align^2 = P, zero O gives B_align = B, and unit layer
    attention, folded into a task's reduction weight, leaves it unchanged.
    Each line also needs a finite forward, and the zero-O line needs active
    offsets (B_align != B; the offset head starts at zero). A failing line
    leads with the check that failed.
    """
    out = forward(image)
    dtype = out.P.dtype
    finite = all(np.isfinite(t.data).all() for t in (out.P_align, out.B_align))

    def result(name, holds, detail, *preconditions):
        checks = ((finite, "perturbed forward is not finite"),) + preconditions
        failed = [note for ok, note in checks if not ok]
        return name, holds and not failed, "; ".join(failed + [detail])

    P_align = align_classification(out.P, np.ones(out.M.shape, dtype=dtype))
    gap = float(np.abs(P_align.data ** 2 - out.P.data).max())
    B_align = align_localization(out.B, np.zeros(out.O.shape, dtype=dtype))
    exact = np.array_equal(B_align.data, out.B.data)
    active = not np.array_equal(out.B_align.data, out.B.data)
    unit = np.ones(len(out.inter), dtype=dtype)
    same = all(np.array_equal(T.gated_weight(params[f"tap.{task}.reduce.w"], unit).data,
                              params[f"tap.{task}.reduce.w"].data) for task in ("cls", "loc"))
    return [
        result("identity/unit-probability-map", gap < 1e-6, f"max |P_align^2 - P| = {gap:.2e}"),
        result("identity/zero-offsets", exact,
               "B_align == B bitwise" if exact else "resampled boxes drifted",
               (active, "offsets inactive, identity is vacuous")),
        result("identity/unit-gates", same,
               "unit-gated weights == weights bitwise" if same else "gates leaked into weights"),
    ]


def brute_force_assign(instances, grid, p_align, b_align, m, alpha, beta):
    """Exhaustive top-m assignment with the documented conflict rule.

    The reference the vectorized assigner is checked against: plain loops
    over anchors, boxes decoded here from the distance map, none of the code
    in ``assignment``, and IoU from the scalar :func:`geometry.iou`. Returns
    (is_positive, instance_index, t_hat) lists over anchors.
    """
    p = np.asarray(p_align, dtype=np.float64)
    b = np.asarray(b_align, dtype=np.float64)
    xs = [(a % grid.width + 0.5) * grid.stride for a in range(grid.count)]
    ys = [(a // grid.width + 0.5) * grid.stride for a in range(grid.count)]
    decoded = []
    for a in range(grid.count):
        i, j = divmod(a, grid.width)
        l, t_, r, bt = (float(b[i, j, c]) * grid.stride for c in range(4))
        decoded.append((xs[a] - l, ys[a] - t_, xs[a] + r, ys[a] + bt))

    claims = {}          # anchor -> list of (instance, u, t)
    for n, (box, cls) in enumerate(instances):
        scored = []
        for a in range(grid.count):
            if not (box.x1 < xs[a] < box.x2 and box.y1 < ys[a] < box.y2):
                continue
            u = iou(decoded[a], box)
            i, j = divmod(a, grid.width)
            s = float(p[i, j, cls])
            t = (s ** alpha) * (u ** beta)
            scored.append((a, u, t))
        scored.sort(key=lambda row: (-row[2], row[0]))
        for a, u, t in scored[:m]:
            claims.setdefault(a, []).append((n, u, t))

    is_positive = [False] * grid.count
    instance_index = [-1] * grid.count
    t_vals = [0.0] * grid.count
    u_vals = [0.0] * grid.count
    for a, entries in claims.items():
        entries.sort(key=lambda e: (-e[1], e[0]))
        n, u, t = entries[0]
        is_positive[a] = True
        instance_index[a] = n
        t_vals[a] = t
        u_vals[a] = u

    t_hat = [0.0] * grid.count
    for n in range(len(instances)):
        members = [a for a in range(grid.count) if instance_index[a] == n]
        if not members:
            continue
        max_t = max(t_vals[a] for a in members)
        max_u = max(u_vals[a] for a in members)
        if max_t > 0:
            for a in members:
                t_hat[a] = t_vals[a] * (max_u / max_t)
    return is_positive, instance_index, t_hat


def assignment_suite(n_cases=50, seed=0):
    """Vectorized assigner vs the reference, random grids and instances."""
    rng = SplitMix64(seed)
    failures = 0
    detail = ""
    norm_ok = True
    for case in range(n_cases):
        h = int(rng.randint(2, 17))
        w = int(rng.randint(2, 17))
        stride = 8
        grid = AnchorGrid(height=h, width=w, stride=stride)
        n_inst = int(rng.randint(1, 5))
        instances = []
        for k in range(n_inst):
            x1 = rng.uniform() * (w * stride - 10)
            y1 = rng.uniform() * (h * stride - 10)
            bw = 9 + rng.uniform() * (w * stride - x1 - 9)
            bh = 9 + rng.uniform() * (h * stride - y1 - 9)
            instances.append(
                (Box(float(x1), float(y1), float(x1 + bw), float(y1 + bh)), int(rng.randint(0, 3)))
            )
        p = rng.uniform((h, w, 3)).astype(np.float64)
        b = (0.2 + rng.uniform((h, w, 4)) * 3.0).astype(np.float64)
        got = assign(instances, grid, p, b)
        want_pos, want_owner, want_that = brute_force_assign(
            instances, grid, p, b, m=13, alpha=1.0, beta=6.0
        )
        same = (
            np.array_equal(got.is_positive, want_pos)
            and np.array_equal(got.instance_index, want_owner)
            and np.allclose(got.t_hat, want_that, rtol=0, atol=1e-12)
        )
        if not same:
            failures += 1
            if not detail:
                detail = f"first mismatch at case {case}"
        for n in range(n_inst):
            anchors = got.positives_of(n)
            if anchors.size:
                if abs(got.t_hat[anchors].max() - got.u[anchors].max()) > 1e-12:
                    norm_ok = False
    results = [(f"assignment/reference-equality/{n_cases}cases", failures == 0,
                detail or "all cases match")]
    results.append(("assignment/max-that-equals-max-u", norm_ok,
                    "normalization cap holds" if norm_ok else "cap violated"))
    return results


def format_suite():
    """Round trips and corruption rejection for both binary formats."""
    results = []
    rng = SplitMix64(31)

    arr = rng.normal((3, 4, 2)).astype(np.float32)
    blob = tensor_to_bytes(arr)
    back, used = tensor_from_bytes(blob)
    ok = np.array_equal(arr, back) and used == len(blob)
    results.append(("format/tensor-roundtrip", ok, f"{len(blob)} bytes"))

    try:
        tensor_from_bytes(b"XXXX" + blob[4:])
        results.append(("format/tensor-bad-magic", False, "accepted corrupt magic"))
    except FormatError as exc:
        results.append(("format/tensor-bad-magic", True, str(exc)))

    try:
        tensor_from_bytes(blob[:-3])
        results.append(("format/tensor-truncated", False, "accepted truncated payload"))
    except FormatError as exc:
        results.append(("format/tensor-truncated", True, str(exc)))

    cfg = DatasetConfig(image_size=32, num_classes=2, max_per_scene=2)
    records = [generate_scene(s, cfg) for s in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenes.tdset")
        write_dataset(records, path)
        back = read_dataset(path)
        ok = len(back) == len(records) and all(
            np.array_equal(a.image, b.image)
            and a.seed == b.seed
            and len(a.instances) == len(b.instances)
            for a, b in zip(records, back)
        )
        results.append(("format/dataset-roundtrip", ok, f"{len(records)} scenes"))

        with open(path, "rb") as fh:
            payload = fh.read()
        clipped = os.path.join(tmp, "clipped.tdset")
        with open(clipped, "wb") as fh:
            fh.write(payload[:-5])
        try:
            read_dataset(clipped)
            results.append(("format/dataset-truncated", False, "accepted truncated file"))
        except FormatError as exc:
            results.append(("format/dataset-truncated", True, str(exc)))
    return results


def run_all(out=None, seed=0):
    """Run every suite, print one line per check, return overall success."""
    params, forward = build_model(_check_cfg(seed=7))
    _perturb(params, 123)
    image, _ = _fixture_record(2000)
    suites = (
        gradient_suite(seeds=tuple((seed + k) % 2 ** 64 for k in range(3))),
        identity_suite(params, forward, image),
        assignment_suite(seed=seed),
        format_suite(),
    )
    all_ok = True
    for results in suites:
        for name, ok, detail in results:
            all_ok = all_ok and ok
            line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
            if out is not None:
                out.write(line + "\n")
            else:
                print(line)
    return all_ok
