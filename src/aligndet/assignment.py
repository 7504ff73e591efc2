"""Metric-driven label assignment.

Each ground-truth instance scores every anchor by how well the anchor
already serves it jointly on both tasks: t = s^alpha * u^beta, where s is
the aligned classification score at the instance's class and u is the IoU
between the anchor's decoded box and the instance. The m highest-t anchors
whose centers lie inside the instance become its positives; an anchor
claimed by several instances keeps the one it localizes best (highest u,
ties to the lower instance index). Per instance, t is then rescaled so its
maximum over that instance's positives equals the best IoU achieved there,
giving the soft label t_hat used by both losses.

Assignment is a pure numpy computation on prediction values; it carries no
gradient and is recomputed from scratch every training step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .geometry import centers_inside, instance_arrays, pairwise_giou, pairwise_iou

ALPHA = 1.0
BETA = 6.0
TOP_M = 13


@dataclass(frozen=True)
class AnchorGrid:
    """One anchor per feature-map cell, centered at ((j+0.5)s, (i+0.5)s)."""

    height: int
    width: int
    stride: int

    @property
    def count(self):
        return self.height * self.width

    def points(self):
        """Flattened row-major (x, y) anchor centers, each [H*W]."""
        ii, jj = np.mgrid[0 : self.height, 0 : self.width]
        xs = (jj.reshape(-1) + 0.5) * self.stride
        ys = (ii.reshape(-1) + 0.5) * self.stride
        return xs.astype(np.float64), ys.astype(np.float64)


def decode_boxes(b_align, grid):
    """[H,W,4] ltrb distances (stride units) -> [H*W,4] pixel boxes."""
    d = np.asarray(b_align, dtype=np.float64)
    if d.shape != (grid.height, grid.width, 4):
        raise ShapeError(
            f"distance map {d.shape} does not match grid "
            f"({grid.height}, {grid.width}, 4)"
        )
    flat = d.reshape(-1, 4) * grid.stride
    xs, ys = grid.points()
    return np.stack(
        [xs - flat[:, 0], ys - flat[:, 1], xs + flat[:, 2], ys + flat[:, 3]], axis=1
    )


def alignment_metric(s, u, alpha=ALPHA, beta=BETA):
    """Joint anchor quality t = s^alpha * u^beta (0^positive is 0)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"alpha and beta must be positive, got {alpha}, {beta}")
    return np.power(s, alpha) * np.power(u, beta)


def normalize_t(t_values, u_values):
    """Rescale t so its max equals the max IoU; all-zero t stays zero."""
    t = np.asarray(t_values, dtype=np.float64)
    u = np.asarray(u_values, dtype=np.float64)
    if t.shape != u.shape:
        raise ShapeError(f"t and u shapes differ: {t.shape} vs {u.shape}")
    if t.size == 0 or t.max() <= 0.0:
        return np.zeros_like(t)
    return t * (u.max() / t.max())


@dataclass
class Assignment:
    """Flattened per-anchor labels; arrays all have length H*W."""

    is_positive: np.ndarray      # bool
    instance_index: np.ndarray   # int64, -1 for negatives
    matched_class: np.ndarray    # int64, -1 for negatives
    u: np.ndarray                # IoU with the matched instance (0 if negative)
    t: np.ndarray                # alignment metric (0 if negative)
    t_hat: np.ndarray            # normalized soft label in [0,1]

    @property
    def num_positive(self):
        return int(self.is_positive.sum())

    def positives_of(self, instance):
        return np.flatnonzero(self.is_positive & (self.instance_index == instance))


def _empty_assignment(n):
    return Assignment(
        is_positive=np.zeros(n, dtype=bool),
        instance_index=np.full(n, -1, dtype=np.int64),
        matched_class=np.full(n, -1, dtype=np.int64),
        u=np.zeros(n, dtype=np.float64),
        t=np.zeros(n, dtype=np.float64),
        t_hat=np.zeros(n, dtype=np.float64),
    )


def _labels(is_positive, owner, classes, u, t):
    """Labels of each positive anchor's owner from [A,N] u and t; t_hat per instance."""
    out = _empty_assignment(is_positive.size)
    pos = np.flatnonzero(is_positive)
    own = owner[pos]
    out.is_positive[pos] = True
    out.instance_index[pos] = own
    out.matched_class[pos] = classes[own]
    out.u[pos] = u[pos, own]
    out.t[pos] = t[pos, own]
    for n in range(classes.size):
        mine = pos[own == n]
        out.t_hat[mine] = normalize_t(out.t[mine], out.u[mine])
    return out


def assign(instances, grid, p_align, b_align, m=TOP_M, alpha=ALPHA, beta=BETA):
    """Task-aligned assignment over one image's predictions.

    ``instances`` is a list of (Box, class_id); ``p_align`` is the [H,W,K]
    score map and ``b_align`` the [H,W,4] distance map (plain arrays or
    tensor ``.data``). Scores are read at each instance's class channel;
    IoU uses the decoded boxes. Deterministic: ranking ties prefer the
    lower anchor index, claim ties the lower instance index.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    p = np.asarray(p_align, dtype=np.float64)
    n_anchor = grid.count
    if not instances:
        return _empty_assignment(n_anchor)
    if p.shape[:2] != (grid.height, grid.width):
        raise ShapeError(f"score map {p.shape} does not match grid")
    scores = p.reshape(n_anchor, -1)
    boxes = decode_boxes(b_align, grid)
    gt, classes = instance_arrays(instances)
    if classes.max() >= scores.shape[1]:
        raise ShapeError(
            f"instance class {classes.max()} out of range for K={scores.shape[1]}"
        )

    u = pairwise_iou(boxes, gt)                    # [A, N]
    s = scores[:, classes]                         # [A, N]
    t = alignment_metric(s, u, alpha, beta)
    xs, ys = grid.points()
    candidate = centers_inside(xs, ys, gt)         # [A, N]

    # per instance, a stable top-m: candidates first, then t descending, then anchor index
    top = np.lexsort((-t, ~candidate), axis=0)[:m]
    claims = np.zeros_like(candidate)
    np.put_along_axis(claims, top, True, axis=0)
    claims &= candidate
    owner = np.where(claims, u, -1.0).argmax(axis=1)
    return _labels(claims.any(axis=1), owner, classes, u, t)


def center_sampling_assign(instances, grid, shrink=0.5):
    """Fixed geometric baseline: positives are anchors inside the shrunk box.

    Each box keeps ``shrink`` of its width and height around its center;
    anchors inside claim the instance, conflicts go to the smaller box
    (ties to the lower instance index). Labels are hard: t_hat = 1 at every
    positive. Prediction-independent, so it never adapts to what the model
    currently does well.
    """
    if not instances:
        return _empty_assignment(grid.count)
    gt, classes = instance_arrays(instances)
    cx = (gt[:, 0] + gt[:, 2]) / 2
    cy = (gt[:, 1] + gt[:, 3]) / 2
    hw = (gt[:, 2] - gt[:, 0]) * shrink / 2
    hh = (gt[:, 3] - gt[:, 1]) * shrink / 2
    shrunk = np.stack([cx - hw, cy - hh, cx + hw, cy + hh], axis=1)
    xs, ys = grid.points()
    inside = centers_inside(xs, ys, shrunk)
    areas = (gt[:, 2] - gt[:, 0]) * (gt[:, 3] - gt[:, 1])
    owner = np.where(inside, areas, np.inf).argmin(axis=1)
    ones = np.ones(inside.shape)
    return _labels(inside.any(axis=1), owner, classes, ones, ones)


CSV_COLUMNS = (
    "anchor_index", "x", "y", "s", "u", "t", "t_hat",
    "instance", "is_positive", "class_id", "giou",
)


def dump_assignment_csv(path, grid, p_align, b_align, assignment, instances):
    """One CSV row per (anchor, class) pair.

    Rows carry everything needed to recompute both losses without touching
    the tensors: the score s at that class, and for positive rows the soft
    label t_hat and the signed GIoU of the decoded box against the matched
    instance. Negative rows have zero u/t/t_hat/giou and instance -1.
    """
    p = np.asarray(p_align, dtype=np.float64)
    scores = p.reshape(grid.count, -1)
    n_class = scores.shape[1]
    xs, ys = grid.points()
    giou_col = np.zeros(grid.count, dtype=np.float64)
    pos = np.flatnonzero(assignment.is_positive)
    if pos.size and instances:
        boxes = decode_boxes(b_align, grid)
        g = pairwise_giou(boxes[pos], instance_arrays(instances)[0])
        giou_col[pos] = g[np.arange(pos.size), assignment.instance_index[pos]]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for a in range(grid.count):
            for c in range(n_class):
                matched = assignment.is_positive[a] and assignment.matched_class[a] == c
                writer.writerow(
                    [
                        a,
                        f"{xs[a]:.6g}",
                        f"{ys[a]:.6g}",
                        f"{scores[a, c]:.17g}",
                        f"{assignment.u[a]:.17g}" if matched else "0",
                        f"{assignment.t[a]:.17g}" if matched else "0",
                        f"{assignment.t_hat[a]:.17g}" if matched else "0",
                        assignment.instance_index[a] if matched else -1,
                        1 if matched else 0,
                        c,
                        f"{giou_col[a]:.17g}" if matched else "0",
                    ]
                )


def read_assignment_csv(path):
    """Load a dump back as a dict of numpy columns."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ShapeError(f"unexpected CSV columns {reader.fieldnames}")
        rows = list(reader)
    out = {}
    for col in CSV_COLUMNS:
        kind = np.int64 if col in ("anchor_index", "instance", "is_positive", "class_id") else np.float64
        out[col] = np.array([row[col] for row in rows], dtype=kind)
    return out
