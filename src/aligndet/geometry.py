"""Axis-aligned box geometry on numpy arrays.

Boxes are (x1, y1, x2, y2) with x2 > x1, y2 > y1, in pixel units. The
overlap helpers accept [N,4]/[M,4] arrays and return dense matrices; the
differentiable GIoU used by the training loss is ``tensor.giou_loss``, one
op with a closed-form gradient, with these functions serving as its oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class Box:
    """One axis-aligned box with a class label."""

    x1: float
    y1: float
    x2: float
    y2: float
    class_id: int = 0

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise GeometryError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    def as_array(self):
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class Detection:
    """A scored detection candidate."""

    box: Box
    score: float
    class_id: int
    anchor_index: int = -1


class Candidates(Sequence):
    """Detection candidates as four arrays: [n,4] boxes, scores, classes, anchors.

    A read-only sequence that builds a ``Detection`` only for an item asked
    for. Every box is checked up front: a NaN coordinate raises ``Box``'s error.
    """

    def __init__(self, boxes, scores, classes, anchors):
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.scores = np.asarray(scores, dtype=np.float64)
        self.classes = np.asarray(classes, dtype=np.int64)
        self.anchors = np.asarray(anchors, dtype=np.int64)
        x1, y1, x2, y2 = self.boxes.T
        bad = np.flatnonzero(~((x2 > x1) & (y2 > y1)))
        if bad.size:
            Box(*self.boxes[bad[0]].tolist())  # raises GeometryError

    @classmethod
    def of(cls, detections):
        """A list of ``Detection`` packed once; a ``Candidates`` is returned as it is."""
        if isinstance(detections, Candidates):
            return detections
        return cls([(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in detections],
                   [d.score for d in detections], [d.class_id for d in detections],
                   [d.anchor_index for d in detections])

    def __len__(self):
        return self.scores.size

    def __getitem__(self, i):
        c = int(self.classes[i])
        return Detection(Box(*self.boxes[i].tolist(), class_id=c), float(self.scores[i]), c,
                         int(self.anchors[i]))


def instance_arrays(instances):
    """(boxes [n,4] float64, classes [n] int64) of a list of (Box, class_id) pairs."""
    boxes = [(b.x1, b.y1, b.x2, b.y2) for b, _ in instances]
    return (np.array(boxes, dtype=np.float64).reshape(-1, 4),
            np.array([c for _, c in instances], dtype=np.int64))


def _as_boxes(arr):
    a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    if a.ndim != 2 or a.shape[1] != 4:
        raise GeometryError(f"expected an [N,4] box array, got shape {a.shape}")
    return a


def pairwise_iou(boxes_a, boxes_b):
    """Intersection over union for every pair; [N,M] in [0,1].

    Pairs with zero union are defined to have IoU 0.
    """
    a = _as_boxes(boxes_a)
    b = _as_boxes(boxes_b)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return _iou(a.T[:, :, None], area_a[:, None], b.T[:, None, :], area_b[None, :])


def _iou(a, area_a, b, area_b):
    """IoU of boxes given as (x1, y1, x2, y2) columns and their areas; broadcasts."""
    inter = (np.maximum(np.minimum(a[2], b[2]) - np.maximum(a[0], b[0]), 0.0)
             * np.maximum(np.minimum(a[3], b[3]) - np.maximum(a[1], b[1]), 0.0))
    union = area_a + area_b - inter
    positive = union > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(positive, inter / np.where(positive, union, 1.0), 0.0)


def iou(box_a, box_b):
    """Scalar IoU of two boxes (Box instances or length-4 sequences)."""
    a = box_a.as_array() if isinstance(box_a, Box) else np.asarray(box_a, dtype=np.float64)
    b = box_b.as_array() if isinstance(box_b, Box) else np.asarray(box_b, dtype=np.float64)
    return float(pairwise_iou(a[None, :], b[None, :])[0, 0])


def pairwise_giou(boxes_a, boxes_b):
    """Generalized IoU for every pair; [N,M] in [-1,1].

    giou = iou - (hull - union) / hull, with the smallest enclosing
    axis-aligned hull. Equals iou when one box contains the other.
    """
    a = _as_boxes(boxes_a)
    b = _as_boxes(boxes_b)
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    hx1 = np.minimum(a[:, None, 0], b[None, :, 0])
    hy1 = np.minimum(a[:, None, 1], b[None, :, 1])
    hx2 = np.maximum(a[:, None, 2], b[None, :, 2])
    hy2 = np.maximum(a[:, None, 3], b[None, :, 3])
    hull = (hx2 - hx1) * (hy2 - hy1)
    iou_mat = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        penalty = np.where(hull > 0.0, (hull - union) / np.where(hull > 0.0, hull, 1.0), 0.0)
    return iou_mat - penalty


def giou(box_a, box_b):
    """Scalar generalized IoU of two boxes."""
    a = box_a.as_array() if isinstance(box_a, Box) else np.asarray(box_a, dtype=np.float64)
    b = box_b.as_array() if isinstance(box_b, Box) else np.asarray(box_b, dtype=np.float64)
    return float(pairwise_giou(a[None, :], b[None, :])[0, 0])


def centers_inside(px, py, boxes):
    """[N_points, N_boxes] bool mask: point strictly inside box."""
    b = _as_boxes(boxes)
    px = np.asarray(px, dtype=np.float64)[:, None]
    py = np.asarray(py, dtype=np.float64)[:, None]
    return (
        (px > b[None, :, 0])
        & (px < b[None, :, 2])
        & (py > b[None, :, 1])
        & (py < b[None, :, 3])
    )


def nms(detections, iou_threshold=0.6, max_detections=None):
    """Greedy class-wise non-maximum suppression.

    Candidates are visited in descending score order (ties broken by lower
    anchor index, then input order); a candidate is kept unless some
    already-kept detection of the same class overlaps it at IoU strictly
    above the threshold. Returns kept detections in visit order, stopping
    once ``max_detections`` are kept (None: no limit), which is the same
    list as the first ``max_detections`` of an unlimited run.

    ``detections`` is a list of ``Detection`` or a ``Candidates``, of which
    only the kept items are built. Each kept candidate suppresses its class's
    later live candidates with one row of ``pairwise_iou``'s arithmetic on
    box columns taken once, so the work is bounded by the number kept.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise GeometryError(f"iou_threshold must be in [0,1], got {iou_threshold}")
    if max_detections is not None and max_detections < 0:
        raise GeometryError(f"max_detections must be >= 0, got {max_detections}")
    n = len(detections)
    if n == 0 or max_detections == 0:
        return []
    cands = Candidates.of(detections)
    order = np.lexsort((np.arange(n), cands.anchors, -cands.scores))
    cols = cands.boxes[order].T.copy()
    areas = (cols[2] - cols[0]) * (cols[3] - cols[1])
    classes = cands.classes[order]
    # each class's positions in visit order
    members = {c: np.flatnonzero(classes == c) for c in set(classes.tolist())}
    live = np.ones(n, dtype=bool)
    kept = []
    for i in range(n):
        if not live[i]:
            continue
        kept.append(detections[order[i]])
        if len(kept) == max_detections:
            break
        same = members[classes[i]]
        rivals = same[np.searchsorted(same, i) + 1:]
        rivals = rivals[live[rivals]]
        if rivals.size:
            overlap = _iou(cols[:, i], areas[i], cols[:, rivals], areas[rivals])
            live[rivals[overlap > iou_threshold]] = False
    return kept
