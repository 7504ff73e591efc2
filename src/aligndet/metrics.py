"""Evaluation and task-alignment diagnostics.

Detection quality is summarized by COCO-style average precision. Alignment
quality is probed without NMS: for each ground-truth instance, the anchors
that were candidates for it form a prediction pool, and the rank
correlation of (score, IoU) over the pool's most confident members tells
how well the best-scoring predictions localize. A post-NMS census then
counts correct, redundant, and error boxes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assignment import decode_boxes
from .errors import ShapeError
from .geometry import Candidates, centers_inside, instance_arrays, nms, pairwise_iou

IOU_THRESHOLDS = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))


@dataclass
class AlignmentReport:
    pcc_top50: float
    mean_iou_top10: float
    n_correct: int
    n_redundant: int
    n_error: int
    ap50: float = None
    ap: float = None

    COLUMNS = ("pcc_top50", "mean_iou_top10", "n_correct", "n_redundant", "n_error", "ap50", "ap")

    def csv_row(self):
        def fmt(v):
            return "" if v is None else (f"{v:.6f}" if isinstance(v, float) else str(v))
        return [fmt(getattr(self, c)) for c in self.COLUMNS]


def _ranks(values):
    """1-based ranks, ties averaged.

    Each run of equal values in the stable sort, at sorted positions
    [start, end), takes the mean rank (start + 1 + end) / 2, exact in float64.
    """
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def pcc(xs, ys):
    """Pearson correlation of the rank vectors of xs and ys.

    Ranking first makes the statistic invariant under any strictly monotone
    rescaling of either input. Zero rank variance (all values tied) is
    reported as 0 with a RuntimeWarning.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ShapeError(f"pcc needs two equal-length vectors of >= 2 values, got {xs.shape}, {ys.shape}")
    rx, ry = _ranks(xs), _ranks(ys)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        warnings.warn("pcc: zero rank variance, correlation undefined, returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def instance_pools(p_align, b_align, instances, grid):
    """Per-instance (scores, ious) over that instance's candidate anchors.

    Candidates are the anchors whose center lies inside the instance box,
    the same pool the assigner draws from; scores are read at the
    instance's class, IoUs against the decoded boxes.
    """
    if not instances:
        return []
    p = np.asarray(p_align, dtype=np.float64).reshape(grid.count, -1)
    boxes = decode_boxes(b_align, grid)
    xs, ys = grid.points()
    gt, classes = instance_arrays(instances)
    inside = centers_inside(xs, ys, gt)
    ious = pairwise_iou(boxes, gt)
    pools = []
    for n, class_id in enumerate(classes.tolist()):
        cand = np.flatnonzero(inside[:, n])
        pools.append((p[cand, class_id], ious[cand, n]))
    return pools


def alignment_analysis(pools, k1=50, k2=10):
    """(mean rank-PCC over top-k1, mean IoU over top-k2), averaged per pool.

    Pools with fewer than k predictions use what they have; pools with
    fewer than 2 are skipped for the correlation.
    """
    pcc_values = []
    iou_values = []
    for scores, ious in pools:
        scores = np.asarray(scores, dtype=np.float64)
        ious = np.asarray(ious, dtype=np.float64)
        if scores.size == 0:
            continue
        order = np.lexsort((np.arange(scores.size), -scores))
        top1 = order[:k1]
        if top1.size >= 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pcc_values.append(pcc(scores[top1], ious[top1]))
        top2 = order[:k2]
        iou_values.append(float(ious[top2].mean()))
    pcc_mean = float(np.mean(pcc_values)) if pcc_values else 0.0
    iou_mean = float(np.mean(iou_values)) if iou_values else 0.0
    return pcc_mean, iou_mean


def detections_from_outputs(p_align, b_align, grid, score_floor=0.05,
                            nms_iou=0.6, max_detections=100):
    """Threshold, decode, and class-wise NMS into at most max_detections."""
    p = np.asarray(p_align, dtype=np.float64).reshape(grid.count, -1)
    boxes = decode_boxes(b_align, grid)
    anchor, cls = np.nonzero(p > score_floor)
    x1, y1, x2, y2 = boxes[anchor].T
    # skip boxes decoded inside out; a NaN box is not skipped and Candidates rejects it
    keep = ~((x2 <= x1) | (y2 <= y1))
    anchor, cls = anchor[keep], cls[keep]
    candidates = Candidates(boxes[anchor], p[anchor, cls], cls, anchor)
    return nms(candidates, iou_threshold=nms_iou, max_detections=max_detections)


def box_census(detections, instances):
    """(n_correct, n_redundant, n_error) over one image's detections.

    Detections are visited by descending score. Each is compared against
    the same-class ground truth with the highest IoU (the first one on
    ties): at IoU >= 0.5 it is correct if that instance was still
    unmatched, redundant otherwise; at 0.1 < IoU < 0.5 it is an error box;
    below, it counts in no bucket. The counts do not depend on the visit
    order, so they come from one detections x ground-truth IoU matrix.
    """
    if not detections or not instances:
        return 0, 0, 0
    dets = Candidates.of(detections)
    gt_boxes, gt_classes = instance_arrays(instances)
    # other-class pairs read -1, below every bucket
    ious = np.where(dets.classes[:, None] == gt_classes[None, :],
                    pairwise_iou(dets.boxes, gt_boxes), -1.0)
    best = ious.argmax(axis=1)
    best_iou = ious.max(axis=1)
    hit = best_iou >= 0.5
    n_correct = len(set(best[hit].tolist()))
    n_error = int(((best_iou > 0.1) & (best_iou < 0.5)).sum())
    return n_correct, int(hit.sum()) - n_correct, n_error


RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _interpolated_ap(recall, precision):
    """101-point interpolated AP from cumulative recall and precision.

    At each recall point the envelope is the best precision at that recall
    or beyond (0 where none reaches it). The 101 values are added one by
    one in recall order, so the float result does not depend on numpy's
    summation order.
    """
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    best = envelope[np.searchsorted(recall, RECALL_POINTS, side="left")]
    ap = 0.0
    for value in best.tolist():
        ap += value
    return ap / 101.0


def _class_ap(image_dets, image_gts, class_id):
    """AP of one class at each of IOU_THRESHOLDS; None when it has no ground truth.

    Within an image, detections are matched by descending score (ties by
    lower anchor index) to the unmatched ground truth of highest IoU at or
    above the threshold (the first one on ties). One IoU matrix per image
    serves every threshold. Detections from all images are then ranked by
    score, image, and in-image rank. Each image's detections come as a
    ``Candidates`` and its ground truth as ``instance_arrays``' pair.
    """
    thresholds = np.array(IOU_THRESHOLDS)[:, None]
    scores, images, ranks, hits = [], [], [], []
    n_gt = 0
    for img, (dets, (gt_boxes, gt_classes)) in enumerate(zip(image_dets, image_gts)):
        gt_boxes = gt_boxes[gt_classes == class_id]
        n_gt += len(gt_boxes)
        mine = np.flatnonzero(dets.classes == class_id)
        if not mine.size:
            continue
        det_scores = dets.scores[mine]
        order = np.lexsort((dets.anchors[mine], -det_scores))
        hit = np.zeros((thresholds.size, order.size), dtype=bool)
        if len(gt_boxes):
            ious = pairwise_iou(dets.boxes[mine[order]], gt_boxes)
            taken = np.zeros((thresholds.size, len(gt_boxes)), dtype=bool)
            for rank in np.flatnonzero(ious.max(axis=1) >= thresholds.min()):
                free = ~taken & (ious[rank] >= thresholds)
                best = np.where(free, ious[rank], -1.0).argmax(axis=1)
                matched = np.flatnonzero(free.any(axis=1))
                taken[matched, best[matched]] = True
                hit[matched, rank] = True
        scores.append(det_scores[order])
        images.append(np.full(order.size, img))
        ranks.append(np.arange(order.size))
        hits.append(hit)
    if n_gt == 0:
        return None
    if not scores:
        return [0.0] * thresholds.size
    ranked = np.lexsort((np.concatenate(ranks), np.concatenate(images),
                         -np.concatenate(scores)))
    tp = np.cumsum(np.concatenate(hits, axis=1)[:, ranked], axis=1)
    seen = np.arange(1, ranked.size + 1)
    return [_interpolated_ap(row / n_gt, row / seen) for row in tp]


def average_precision(image_dets, image_gts):
    """(ap50, ap averaged over IOU_THRESHOLDS), class-averaged; None without GT.

    Every class averaged has ground truth, so each _class_ap is a list of
    numbers; AP50 is its first entry, since IOU_THRESHOLDS starts at 0.5.
    """
    image_dets = [Candidates.of(dets) for dets in image_dets]
    image_gts = [instance_arrays(gts) for gts in image_gts]
    classes = sorted({c for _, gt_classes in image_gts for c in gt_classes.tolist()})
    if not classes:
        return None, None
    ap50_per_class = []
    ap_per_class = []
    for c in classes:
        per_threshold = _class_ap(image_dets, image_gts, c)
        ap50_per_class.append(per_threshold[0])
        ap_per_class.append(float(np.mean(per_threshold)))
    return float(np.mean(ap50_per_class)), float(np.mean(ap_per_class))


def evaluate_dataset(forward, records, grid):
    """Run the model over records and fold everything into one report."""
    pools = []
    image_dets = []
    image_gts = []
    totals = np.zeros(3, dtype=np.int64)
    for rec in records:
        out = forward(rec.image)
        pools.extend(instance_pools(out.P_align.data, out.B_align.data, rec.instances, grid))
        dets = Candidates.of(detections_from_outputs(out.P_align.data, out.B_align.data, grid))
        totals += np.array(box_census(dets, rec.instances))
        image_dets.append(dets)
        image_gts.append(rec.instances)
        # the next forward runs with no graph but its own alive
        del out
    pcc50, iou10 = alignment_analysis(pools)
    ap50, ap = average_precision(image_dets, image_gts)
    return AlignmentReport(
        pcc_top50=pcc50,
        mean_iou_top10=iou10,
        n_correct=int(totals[0]),
        n_redundant=int(totals[1]),
        n_error=int(totals[2]),
        ap50=ap50,
        ap=ap,
    )
