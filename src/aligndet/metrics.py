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
from .geometry import Box, Detection, centers_inside, nms, pairwise_iou

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
    """1-based ranks, ties averaged."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.arange(1, v.size + 1, dtype=np.float64)
    for val in np.unique(v):
        mask = v == val
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
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
    gt = np.stack([b.as_array() for b, _ in instances])
    inside = centers_inside(xs, ys, gt)
    ious = pairwise_iou(boxes, gt)
    pools = []
    for n, (_, class_id) in enumerate(instances):
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
    """Threshold, decode, and class-wise NMS into a detection list."""
    p = np.asarray(p_align, dtype=np.float64).reshape(grid.count, -1)
    boxes = decode_boxes(b_align, grid)
    candidates = []
    for a, c in zip(*np.nonzero(p > score_floor)):
        x1, y1, x2, y2 = boxes[a]
        if x2 <= x1 or y2 <= y1:
            continue
        candidates.append(
            Detection(Box(x1, y1, x2, y2, class_id=int(c)), float(p[a, c]), int(c), int(a))
        )
    kept = nms(candidates, iou_threshold=nms_iou)
    return kept[:max_detections]


def box_census(detections, instances):
    """(n_correct, n_redundant, n_error) over one image's detections.

    Detections are visited by descending score. Each is compared against
    the same-class ground truth with the highest IoU: at IoU >= 0.5 it is
    correct if that instance was still unmatched, redundant otherwise; at
    0.1 < IoU < 0.5 it is an error box; below, it counts in no bucket.
    """
    matched = [False] * len(instances)
    n_correct = n_redundant = n_error = 0
    order = sorted(
        range(len(detections)),
        key=lambda k: (-detections[k].score, detections[k].anchor_index, k),
    )
    gt_arr = np.stack([b.as_array() for b, _ in instances]) if instances else None
    for k in order:
        det = detections[k]
        if gt_arr is None:
            break
        same = [n for n, (_, cls) in enumerate(instances) if cls == det.class_id]
        if not same:
            continue
        ious = pairwise_iou(det.box.as_array()[None, :], gt_arr[same])[0]
        best = int(np.argmax(ious))
        best_iou = float(ious[best])
        if best_iou >= 0.5:
            if matched[same[best]]:
                n_redundant += 1
            else:
                matched[same[best]] = True
                n_correct += 1
        elif 0.1 < best_iou < 0.5:
            n_error += 1
    return n_correct, n_redundant, n_error


def _interpolated_ap(points):
    """101-point interpolated AP from cumulative (recall, precision)."""
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        ap += best
    return ap / 101.0


def _class_ap(image_dets, image_gts, class_id, threshold):
    scored = []
    n_gt = 0
    for img, (dets, gts) in enumerate(zip(image_dets, image_gts)):
        gt_boxes = [b.as_array() for b, cls in gts if cls == class_id]
        n_gt += len(gt_boxes)
        cls_dets = sorted(
            (d for d in dets if d.class_id == class_id),
            key=lambda d: (-d.score, d.anchor_index),
        )
        taken = [False] * len(gt_boxes)
        for rank, det in enumerate(cls_dets):
            hit = False
            if gt_boxes:
                ious = pairwise_iou(det.box.as_array()[None, :], np.stack(gt_boxes))[0]
                free = [g for g in range(len(gt_boxes)) if not taken[g] and ious[g] >= threshold]
                if free:
                    best = max(free, key=lambda g: (ious[g], -g))
                    taken[best] = True
                    hit = True
            scored.append((det.score, img, rank, hit))
    if n_gt == 0:
        return None
    scored.sort(key=lambda r: (-r[0], r[1], r[2]))
    tp = fp = 0
    points = []
    for _, _, _, hit in scored:
        if hit:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    return _interpolated_ap(points)


def average_precision(image_dets, image_gts):
    """(ap50, ap averaged over IOU_THRESHOLDS), class-averaged; None without GT.

    Every class averaged has ground truth, so each _class_ap is a number;
    AP50 is the sweep's first entry, since IOU_THRESHOLDS starts at 0.5.
    """
    classes = sorted({cls for gts in image_gts for _, cls in gts})
    if not classes:
        return None, None
    ap50_per_class = []
    ap_per_class = []
    for c in classes:
        per_threshold = [_class_ap(image_dets, image_gts, c, t) for t in IOU_THRESHOLDS]
        ap50_per_class.append(per_threshold[0])
        ap_per_class.append(float(np.mean(per_threshold)))
    return float(np.mean(ap50_per_class)), float(np.mean(ap_per_class))


def evaluate_dataset(forward, records, grid, score_floor=0.05, nms_iou=0.6,
                     k1=50, k2=10):
    """Run the model over records and fold everything into one report."""
    pools = []
    image_dets = []
    image_gts = []
    totals = np.zeros(3, dtype=np.int64)
    for rec in records:
        out = forward(rec.image)
        pools.extend(instance_pools(out.P_align.data, out.B_align.data, rec.instances, grid))
        dets = detections_from_outputs(out.P_align.data, out.B_align.data, grid,
                                       score_floor=score_floor, nms_iou=nms_iou)
        totals += np.array(box_census(dets, rec.instances))
        image_dets.append(dets)
        image_gts.append(rec.instances)
    pcc50, iou10 = alignment_analysis(pools, k1=k1, k2=k2)
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
