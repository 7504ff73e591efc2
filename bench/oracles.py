"""Independent checks on the program's outputs, written apart from aligndet.

Nothing here imports ``aligndet.geometry`` or ``aligndet.metrics``: greedy
NMS and 101-point AP are re-derived from their definitions in plain numpy,
so a fault shared by the program and its own tests still shows here.

Detections are carried as a dict of parallel arrays: ``boxes`` [n,4]
float64 (x1, y1, x2, y2 in pixels), ``scores``, ``classes`` and
``anchors`` (the flat anchor index the detection was decoded at).
"""

from __future__ import annotations

import numpy as np

IOU_THRESHOLDS = np.round(np.arange(0.5, 1.0, 0.05), 2)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


class CheckFailed(Exception):
    """An output of the program broke a property the benchmark checks."""


def iou_matrix(a, b):
    """IoU of every box in ``a`` [n,4] against every box in ``b`` [m,4]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    w = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    h = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(w, 0.0, None) * np.clip(h, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    safe = np.where(union > 0.0, union, 1.0)
    return np.where(union > 0.0, inter / safe, 0.0)


def decode(b_align, stride):
    """[H,W,4] ltrb distances in stride units -> [H*W,4] pixel boxes."""
    d = np.asarray(b_align, dtype=np.float64)
    h, w, _ = d.shape
    rows, cols = np.divmod(np.arange(h * w), w)
    cx = (cols + 0.5) * stride
    cy = (rows + 0.5) * stride
    flat = d.reshape(-1, 4) * stride
    return np.stack([cx - flat[:, 0], cy - flat[:, 1], cx + flat[:, 2], cy + flat[:, 3]], axis=1)


def candidates(p_align, b_align, stride, score_floor=0.05):
    """Every (anchor, class) pair scoring above the floor with a proper box."""
    p = np.asarray(p_align, dtype=np.float64)
    p = p.reshape(-1, p.shape[-1])
    boxes = decode(b_align, stride)
    anchors, classes = np.nonzero(p > score_floor)
    b = boxes[anchors]
    proper = (b[:, 2] > b[:, 0]) & (b[:, 3] > b[:, 1])
    anchors, classes = anchors[proper], classes[proper]
    return {
        "boxes": boxes[anchors],
        "scores": p[anchors, classes],
        "classes": classes.astype(np.int64),
        "anchors": anchors.astype(np.int64),
    }


def visit_order(dets):
    """Descending score, then lower anchor index, then input position."""
    n = dets["scores"].size
    return np.lexsort((np.arange(n), dets["anchors"], -dets["scores"]))


def take(dets, index):
    return {key: value[index] for key, value in dets.items()}


def greedy_nms(dets, iou_threshold=0.6, max_detections=None):
    """Positions of the kept candidates, in visit order.

    A candidate is kept unless a kept candidate of its class overlaps it at
    IoU strictly above the threshold. Stops at ``max_detections`` kept.
    """
    order = visit_order(dets)
    kept = []
    kept_of_class = {}
    for k in order:
        c = int(dets["classes"][k])
        prior = kept_of_class.setdefault(c, [])
        if prior and iou_matrix(dets["boxes"][k], dets["boxes"][prior]).max() > iou_threshold:
            continue
        prior.append(k)
        kept.append(k)
        if max_detections is not None and len(kept) == max_detections:
            break
    return np.array(kept, dtype=np.int64)


def check_greedy_nms(cands, kept, iou_threshold=0.6, max_detections=100):
    """Raise CheckFailed unless ``kept`` is greedy NMS of ``cands``, truncated.

    ``kept`` holds the program's detections as arrays. It must list
    candidates in visit order; no two kept detections of one class may
    overlap above the threshold; every candidate ranked above the last kept
    one that was left out must overlap a higher-ranked kept detection of
    its class above the threshold; and when fewer than ``max_detections``
    were kept, that holds for every candidate left out.
    """
    order = visit_order(cands)
    rank_of = {(int(cands["anchors"][k]), int(cands["classes"][k])): r for r, k in enumerate(order)}
    try:
        ranks = np.array([rank_of[(int(a), int(c))] for a, c in zip(kept["anchors"], kept["classes"])],
                         dtype=np.int64)
    except KeyError as exc:
        raise CheckFailed(f"kept detection {exc} is not a candidate") from None
    if ranks.size > max_detections:
        raise CheckFailed(f"{ranks.size} detections kept, limit {max_detections}")
    if np.any(np.diff(ranks) <= 0):
        raise CheckFailed("kept detections are not in visit order")
    in_order = take(cands, order)
    if not (np.array_equal(kept["boxes"], in_order["boxes"][ranks])
            and np.array_equal(kept["scores"], in_order["scores"][ranks])):
        raise CheckFailed("a kept detection's box or score differs from its candidate's")
    is_kept = np.zeros(order.size, dtype=bool)
    is_kept[ranks] = True
    last = ranks[-1] if ranks.size and ranks.size == max_detections else order.size - 1
    for c in np.unique(in_order["classes"]):
        of_class = np.flatnonzero(in_order["classes"] == c)
        kept_c = of_class[is_kept[of_class]]
        if kept_c.size > 1:
            ious = iou_matrix(in_order["boxes"][kept_c], in_order["boxes"][kept_c])
            np.fill_diagonal(ious, 0.0)
            if ious.max() > iou_threshold:
                raise CheckFailed(f"two kept class-{c} detections overlap at {ious.max():.4f}")
        dropped = of_class[~is_kept[of_class] & (of_class <= last)]
        if dropped.size:
            if kept_c.size == 0:
                raise CheckFailed(f"class-{c} candidate rank {dropped[0]} dropped with nothing kept")
            ious = iou_matrix(in_order["boxes"][dropped], in_order["boxes"][kept_c])
            covers = (ious > iou_threshold) & (kept_c[None, :] < dropped[:, None])
            bad = dropped[~covers.any(axis=1)]
            if bad.size:
                raise CheckFailed(
                    f"class-{c} candidate rank {bad[0]} was dropped but no higher-ranked "
                    f"kept detection overlaps it above {iou_threshold}"
                )


def _class_points(image_dets, image_gts, class_id, threshold):
    """(recall, precision) after each detection of one class, best first."""
    rows = []
    n_gt = 0
    for img, (dets, (gt_boxes, gt_classes)) in enumerate(zip(image_dets, image_gts)):
        gts = gt_boxes[gt_classes == class_id]
        n_gt += len(gts)
        mine = np.flatnonzero(dets["classes"] == class_id)
        mine = mine[np.lexsort((mine, dets["anchors"][mine], -dets["scores"][mine]))]
        taken = np.zeros(len(gts), dtype=bool)
        ious = iou_matrix(dets["boxes"][mine], gts) if len(gts) else None
        for rank, k in enumerate(mine):
            hit = False
            if ious is not None:
                row = np.where(~taken & (ious[rank] >= threshold), ious[rank], -1.0)
                best = int(np.argmax(row))
                if row[best] >= 0.0:
                    taken[best] = True
                    hit = True
            rows.append((-dets["scores"][k], img, rank, hit))
    if n_gt == 0:
        return None
    rows.sort(key=lambda r: r[:3])
    hits = np.array([r[3] for r in rows], dtype=bool)
    tp = np.cumsum(hits)
    fp = np.cumsum(~hits)
    return tp / n_gt, tp / np.maximum(tp + fp, 1)


def interpolated_ap(recall, precision):
    """Mean over 101 recall points of the best precision at or above each."""
    if recall.size == 0:
        return 0.0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, RECALL_POINTS, side="left")
    reached = first < recall.size
    best = np.where(reached, envelope[np.minimum(first, recall.size - 1)], 0.0)
    return float(best.sum() / RECALL_POINTS.size)


def average_precision(image_dets, image_gts):
    """(AP at IoU 0.5, AP averaged over 0.50:0.95), both class-averaged.

    ``image_gts`` holds one (boxes [g,4], classes [g]) pair per image.
    Returns (None, None) when no image has ground truth.
    """
    classes = sorted({int(c) for _, gt_classes in image_gts for c in gt_classes})
    if not classes:
        return None, None
    ap50, ap = [], []
    for c in classes:
        ap50.append(interpolated_ap(*_class_points(image_dets, image_gts, c, 0.5)))
        ap.append(np.mean([interpolated_ap(*_class_points(image_dets, image_gts, c, t))
                           for t in IOU_THRESHOLDS]))
    return float(np.mean(ap50)), float(np.mean(ap))


def check_soft_labels(is_positive, instance_index, u, t_hat, n_instances, top_m):
    """Raise CheckFailed unless each instance's soft labels obey TAL.

    Each instance has at most ``top_m`` positives, and over them the
    largest soft label t_hat equals the largest IoU u.
    """
    for n in range(n_instances):
        pos = np.flatnonzero(is_positive & (instance_index == n))
        if pos.size > top_m:
            raise CheckFailed(f"instance {n} has {pos.size} positives, top_m is {top_m}")
        if pos.size and abs(t_hat[pos].max() - u[pos].max()) > 1e-12:
            raise CheckFailed(
                f"instance {n}: largest t_hat {t_hat[pos].max()!r} != largest IoU {u[pos].max()!r}"
            )


def check_same_arrays(expected, loaded):
    """Raise CheckFailed unless two name->array dicts match bit for bit, in order."""
    if list(expected) != list(loaded):
        raise CheckFailed(f"parameter names differ: {list(expected)} vs {list(loaded)}")
    for name, arr in expected.items():
        got = loaded[name]
        if arr.dtype != got.dtype or arr.shape != got.shape or arr.tobytes() != got.tobytes():
            raise CheckFailed(f"parameter {name!r} does not round-trip bitwise")


def check_same_files(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            raise CheckFailed(f"{path_a} and {path_b} differ")
