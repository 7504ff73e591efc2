"""Independent scalar reimplementations used as test oracles.

Everything here is written against the documented behavior, in plain
Python loops, with none of the library's vectorized code paths, except
``conv2d_reference``: it keeps an earlier numpy conv2d whose GEMMs and
sums the library's must reproduce bit for bit. Test files compare library
output against these. The detection oracles (NMS, box census, AP) take
each IoU from the library's pairwise_iou on one box at a time, so the
vectorized code must match them with ==, not approximately.
"""

import math

import numpy as np

from aligndet.geometry import iou, pairwise_iou


def bilinear_sample_reference(feature_map, i, j, c):
    """Channel ``c`` of an [H,W,C] array at fractional (i, j), in plain floats.

    Each coordinate is clamped to the map, then the value is interpolated
    between the two nearest rows and the two nearest columns.
    """
    h, w = len(feature_map), len(feature_map[0])
    i = min(max(float(i), 0.0), h - 1.0)
    j = min(max(float(j), 0.0), w - 1.0)
    i0 = min(int(math.floor(i)), max(h - 2, 0))
    j0 = min(int(math.floor(j)), max(w - 2, 0))
    i1, j1 = min(i0 + 1, h - 1), min(j0 + 1, w - 1)
    di, dj = i - i0, j - j0

    def at(r, q):
        return float(feature_map[r][q][c])

    top = (1.0 - dj) * at(i0, j0) + dj * at(i0, j1)
    bottom = (1.0 - dj) * at(i1, j0) + dj * at(i1, j1)
    return (1.0 - di) * top + di * bottom


def conv2d_reference(x, weight, bias, g, stride=1, pad=0):
    """conv2d by np.pad + sliding_window_view + transpose im2col, with gradients.

    ``x`` is [H,W,Cin], ``weight`` [k,k,Cin,Cout], ``bias`` [Cout] and ``g``
    the upstream gradient [h_out,w_out,Cout]. Returns (out, dx, dw, db),
    each gradient exactly as this implementation hands it to accumulation.
    """
    h, w_in, cin = x.shape
    k, cout = weight.shape[0], weight.shape[3]
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w_in + 2 * pad - k) // stride + 1
    padded = np.pad(x, ((pad, pad), (pad, pad), (0, 0))) if pad else x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    windows = windows[::stride, ::stride]            # [h_out, w_out, Cin, k, k]
    patches = windows.transpose(0, 1, 3, 4, 2).reshape(h_out * w_out, k * k * cin)
    patches = np.ascontiguousarray(patches)
    w_mat = weight.reshape(k * k * cin, cout)
    out = (patches @ w_mat + bias).reshape(h_out, w_out, cout)

    g_mat = g.reshape(h_out * w_out, cout)
    db = g_mat.sum(axis=0)
    dw = (patches.T @ g_mat).reshape(weight.shape)
    dpatch = (g_mat @ w_mat.T).reshape(h_out, w_out, k, k, cin)
    gpad = np.zeros((h + 2 * pad, w_in + 2 * pad, cin), dtype=x.dtype)
    for ki in range(k):
        for kj in range(k):
            gpad[ki:ki + h_out * stride:stride,
                 kj:kj + w_out * stride:stride] += dpatch[:, :, ki, kj]
    dx = gpad[pad:pad + h, pad:pad + w_in] if pad else gpad
    return out, dx, dw, db


def recompute_losses_from_rows(rows, gamma=2.0):
    """Scalar loss recomputation from a per-(anchor, class) CSV dump.

    ``rows`` is the dict-of-columns form returned by read_assignment_csv.
    Returns (cls_pos, cls_neg, reg) after normalization.
    """
    eps = 1e-12
    pos_sum = neg_sum = reg_sum = weight_sum = 0.0
    for k in range(len(rows["anchor_index"])):
        s = float(rows["s"][k])
        if rows["is_positive"][k]:
            that = float(rows["t_hat"][k])
            bce = -(that * math.log(max(s, eps)) + (1 - that) * math.log(max(1 - s, eps)))
            pos_sum += abs(that - s) ** gamma * bce
            reg_sum += that * (1.0 - float(rows["giou"][k]))
            weight_sum += that
        else:
            neg_sum += s ** gamma * -math.log(max(1 - s, eps))
    norm = max(1.0, weight_sum)
    return pos_sum / norm, neg_sum / norm, reg_sum / norm


def nms_reference(detections, iou_threshold=0.6):
    """Greedy class-wise NMS, one scalar IoU per (kept, candidate) pair.

    Visits candidates by descending score, then lower anchor index, then
    input order; keeps one unless an already-kept detection of its class
    overlaps it at IoU strictly above the threshold.
    """
    order = sorted(
        range(len(detections)),
        key=lambda k: (-detections[k].score, detections[k].anchor_index, k),
    )
    kept = []
    for k in order:
        det = detections[k]
        suppressed = False
        for other in kept:
            if other.class_id != det.class_id:
                continue
            if iou(other.box, det.box) > iou_threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(det)
    return kept


def box_census_reference(detections, instances):
    """(n_correct, n_redundant, n_error), one detection at a time by score."""
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


def interpolated_ap_reference(points):
    """101-point interpolated AP from cumulative (recall, precision) pairs."""
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        ap += best
    return ap / 101.0


def class_ap_reference(image_dets, image_gts, class_id, threshold):
    """AP of one class at one IoU threshold; None when it has no ground truth.

    Per image, detections go by descending score (ties: lower anchor index)
    to the unmatched ground truth of highest IoU at or above the threshold
    (ties: lower index); all images are then ranked by (score, image, rank).
    """
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
    return interpolated_ap_reference(points)


def average_precision_reference(scored_matches, n_gt):
    """101-point interpolated AP from (score, is_match) pairs.

    Straight transcription of the standard evaluation recipe, used to
    cross-check the library's implementation on small cases.
    """
    if n_gt == 0:
        return None
    ranked = sorted(scored_matches, key=lambda r: -r[0])
    tp = fp = 0
    points = []
    for _, is_match in ranked:
        if is_match:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    return interpolated_ap_reference(points)
