"""Independent scalar reimplementations used as test oracles.

Everything here is written against the documented behavior, in plain
Python loops, with none of the library's vectorized code paths, except
the numpy references: ``conv2d_reference`` keeps an earlier numpy conv2d
and ``gated_weight_reference`` scales the weight block by block, both
matched bit for bit, and ``head_forward_reference`` composes the head as
the paper writes it, gating each interactive map before the reduction.
The library's head folds the gates into the reduction weights instead, so
it matches that reference bit for bit where the fold does not reach and
up to rounding where it does. Test files compare library output against
these. The detection oracles (NMS, box census, AP) take
each IoU from the library's pairwise_iou on one box at a time, so the
vectorized code must match them with ==, not approximately.
"""

import math
from types import SimpleNamespace

import numpy as np

from aligndet import tensor as T
from aligndet.geometry import iou, pairwise_iou
from aligndet.head import interactive_features
from aligndet.tensor import Tensor, _accum, _corner_setup, _lift, _node


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


# -- the head composed from per-channel ops -------------------------------
#
# Test-only graph ops with the bodies the head was built from before each
# of its equations became one op: channel picks, one pool over a concat,
# and a sampler that takes absolute coordinates.


def take_channel_reference(a, c):
    """Pick one channel (last axis), dropping that axis."""
    a = _lift(a, np.float32)
    data = a.data[..., c].copy()

    def backward_fn(g):
        full = np.zeros(a.shape, dtype=a.dtype)
        full[..., c] = g
        _accum(a, full)

    return _node(data, (a,), backward_fn)


def select_channels_reference(a, indices):
    """Pick channels (last axis) by index; output keeps the last axis."""
    a = _lift(a, np.float32)
    idx = np.asarray(indices, dtype=np.int64)
    data = a.data[..., idx].copy()

    def backward_fn(g):
        full = np.zeros(a.shape, dtype=a.dtype)
        np.add.at(full, (..., idx), g)
        _accum(a, full)

    return _node(data, (a,), backward_fn)


def gated_weight_reference(weight, w):
    """A [1,1,N*C,Cout] weight with input block k times w[k], block by block."""
    weight = _lift(weight, np.float32)
    w = _lift(w, weight.dtype)
    n = w.shape[0]
    c = weight.shape[2] // n
    blocks = [slice(k * c, (k + 1) * c) for k in range(n)]
    data = np.concatenate([weight.data[:, :, b] * w.data[k] for k, b in enumerate(blocks)],
                          axis=2)

    def backward_fn(g):
        _accum(weight, np.concatenate([g[:, :, b] * w.data[k] for k, b in enumerate(blocks)],
                                      axis=2))
        dw = np.empty(n, dtype=w.dtype)
        for k, b in enumerate(blocks):
            dw[k] = (g[:, :, b] * weight.data[:, :, b]).sum()
        _accum(w, dw)

    return _node(data, (weight, w), backward_fn)


def bilinear_sample_coords_reference(feature_map, rows, cols):
    """Per-channel sampling of an [H,W,C] map at absolute [H',W',C] coordinates."""
    feature_map = _lift(feature_map, np.float32)
    rows = _lift(rows, feature_map.dtype)
    cols = _lift(cols, feature_map.dtype)
    h, w, c = feature_map.shape
    i0, i1, di, i_in = _corner_setup(rows.data, h)
    j0, j1, dj, j_in = _corner_setup(cols.data, w)
    cidx = np.broadcast_to(np.arange(c, dtype=np.int64), rows.shape)
    m = feature_map.data
    v00 = m[i0, j0, cidx]
    v01 = m[i0, j1, cidx]
    v10 = m[i1, j0, cidx]
    v11 = m[i1, j1, cidx]
    w00 = (1.0 - di) * (1.0 - dj)
    w01 = (1.0 - di) * dj
    w10 = di * (1.0 - dj)
    w11 = di * dj
    data = (w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11).astype(feature_map.dtype)

    def backward_fn(g):
        gm = np.zeros(feature_map.shape, dtype=feature_map.dtype)
        np.add.at(gm, (i0, j0, cidx), g * w00)
        np.add.at(gm, (i0, j1, cidx), g * w01)
        np.add.at(gm, (i1, j0, cidx), g * w10)
        np.add.at(gm, (i1, j1, cidx), g * w11)
        _accum(feature_map, gm)
        gdi = (1.0 - dj) * (v10 - v00) + dj * (v11 - v01)
        gdj = (1.0 - di) * (v01 - v00) + di * (v11 - v10)
        _accum(rows, (g * gdi * i_in).astype(rows.dtype))
        _accum(cols, (g * gdj * j_in).astype(cols.dtype))

    return _node(data, (feature_map, rows, cols), backward_fn)


def head_forward_reference(x, params, cfg):
    """The head built from the ops above and the library's unchanged ops.

    Each task pools a concat of the interactive maps, gates map k by
    ``take_channel(w, k)`` with one ``mul`` each and reduces the concat of
    the gated maps with the plain weight; B_align samples at
    ``select_channels(O, ...)`` plus a constant cell grid. Returns the
    outputs by their ``HeadOutputs`` names.
    """
    inter = interactive_features(x, params, cfg)
    inter_concat = T.concat(inter)

    def task_branch(task):
        pooled = T.global_avg_pool(T.concat(inter))
        hidden = T.relu(T.linear(params[f"att.{task}.fc1.w"], params[f"att.{task}.fc1.b"],
                                 pooled))
        w = T.sigmoid(T.linear(params[f"att.{task}.fc2.w"], params[f"att.{task}.fc2.b"], hidden))
        gated = [T.mul(m, take_channel_reference(w, k)) for k, m in enumerate(inter)]
        return w, gated

    def tap(gated, task):
        reduced = T.relu(T.conv2d(T.concat(gated), params[f"tap.{task}.reduce.w"],
                                  params[f"tap.{task}.reduce.b"]))
        return T.conv2d(reduced, params[f"tap.{task}.pred.w"], params[f"tap.{task}.pred.b"],
                        pad=1)

    w_cls, gated_cls = task_branch("cls")
    w_loc, gated_loc = task_branch("loc")
    P = T.sigmoid(tap(gated_cls, "cls"))
    B = T.exp(tap(gated_loc, "loc"))
    reduced = T.relu(T.conv2d(inter_concat, params["m.reduce.w"], params["m.reduce.b"]))
    M = T.sigmoid(T.conv2d(reduced, params["m.pred.w"], params["m.pred.b"], pad=1))
    P_align = T.sqrt(T.mul(P, M))
    reduced = T.relu(T.conv2d(inter_concat, params["o.reduce.w"], params["o.reduce.b"]))
    O = T.conv2d(reduced, params["o.pred.w"], params["o.pred.b"], pad=1)
    h, w = B.shape[0], B.shape[1]
    ii, jj = np.mgrid[0:h, 0:w]
    base_i = Tensor(np.repeat(ii[:, :, None], 4, axis=2).astype(B.data.dtype))
    base_j = Tensor(np.repeat(jj[:, :, None], 4, axis=2).astype(B.data.dtype))
    rows = T.add(select_channels_reference(O, [0, 2, 4, 6]), base_i)
    cols = T.add(select_channels_reference(O, [1, 3, 5, 7]), base_j)
    B_align = bilinear_sample_coords_reference(B, rows, cols)
    return SimpleNamespace(P=P, B=B, M=M, O=O, P_align=P_align, B_align=B_align,
                           w_cls=w_cls, w_loc=w_loc, inter=inter)


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
