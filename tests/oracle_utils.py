"""Independent scalar reimplementations used as test oracles.

Everything here is written against the documented behavior, in plain
Python loops, with none of the library's vectorized code paths. Test files
compare library output against these.
"""

import math

import numpy as np



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
    ap = 0.0
    for r in np.linspace(0, 1, 101):
        precisions = [p for rec, p in points if rec >= r]
        ap += max(precisions) if precisions else 0.0
    return ap / 101
