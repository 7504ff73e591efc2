"""Training objectives built on the aligned predictions.

Classification treats the soft label t_hat as the target at each positive
anchor's matched class and zero everywhere else, with a focal weight that
is |t_hat - s|^gamma on positives and s^gamma on negatives. Localization is
a t_hat-weighted GIoU loss on the boxes decoded from the aligned distances.

The assignment enters purely as constants: gradients flow through the
predicted scores and distances only, never through t_hat or the positive
set. Both sums are divided by max(1, sum of t_hat) so the loss scale stays
comparable as the assignment sharpens over training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import instance_arrays
from .tensor import Tensor

GAMMA = 2.0


@dataclass
class LossBreakdown:
    cls_pos: Tensor
    cls_neg: Tensor
    reg: Tensor
    total: Tensor

    def values(self):
        return {
            "cls_pos": float(self.cls_pos.data),
            "cls_neg": float(self.cls_neg.data),
            "reg": float(self.reg.data),
            "total": float(self.total.data),
        }


def _normalizer(assignment):
    return max(1.0, float(assignment.t_hat[assignment.is_positive].sum()))


def total_loss(p_align, b_align, assignment, instances, grid, gamma=GAMMA):
    """Classification plus localization at equal unit weights.

    Classification is split into its positive and negative terms
    (:func:`tensor.focal_bce`); localization is :func:`tensor.giou_loss` over
    the positives, zero when there are none.
    """
    norm = 1.0 / _normalizer(assignment)
    h, w, k = p_align.shape
    dtype = p_align.dtype
    pos = np.flatnonzero(assignment.is_positive)
    pos_mask = np.zeros((h * w, k), dtype=dtype)
    target = np.zeros((h * w, k), dtype=dtype)
    pos_mask[pos, assignment.matched_class[pos]] = 1.0
    target[pos, assignment.matched_class[pos]] = assignment.t_hat[pos]
    pos_term, neg_term = T.focal_bce(
        p_align, target.reshape(h, w, k), pos_mask.reshape(h, w, k), gamma, norm
    )
    if pos.size == 0 or not instances:
        reg_term = Tensor(np.zeros((), dtype=b_align.dtype))
    else:
        xs, ys = grid.points()
        gt = instance_arrays(instances)[0][assignment.instance_index[pos]]
        reg_term = T.giou_loss(
            b_align, pos, np.stack([xs[pos], ys[pos]], axis=1), gt,
            assignment.t_hat[pos], grid.stride, norm,
        )
    total = T.add(T.add(pos_term, neg_term), reg_term)
    return LossBreakdown(cls_pos=pos_term, cls_neg=neg_term, reg=reg_term, total=total)
