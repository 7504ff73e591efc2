import math

import numpy as np
import pytest
from oracle_utils import recompute_losses_from_rows

from aligndet import tensor as T
from aligndet.assignment import (
    AnchorGrid,
    Assignment,
    assign,
    dump_assignment_csv,
    read_assignment_csv,
)
from aligndet.geometry import Box
from aligndet.losses import total_loss
from aligndet.scenes import SplitMix64
from aligndet.tensor import Tensor


def single_anchor_assignment(t_hat, class_id=0, u=None):
    return Assignment(
        is_positive=np.array([True]),
        instance_index=np.array([0]),
        matched_class=np.array([class_id]),
        u=np.array([u if u is not None else t_hat]),
        t=np.array([t_hat]),
        t_hat=np.array([t_hat]),
    )


def all_negative(n):
    return Assignment(
        is_positive=np.zeros(n, dtype=bool),
        instance_index=np.full(n, -1),
        matched_class=np.full(n, -1),
        u=np.zeros(n),
        t=np.zeros(n),
        t_hat=np.zeros(n),
    )


def cls_terms(p, assignment):
    """total_loss's (cls_pos, cls_neg) for a score map, with no boxes to fit."""
    h, w, _ = p.shape
    grid = AnchorGrid(height=h, width=w, stride=8)
    breakdown = total_loss(p, Tensor(np.ones((h, w, 4))), assignment, [], grid)
    return breakdown.cls_pos, breakdown.cls_neg


def reg_term(b, assignment, instances, grid):
    """total_loss's reg term for a distance map, against zero scores."""
    h, w, _ = b.shape
    k = 1 + max((cls for _, cls in instances), default=0)
    p = Tensor(np.zeros((h, w, k), dtype=np.float32))
    return total_loss(p, b, assignment, instances, grid).reg


def random_fixture(seed, h=4, w=4, stride=8, n_inst=2, k=3):
    rng = SplitMix64(seed)
    p = Tensor(0.02 + 0.96 * rng.uniform((h, w, k)))
    b = Tensor(0.2 + 3.0 * rng.uniform((h, w, 4)))
    size = h * stride
    instances = []
    for _ in range(n_inst):
        x1 = rng.uniform() * (size - 12)
        y1 = rng.uniform() * (size - 12)
        bw = 10 + rng.uniform() * (size - x1 - 10)
        bh = 10 + rng.uniform() * (size - y1 - 10)
        cls = rng.randint(0, k)
        instances.append((Box(x1, y1, min(x1 + bw, size), min(y1 + bh, size), class_id=cls), cls))
    grid = AnchorGrid(height=h, width=w, stride=stride)
    return instances, p, b, grid


class TestClsLoss:
    def test_perfect_positive_is_zero(self):
        # s equals t_hat: focal weight |t_hat - s|^2 kills the term
        p = Tensor(np.full((1, 1, 1), 0.73))
        pos, neg = cls_terms(p, single_anchor_assignment(0.73))
        assert float(pos.data) == pytest.approx(0.0, abs=1e-12)
        assert float(neg.data) == 0.0   # no negative entries in a 1x1x1 map

    def test_silent_negative_is_zero(self):
        p = Tensor(np.zeros((2, 2, 3)))
        pos, neg = cls_terms(p, all_negative(4))
        assert float(pos.data) == 0.0
        assert float(neg.data) == 0.0

    def test_known_positive_value(self):
        # s=0.5 against t_hat=1: 0.25 * (-ln 0.5), normalizer max(1, 1) = 1
        p = Tensor(np.full((1, 1, 1), 0.5))
        pos, _ = cls_terms(p, single_anchor_assignment(1.0))
        assert float(pos.data) == pytest.approx(0.25 * math.log(2.0), rel=1e-6)

    def test_negative_value(self):
        # one negative entry with s=0.5: 0.25 * -ln(0.5); normalizer 1
        p = Tensor(np.full((1, 1, 1), 0.5))
        _, neg = cls_terms(p, all_negative(1))
        assert float(neg.data) == pytest.approx(0.25 * math.log(2.0), rel=1e-6)

    def test_positive_other_classes_are_negatives(self):
        # positive anchor at class 0; its class-1 entry still counts negative
        p = Tensor(np.stack([np.full((1, 1), 0.9), np.full((1, 1), 0.5)], axis=2))
        pos, neg = cls_terms(p, single_anchor_assignment(0.9, class_id=0))
        assert float(pos.data) == pytest.approx(0.0, abs=1e-12)
        assert float(neg.data) == pytest.approx(0.25 * math.log(2.0), rel=1e-6)

    def test_components_nonnegative(self):
        for seed in range(5):
            instances, p, b, grid = random_fixture(seed)
            a = assign(instances, grid, p.data, b.data)
            pos, neg = cls_terms(p, a)
            assert float(pos.data) >= 0.0
            assert float(neg.data) >= 0.0

    def test_gradient_matches_finite_differences(self):
        instances, p, b, grid = random_fixture(1)
        a = assign(instances, grid, p.data, b.data)
        err = T.grad_check(
            lambda prm: T.add(*cls_terms(prm["p"], a)),
            {"p": p},
            eps=1e-5,
            coords_per_param=12,
        )
        assert err < 1e-3


class TestRegLoss:
    def grid1(self, stride=1):
        return AnchorGrid(height=1, width=1, stride=stride)

    def test_perfect_box_is_zero(self):
        # anchor at (0.5, 0.5), distances 0.5 everywhere -> box [0,0,1,1]
        b = Tensor(np.full((1, 1, 4), 0.5))
        inst = [(Box(0, 0, 1, 1, class_id=0), 0)]
        loss = reg_term(b, single_anchor_assignment(0.8), inst, self.grid1())
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_known_disjoint_value(self):
        # decoded [0,0,1,1] vs target [2,2,3,3]: giou -7/9; weight 0.5
        b = Tensor(np.full((1, 1, 4), 0.5))
        inst = [(Box(2, 2, 3, 3, class_id=0), 0)]
        loss = reg_term(b, single_anchor_assignment(0.5), inst, self.grid1())
        assert float(loss.data) == pytest.approx(0.5 * (1 + 7 / 9), rel=1e-6)

    def test_no_positives_gives_zero(self):
        b = Tensor(np.ones((2, 2, 4)))
        grid = AnchorGrid(height=2, width=2, stride=8)
        loss = reg_term(b, all_negative(4), [], grid)
        assert float(loss.data) == 0.0

    def test_zero_weight_blocks_gradient(self):
        b = Tensor(np.full((1, 1, 4), 0.5))
        inst = [(Box(2, 2, 3, 3, class_id=0), 0)]
        loss = reg_term(b, single_anchor_assignment(0.0), inst, self.grid1())
        loss.backward()
        assert float(loss.data) == 0.0
        assert np.all(b.grad == 0)

    def test_gradient_matches_finite_differences(self):
        instances, p, b, grid = random_fixture(2)
        a = assign(instances, grid, p.data, b.data)
        assert a.num_positive > 0
        err = T.grad_check(
            lambda prm: reg_term(prm["b"], a, instances, grid),
            {"b": b},
            eps=1e-5,
            coords_per_param=12,
        )
        assert err < 1e-3


def loss_grads(scores, dists, assignment, instances, stride=1):
    """Backward through total_loss on float64 maps of one 1x1 grid."""
    p = Tensor(np.asarray(scores, dtype=np.float64).reshape(1, 1, -1))
    b = Tensor(np.asarray(dists, dtype=np.float64).reshape(1, 1, 4))
    grid = AnchorGrid(height=1, width=1, stride=stride)
    breakdown = total_loss(p, b, assignment, instances, grid)
    breakdown.total.backward()
    p_grad = np.zeros(p.shape) if p.grad is None else p.grad
    b_grad = np.zeros(b.shape) if b.grad is None else b.grad
    return breakdown.values(), p_grad.reshape(-1), b_grad.reshape(-1)


class TestSubgradients:
    """The rules the loss gradient follows at its kinks and clamps.

    Random fixtures never land on these points. Each expected value is
    derived by hand from the rule named in the test.
    """

    LOG_CLAMP = -math.log(1e-12)

    def test_clamped_log_of_positive_has_no_gradient(self):
        # s = 0 clamps log(s), whose slope t / s would be unbounded: the
        # focal slope -2 t * bce (bce = t * -log(1e-12)) and the log(1 - s)
        # slope t^2 * (1 - t) remain
        t = 0.6
        _, gp, _ = loss_grads([0.0], [0.5] * 4, single_anchor_assignment(t), [])
        assert gp[0] == pytest.approx(-2 * t * t * self.LOG_CLAMP + t * t * (1 - t), rel=1e-12)
        # s = 1 clamps log(1 - s): the log(s) slope -t/s * focal remains
        _, gp, _ = loss_grads([1.0], [0.5] * 4, single_anchor_assignment(t), [])
        bce = (1 - t) * self.LOG_CLAMP
        want = (1 - t) ** 2 * -t + 2 * (1 - t) * bce
        assert gp[0] == pytest.approx(want, rel=1e-12)

    def test_clamped_log_of_negative_has_no_gradient(self):
        # s = 1 on a negative: s^2 * -log(1e-12), slope 2 s * -log(1e-12)
        values, gp, _ = loss_grads([1.0, 0.0], [0.5] * 4, all_negative(1), [])
        assert values["cls_neg"] == pytest.approx(self.LOG_CLAMP, rel=1e-12)
        assert gp[0] == pytest.approx(2 * self.LOG_CLAMP, rel=1e-12)
        assert gp[1] == 0.0

    def test_score_at_label_has_zero_gradient(self):
        # |t - s|^gamma has slope 0 at s == t, and it scales both log slopes
        for t in (0.3, 0.73, 1.0):
            values, gp, _ = loss_grads([t], [0.5] * 4, single_anchor_assignment(t), [])
            assert values["cls_pos"] == 0.0
            assert gp[0] == 0.0

    def test_disjoint_boxes_have_no_intersection_gradient(self):
        # decoded [0,0,1,1] against [2,2,3,3]: relu(1 - 2) = 0, so only
        # union / hull moves: loss w * (2 - union / hull), union 2, hull 9
        w = 0.5
        values, _, gb = loss_grads(
            [0.0], [0.5] * 4, single_anchor_assignment(w), [(Box(2, 2, 3, 3, class_id=0), 0)]
        )
        assert values["reg"] == pytest.approx(w * (2 - 2 / 9), rel=1e-12)
        np.testing.assert_allclose(gb, [-w / 27, -w / 27, -w / 9, -w / 9], rtol=1e-12)

    def test_touching_boxes_have_no_intersection_gradient(self):
        # [0,0,1,1] against [1,0.25,2,0.75]: the overlap width is exactly 0,
        # where relu passes no gradient, so d(inter)/dr = 0.5 must not leak
        w = 0.5
        values, _, gb = loss_grads(
            [0.0], [0.5] * 4, single_anchor_assignment(w),
            [(Box(1, 0.25, 2, 0.75, class_id=0), 0)],
        )
        assert values["reg"] == pytest.approx(w * 1.25, rel=1e-12)
        np.testing.assert_allclose(gb, [-w / 8, w / 4, -w / 2, w / 4], rtol=1e-12)

    def test_min_max_ties_route_to_prediction(self):
        # [0,0,1,1] against [0,0,2,2]: x1 == gx1 and y1 == gy1 tie in both
        # the intersection's max and the hull's min; both pass the gradient
        # to the predicted edge (routing to the target gives -3w/16 instead)
        w = 0.5
        values, _, gb = loss_grads(
            [0.0], [0.5] * 4, single_anchor_assignment(w), [(Box(0, 0, 2, 2, class_id=0), 0)]
        )
        assert values["reg"] == pytest.approx(w * 0.75, rel=1e-12)
        np.testing.assert_allclose(gb, [w / 4, w / 4, -w / 4, -w / 4], rtol=1e-12)

    def test_box_equal_to_target_has_zero_loss_and_gradient(self):
        # every min and max ties; GIoU = 1 is a minimum, the slope is 0
        for stride in (1, 8):
            values, _, gb = loss_grads(
                [0.0], [0.5] * 4, single_anchor_assignment(0.8),
                [(Box(0, 0, stride, stride, class_id=0), 0)], stride=stride,
            )
            assert values["reg"] == 0.0
            assert np.all(gb == 0.0)


class TestTotalLoss:
    def test_additive_breakdown(self):
        instances, p, b, grid = random_fixture(4)
        a = assign(instances, grid, p.data, b.data)
        breakdown = total_loss(p, b, a, instances, grid)
        v = breakdown.values()
        assert v["total"] == pytest.approx(v["cls_pos"] + v["cls_neg"] + v["reg"], rel=1e-9)
        assert all(x >= 0 for x in v.values())

    def test_zero_everything(self):
        grid = AnchorGrid(height=2, width=2, stride=8)
        p = Tensor(np.zeros((2, 2, 3)))
        b = Tensor(np.ones((2, 2, 4)))
        breakdown = total_loss(p, b, all_negative(4), [], grid)
        assert breakdown.values()["total"] == 0.0


class TestCsvOracle:
    def test_roundtrip_and_recomputation(self, tmp_path):
        for seed in range(6):
            instances, p, b, grid = random_fixture(seed, n_inst=1 + seed % 3)
            a = assign(instances, grid, p.data, b.data)
            path = tmp_path / f"dump_{seed}.csv"
            dump_assignment_csv(path, grid, p.data, b.data, a, instances)
            rows = read_assignment_csv(path)
            assert len(rows["s"]) == grid.count * p.shape[2]
            ref_pos, ref_neg, ref_reg = recompute_losses_from_rows(rows)
            breakdown = total_loss(p, b, a, instances, grid)
            v = breakdown.values()
            assert v["cls_pos"] == pytest.approx(ref_pos, abs=1e-5)
            assert v["cls_neg"] == pytest.approx(ref_neg, abs=1e-5)
            assert v["reg"] == pytest.approx(ref_reg, abs=1e-5)

    def test_positive_rows_match_assignment(self, tmp_path):
        instances, p, b, grid = random_fixture(9)
        a = assign(instances, grid, p.data, b.data)
        path = tmp_path / "dump.csv"
        dump_assignment_csv(path, grid, p.data, b.data, a, instances)
        rows = read_assignment_csv(path)
        n_pos_rows = int(rows["is_positive"].sum())
        assert n_pos_rows == a.num_positive
