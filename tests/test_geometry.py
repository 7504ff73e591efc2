import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aligndet.errors import GeometryError
from aligndet.geometry import (
    Box,
    Detection,
    centers_inside,
    giou,
    iou,
    nms,
    pairwise_giou,
    pairwise_iou,
)

boxes_st = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h),
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(1, 40),
    st.floats(1, 40),
)


class TestBox:
    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Box(0, 0, 0, 5)
        with pytest.raises(GeometryError):
            Box(3, 0, 1, 5)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_touching_edges(self):
        assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_half_overlap(self):
        # unit squares offset by half a side: inter 0.5, union 1.5
        assert iou((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1.0 / 3.0)

    def test_contained(self):
        # 1x1 inside 4x4: 1/16
        assert iou((0, 0, 4, 4), (1, 1, 2, 2)) == pytest.approx(1.0 / 16.0)

    def test_quarter_overlap(self):
        # 2x2 squares overlapping in a 1x1 corner: 1 / (4+4-1)
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)

    def test_matrix_shape(self):
        a = np.array([[0, 0, 1, 1], [0, 0, 2, 2]], dtype=float)
        b = np.array([[0, 0, 1, 1]], dtype=float)
        m = pairwise_iou(a, b)
        assert m.shape == (2, 1)
        assert m[0, 0] == pytest.approx(1.0)
        assert m[1, 0] == pytest.approx(0.25)

    @given(boxes_st, boxes_st)
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0 + 1e-9
        assert iou(b, a) == pytest.approx(v, abs=1e-9)


class TestGiou:
    def test_identical(self):
        assert giou((0, 0, 3, 3), (0, 0, 3, 3)) == pytest.approx(1.0)

    def test_contained_equals_iou(self):
        a, b = (0, 0, 4, 4), (1, 1, 2, 2)
        assert giou(a, b) == pytest.approx(iou(a, b))

    def test_disjoint_units(self):
        # unit squares at (0,0) and (2,0): hull 3x1, union 2 -> 0 - 1/3
        assert giou((0, 0, 1, 1), (2, 0, 3, 1)) == pytest.approx(-1.0 / 3.0)

    def test_far_apart_approaches_minus_one(self):
        # hull 1000x1, union 2: 0 - 998/1000
        assert giou((0, 0, 1, 1), (999, 0, 1000, 1)) == pytest.approx(-0.998)

    def test_matrix_matches_scalar(self):
        a = np.array([[0, 0, 2, 2], [1, 1, 3, 3]], dtype=float)
        m = pairwise_giou(a, a)
        assert m[0, 1] == pytest.approx(giou((0, 0, 2, 2), (1, 1, 3, 3)))

    @given(boxes_st, boxes_st)
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_order(self, a, b):
        g = giou(a, b)
        assert -1.0 - 1e-9 <= g <= 1.0 + 1e-9
        assert g <= iou(a, b) + 1e-9


class TestDistances:
    def test_centers_inside(self):
        boxes = np.array([[0, 0, 4, 4], [10, 10, 12, 12]], dtype=float)
        mask = centers_inside([2.0, 4.0, 11.0], [2.0, 2.0, 11.0], boxes)
        assert mask.shape == (3, 2)
        assert mask[0].tolist() == [True, False]
        assert mask[1].tolist() == [False, False]  # on the edge is outside
        assert mask[2].tolist() == [False, True]


def det(x1, y1, x2, y2, score, cls=0, anchor=-1):
    return Detection(Box(x1, y1, x2, y2), score, cls, anchor)


class TestNms:
    def test_empty(self):
        assert nms([]) == []

    def test_suppresses_heavy_overlap(self):
        kept = nms([det(0, 0, 10, 10, 0.9), det(1, 1, 10, 10, 0.8)])
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_keeps_below_threshold(self):
        # IoU of these is 1/7, below any reasonable threshold
        kept = nms([det(0, 0, 2, 2, 0.9), det(1, 1, 3, 3, 0.8)], iou_threshold=0.5)
        assert len(kept) == 2

    def test_classes_do_not_interact(self):
        kept = nms([det(0, 0, 10, 10, 0.9, cls=0), det(0, 0, 10, 10, 0.8, cls=1)])
        assert len(kept) == 2

    def test_threshold_is_strict(self):
        # identical IoU 0.5 pairs survive at threshold exactly 0.5
        a = det(0, 0, 2, 1, 0.9)
        b = det(0, 0, 1, 1, 0.8)
        assert iou(a.box, b.box) == pytest.approx(0.5)
        assert len(nms([a, b], iou_threshold=0.5)) == 2
        assert len(nms([a, b], iou_threshold=0.49)) == 1

    def test_chain_suppression_is_greedy(self):
        # b overlaps a (suppressed); c overlaps b but not a, so c survives
        a = det(0, 0, 10, 10, 0.9)
        b = det(4, 0, 14, 10, 0.8)
        c = det(8, 0, 18, 10, 0.7)
        assert iou(a.box, b.box) > 0.4
        assert iou(a.box, c.box) < 0.2
        kept = nms([a, b, c], iou_threshold=0.4)
        assert [k.score for k in kept] == [0.9, 0.7]

    def test_score_ties_break_by_anchor_index(self):
        a = det(0, 0, 10, 10, 0.5, anchor=7)
        b = det(1, 1, 10, 10, 0.5, anchor=3)
        kept = nms([a, b], iou_threshold=0.5)
        assert len(kept) == 1
        assert kept[0].anchor_index == 3

    def test_visit_order_is_score_descending(self):
        dets = [det(i * 20, 0, i * 20 + 5, 5, s) for i, s in enumerate([0.2, 0.9, 0.5])]
        kept = nms(dets)
        assert [k.score for k in kept] == [0.9, 0.5, 0.2]

    def test_bad_threshold(self):
        with pytest.raises(GeometryError):
            nms([], iou_threshold=1.5)
