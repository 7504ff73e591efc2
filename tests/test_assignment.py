import numpy as np
import pytest

from aligndet.assignment import (
    AnchorGrid,
    alignment_metric,
    assign,
    center_sampling_assign,
    decode_boxes,
    normalize_t,
)
from aligndet.geometry import Box
from aligndet.scenes import SplitMix64
from aligndet.selfcheck import brute_force_assign


def make_grid(h=4, w=4, stride=8):
    return AnchorGrid(height=h, width=w, stride=stride)


def random_fixture(seed, h=4, w=4, stride=8, n_inst=2, k=3):
    rng = SplitMix64(seed)
    p = (0.02 + 0.96 * rng.uniform((h, w, k)))
    b = 0.2 + 3.0 * rng.uniform((h, w, 4))
    size = h * stride
    instances = []
    for _ in range(n_inst):
        x1 = rng.uniform() * (size - 12)
        y1 = rng.uniform() * (size - 12)
        bw = 10 + rng.uniform() * (size - x1 - 10)
        bh = 10 + rng.uniform() * (size - y1 - 10)
        cls = rng.randint(0, k)
        instances.append((Box(x1, y1, min(x1 + bw, size), min(y1 + bh, size), class_id=cls), cls))
    return instances, p, b


class TestGrid:
    def test_points_centered(self):
        xs, ys = make_grid(2, 3, stride=8).points()
        assert xs.tolist() == [4.0, 12.0, 20.0, 4.0, 12.0, 20.0]
        assert ys.tolist() == [4.0, 4.0, 4.0, 12.0, 12.0, 12.0]

    def test_decode_unit_distances(self):
        grid = make_grid(1, 1, stride=8)
        boxes = decode_boxes(np.ones((1, 1, 4)), grid)
        # center (4,4), one stride unit in each direction
        assert np.allclose(boxes, [[-4.0, -4.0, 12.0, 12.0]])

    def test_decode_roundtrip_against_gt(self):
        grid = make_grid(2, 2, stride=4)
        xs, ys = grid.points()
        target = np.array([1.0, 0.5, 2.0, 1.5])
        d = np.zeros((2, 2, 4))
        for a in range(4):
            i, j = divmod(a, 2)
            d[i, j] = [
                (xs[a] - target[0]) / 4,
                (ys[a] - target[1]) / 4,
                (target[2] - xs[a]) / 4,
                (target[3] - ys[a]) / 4,
            ]
        assert np.allclose(decode_boxes(d, grid), np.tile(target, (4, 1)))


class TestMetric:
    def test_unit_fixed_point(self):
        for a, b in [(1.0, 6.0), (0.5, 2.0), (2.0, 1.0)]:
            assert alignment_metric(1.0, 1.0, a, b) == 1.0

    def test_known_value(self):
        assert alignment_metric(0.5, 0.8, 1.0, 6.0) == pytest.approx(0.131072)

    def test_zero_score_or_iou(self):
        assert alignment_metric(0.0, 0.9, 1.0, 6.0) == 0.0
        assert alignment_metric(0.9, 0.0, 1.0, 6.0) == 0.0

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            alignment_metric(0.5, 0.5, 0.0, 6.0)

    def test_monotone_in_both(self):
        base = alignment_metric(0.5, 0.5)
        assert alignment_metric(0.6, 0.5) > base
        assert alignment_metric(0.5, 0.6) > base


class TestNormalize:
    def test_scale_example(self):
        out = normalize_t([0.4, 0.2], [0.9, 0.6])
        assert np.allclose(out, [0.9, 0.45])

    def test_single_positive_gets_its_iou(self):
        assert np.allclose(normalize_t([0.123], [0.77]), [0.77])

    def test_all_zero_stays_zero(self):
        assert np.allclose(normalize_t([0.0, 0.0], [0.5, 0.9]), [0.0, 0.0])

    def test_max_equals_max_iou_and_order_kept(self):
        rng = SplitMix64(1)
        for _ in range(20):
            t = rng.uniform((5,))
            u = rng.uniform((5,))
            out = normalize_t(t, u)
            assert out.max() == pytest.approx(u.max())
            assert np.array_equal(np.argsort(t), np.argsort(out))
            assert (out >= 0).all() and (out <= 1.0 + 1e-12).all()


class TestAssign:
    def test_empty_instances_all_negative(self):
        grid = make_grid()
        out = assign([], grid, np.full((4, 4, 3), 0.5), np.ones((4, 4, 4)))
        assert out.num_positive == 0

    def test_top2_with_known_scores(self):
        # equal IoU everywhere makes t follow s: scores 0.9, 0.1, 0.5, 0.7
        # over a 2x2 grid pick anchors 0 and 3
        grid = make_grid(2, 2, stride=8)
        box = Box(0, 0, 16, 16, class_id=0)
        p = np.array([0.9, 0.1, 0.5, 0.7]).reshape(2, 2, 1)
        b = np.ones((2, 2, 4))   # same decoded shape at every anchor
        out = assign([(box, 0)], grid, p, b, m=2)
        assert sorted(np.flatnonzero(out.is_positive).tolist()) == [0, 3]

    def test_saturated_m_takes_all_candidates(self):
        grid = make_grid(2, 2, stride=8)
        box = Box(0, 0, 16, 16, class_id=0)
        p = np.full((2, 2, 1), 0.5)
        out = assign([(box, 0)], grid, p, np.ones((2, 2, 4)), m=99)
        assert out.num_positive == 4

    def test_candidates_require_center_inside(self):
        grid = make_grid(2, 2, stride=8)   # centers at 4 and 12
        box = Box(0, 0, 8, 8, class_id=0)  # only anchor 0's center inside
        p = np.full((2, 2, 1), 0.5)
        out = assign([(box, 0)], grid, p, np.ones((2, 2, 4)), m=13)
        assert np.flatnonzero(out.is_positive).tolist() == [0]

    def test_conflict_goes_to_higher_iou(self):
        grid = make_grid(1, 2, stride=8)   # centers x=4 and x=12, y=4
        # anchor 0 only inside instance A; anchor 1 inside both
        inst_a = (Box(0, 0, 16, 8, class_id=0), 0)
        inst_b = (Box(9, 1, 15, 8.5, class_id=0), 0)
        p = np.full((1, 2, 1), 0.9)
        # anchor boxes decode to 8x8 squares around centers
        b = np.full((1, 2, 4), 0.5)
        out = assign([inst_a, inst_b], grid, p, b, m=13)
        assert out.is_positive.all()
        # u(anchor1, A) vs u(anchor1, B): B is smaller and closer to the
        # anchor's decoded square, so B must win the shared anchor
        from aligndet.geometry import iou
        dec = decode_boxes(b, grid)
        assert iou(dec[1], inst_b[0]) > iou(dec[1], inst_a[0])
        assert out.instance_index.tolist() == [0, 1]

    def test_per_instance_cap(self):
        instances, p, b = random_fixture(3, h=6, w=6, n_inst=3)
        out = assign(instances, make_grid(6, 6), p, b, m=4)
        for n in range(3):
            assert out.positives_of(n).size <= 4

    def test_max_that_equals_max_iou(self):
        for seed in range(10):
            instances, p, b = random_fixture(seed, h=5, w=5, n_inst=2)
            out = assign(instances, make_grid(5, 5), p, b)
            for n in range(len(instances)):
                pos = out.positives_of(n)
                if pos.size:
                    assert out.t_hat[pos].max() == pytest.approx(out.u[pos].max())

    def test_score_scaling_keeps_positive_set(self):
        instances, p, b = random_fixture(7, h=5, w=5, n_inst=2)
        grid = make_grid(5, 5)
        base = assign(instances, grid, p, b)
        for k in (0.9, 0.5, 0.1):
            scaled = assign(instances, grid, p * k, b)
            assert np.array_equal(scaled.is_positive, base.is_positive)
            assert np.array_equal(scaled.instance_index, base.instance_index)

    def test_matches_brute_force(self):
        for seed in range(25):
            h = 3 + seed % 4
            instances, p, b = random_fixture(seed, h=h, w=h, n_inst=1 + seed % 3)
            grid = make_grid(h, h)
            # integer boxes put edges on anchor centers (4, 12, ...)
            whole = [(Box(np.floor(box.x1), np.floor(box.y1), np.ceil(box.x2), np.ceil(box.y2),
                          class_id=c), c) for box, c in instances]
            # the plain draw, then tie-heavy ones: scores on a 0.1 grid, distances
            # in whole strides, integer boxes, and a duplicated instance, so that
            # every claim conflict ties on u
            for inst, p_case, b_case in (
                (instances, p, b),
                (instances, np.round(p, 1), b),
                (instances, p, np.round(b)),
                (whole, p, b),
                (instances + instances[:1], p, b),
                (whole + whole[:1], np.round(p, 1), np.round(b)),
            ):
                out = assign(inst, grid, p_case, b_case, m=5)
                ref_pos, ref_inst, ref_that = brute_force_assign(
                    inst, grid, p_case, b_case, m=5, alpha=1.0, beta=6.0
                )
                assert out.is_positive.tolist() == ref_pos
                assert out.instance_index.tolist() == ref_inst
                assert np.allclose(out.t_hat, ref_that, atol=1e-12)

    def test_deterministic(self):
        instances, p, b = random_fixture(11, h=6, w=6, n_inst=3)
        grid = make_grid(6, 6)
        a = assign(instances, grid, p, b)
        c = assign(instances, grid, p, b)
        assert np.array_equal(a.t_hat, c.t_hat)
        assert np.array_equal(a.instance_index, c.instance_index)


class TestCenterSampling:
    def test_positives_inside_shrunk_box(self):
        grid = make_grid(4, 4, stride=8)   # centers 4,12,20,28
        box = Box(0, 0, 32, 32, class_id=1)
        out = center_sampling_assign([(box, 1)], grid, shrink=0.5)
        xs, ys = grid.points()
        for a in np.flatnonzero(out.is_positive):
            assert 8 < xs[a] < 24 and 8 < ys[a] < 24
        assert out.num_positive == 4   # the central 2x2 block
        assert np.all(out.t_hat[out.is_positive] == 1.0)

    def test_conflict_prefers_smaller_box(self):
        grid = make_grid(1, 1, stride=8)   # single anchor at (4,4)
        big = (Box(0, 0, 8, 8, class_id=0), 0)
        small = (Box(2, 2, 6.5, 6.5, class_id=1), 1)
        out = center_sampling_assign([big, small], grid, shrink=1.0)
        assert out.instance_index.tolist() == [1]
        assert out.matched_class.tolist() == [1]

    def test_equal_areas_go_to_the_lower_index(self):
        grid = make_grid(1, 1, stride=8)   # single anchor at (4,4)
        left = (Box(0, 0, 6, 6, class_id=0), 0)
        right = (Box(2, 2, 8, 8, class_id=1), 1)   # the same area, also covering (4,4)
        for pair in ([left, right], [right, left]):
            out = center_sampling_assign(pair, grid, shrink=1.0)
            assert out.instance_index.tolist() == [0]
            assert out.matched_class.tolist() == [pair[0][1]]

    def test_prediction_independent(self):
        # no score/box arguments at all: same labels whatever the model says
        grid = make_grid(3, 3)
        box = Box(0, 0, 24, 24, class_id=0)
        a = center_sampling_assign([(box, 0)], grid)
        b = center_sampling_assign([(box, 0)], grid)
        assert np.array_equal(a.is_positive, b.is_positive)
