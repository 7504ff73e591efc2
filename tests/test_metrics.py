import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_utils import (
    average_precision_reference,
    box_census_reference,
    class_ap_reference,
    nms_reference,
)

from aligndet import geometry, metrics
from aligndet.assignment import AnchorGrid, decode_boxes
from aligndet.errors import GeometryError, ShapeError
from aligndet.geometry import Box, Candidates, Detection, instance_arrays, nms
from aligndet.metrics import (
    IOU_THRESHOLDS,
    AlignmentReport,
    _class_ap,
    _ranks,
    alignment_analysis,
    average_precision,
    box_census,
    detections_from_outputs,
    evaluate_dataset,
    instance_pools,
    pcc,
)
from aligndet.model import ModelConfig, build_model
from aligndet.scenes import DatasetConfig, SceneRecord, SplitMix64, generate_scene


def det(x1, y1, x2, y2, score, class_id=0, anchor=0):
    return Detection(Box(x1, y1, x2, y2, class_id=class_id), score, class_id, anchor)


class TestRanks:
    def test_plain_order(self):
        assert _ranks([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]

    def test_ties_averaged(self):
        assert _ranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]

    def test_all_tied(self):
        assert _ranks([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]


class TestPcc:
    def test_identical_order(self):
        assert pcc([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert pcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_partial_agreement(self):
        # ranks (1,2,3) against (2,1,3): covariance 1 over variance 2
        assert pcc([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    def test_zero_variance_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning):
            assert pcc([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pcc([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(ShapeError):
            pcc([1.0], [2.0])

    # coarse value grid: tiny magnitudes would let the affine rescale
    # collapse distinct inputs into float ties and change the ranks
    _grid = st.integers(-700, 700).map(lambda v: v / 7.0)

    @given(st.lists(_grid, min_size=3, max_size=12, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_invariance(self, xs, data):
        ys = data.draw(st.lists(self._grid, min_size=len(xs),
                                max_size=len(xs), unique=True))
        base = pcc(xs, ys)
        # any strictly increasing rescale leaves the rank statistic alone
        assert pcc([3.0 * x + 7.0 for x in xs], ys) == pytest.approx(base)
        assert pcc(xs, [np.arctan(y) for y in ys]) == pytest.approx(base)

    def test_bounded(self):
        rng = SplitMix64(4)
        for _ in range(20):
            v = pcc(rng.uniform((6,)), rng.uniform((6,)))
            assert -1.0 <= v <= 1.0


class TestAlignmentAnalysis:
    def test_perfectly_aligned_pool(self):
        scores = np.array([0.9, 0.7, 0.5, 0.3])
        p, miou = alignment_analysis([(scores, scores * 0.8)], k1=4, k2=2)
        assert p == pytest.approx(1.0)
        assert miou == pytest.approx((0.72 + 0.56) / 2)

    def test_anti_aligned_pool(self):
        scores = np.array([0.9, 0.7, 0.5])
        ious = np.array([0.1, 0.5, 0.9])
        p, _ = alignment_analysis([(scores, ious)], k1=3, k2=1)
        assert p == pytest.approx(-1.0)

    def test_top_k_selected_by_score(self):
        # worst IoU hides below the score cut, pcc sees only the top two
        scores = np.array([0.9, 0.8, 0.1])
        ious = np.array([0.6, 0.5, 0.9])
        p, miou = alignment_analysis([(scores, ious)], k1=2, k2=2)
        assert p == pytest.approx(1.0)
        assert miou == pytest.approx(0.55)

    def test_single_prediction_skipped_for_pcc(self):
        pools = [(np.array([0.9]), np.array([0.4])),
                 (np.array([0.8, 0.6]), np.array([0.2, 0.5]))]
        p, miou = alignment_analysis(pools, k1=5, k2=5)
        assert p == pytest.approx(-1.0)     # only the second pool counts
        assert miou == pytest.approx((0.4 + 0.35) / 2)

    def test_no_pools(self):
        assert alignment_analysis([]) == (0.0, 0.0)

    def test_empty_pool_ignored(self):
        pools = [(np.array([]), np.array([]))]
        assert alignment_analysis(pools) == (0.0, 0.0)

    def test_averages_over_instances(self):
        a = (np.array([0.9, 0.5]), np.array([0.8, 0.4]))
        b = (np.array([0.9, 0.5]), np.array([0.4, 0.8]))
        p, _ = alignment_analysis([a, b], k1=2, k2=2)
        assert p == pytest.approx(0.0)


class TestInstancePools:
    def test_pool_is_candidate_set(self):
        grid = AnchorGrid(height=4, width=4, stride=8)
        p = np.full((4, 4, 2), 0.3)
        b = np.ones((4, 4, 4))
        instances = [(Box(0, 0, 16, 16), 1)]
        pools = instance_pools(p, b, instances, grid)
        assert len(pools) == 1
        scores, ious = pools[0]
        # centers 4 and 12 fall inside on each axis: four candidates
        assert scores.shape == (4,)
        assert np.all(scores == 0.3)
        # unit distances at stride 8 put a 16x16 box around each center
        assert ious[0] == pytest.approx(144 / 368)

    def test_scores_read_at_instance_class(self):
        grid = AnchorGrid(height=2, width=2, stride=8)
        p = np.zeros((2, 2, 3))
        p[:, :, 2] = 0.9
        b = np.ones((2, 2, 4))
        pools = instance_pools(p, b, [(Box(0, 0, 16, 16), 2)], grid)
        assert np.all(pools[0][0] == 0.9)

    def test_no_instances(self):
        grid = AnchorGrid(height=2, width=2, stride=8)
        assert instance_pools(np.zeros((2, 2, 3)), np.ones((2, 2, 4)), [], grid) == []

    def test_instance_outside_grid_gets_empty_pool(self):
        grid = AnchorGrid(height=2, width=2, stride=8)
        pools = instance_pools(
            np.zeros((2, 2, 3)), np.ones((2, 2, 4)),
            [(Box(100, 100, 120, 120), 0)], grid,
        )
        assert pools[0][0].size == 0


class TestBoxCensus:
    gt = [(Box(10, 10, 30, 30), 0)]

    def test_single_hit(self):
        assert box_census([det(11, 10, 30, 30, 0.9)], self.gt) == (1, 0, 0)

    def test_duplicate_is_redundant(self):
        dets = [det(11, 10, 30, 30, 0.9), det(10, 11, 30, 30, 0.8)]
        assert box_census(dets, self.gt) == (1, 1, 0)

    def test_partial_overlap_is_error(self):
        # IoU 225/575, inside the (0.1, 0.5) error band
        assert box_census([det(15, 15, 35, 35, 0.9)], self.gt) == (0, 0, 1)

    def test_background_box_counts_nowhere(self):
        assert box_census([det(60, 60, 80, 80, 0.9)], self.gt) == (0, 0, 0)

    def test_score_order_decides_the_match(self):
        # lower-scored exact copy becomes the redundant one
        dets = [det(10, 10, 30, 30, 0.5, anchor=1), det(10, 10, 30, 30, 0.9, anchor=2)]
        assert box_census(dets, self.gt) == (1, 1, 0)

    def test_wrong_class_ignored(self):
        assert box_census([det(10, 10, 30, 30, 0.9, class_id=1)], self.gt) == (0, 0, 0)

    def test_no_ground_truth(self):
        assert box_census([det(0, 0, 5, 5, 0.9)], []) == (0, 0, 0)

    def test_two_instances_two_hits(self):
        gt = [(Box(0, 0, 20, 20), 0), (Box(40, 40, 60, 60), 0)]
        dets = [det(0, 0, 20, 20, 0.9), det(40, 40, 60, 60, 0.8)]
        assert box_census(dets, gt) == (2, 0, 0)

    def test_buckets_never_exceed_detections(self):
        rng = SplitMix64(11)
        gt = [(Box(10, 10, 40, 40), 0), (Box(60, 20, 90, 50), 1)]
        for trial in range(25):
            dets = []
            for k in range(8):
                x = rng.uniform() * 70
                y = rng.uniform() * 70
                w = 10 + rng.uniform() * 30
                dets.append(det(x, y, x + w, y + w, rng.uniform(),
                                class_id=int(rng.randint(0, 2)), anchor=k))
            c, r, e = box_census(dets, gt)
            assert c <= len(gt)
            assert c + r + e <= len(dets)


class TestAveragePrecision:
    def test_no_ground_truth_is_missing(self):
        assert average_precision([[det(0, 0, 5, 5, 0.9)]], [[]]) == (None, None)

    def test_no_detections_scores_zero(self):
        ap50, ap = average_precision([[]], [[(Box(0, 0, 10, 10), 0)]])
        assert ap50 == 0.0
        assert ap == 0.0

    def test_perfect_detection(self):
        gt = [[(Box(10, 10, 30, 30), 0)]]
        ap50, ap = average_precision([[det(10, 10, 30, 30, 0.9)]], gt)
        assert ap50 == pytest.approx(1.0)
        assert ap == pytest.approx(1.0)

    def test_false_positive_above_true_positive(self):
        # the higher-scored miss drags every precision point to one half
        gt = [[(Box(10, 10, 30, 30), 0)]]
        dets = [[det(60, 60, 80, 80, 0.95), det(10, 10, 30, 30, 0.9)]]
        ap50, _ = average_precision(dets, gt)
        assert ap50 == pytest.approx(0.5)

    def test_matches_reference_recipe(self):
        gt = [[(Box(0, 0, 20, 20), 0), (Box(50, 0, 70, 20), 0), (Box(0, 50, 20, 70), 0)]]
        dets = [[
            det(0, 0, 20, 20, 0.9),        # hit on the first
            det(1, 0, 20, 20, 0.8),        # duplicate of the first
            det(50, 1, 70, 20, 0.7),       # hit on the second
            det(100, 100, 120, 120, 0.6),  # background
        ]]
        ap50, _ = average_precision(dets, gt)
        want = average_precision_reference(
            [(0.9, True), (0.8, False), (0.7, True), (0.6, False)], n_gt=3
        )
        assert ap50 == pytest.approx(want)

    def test_pooling_across_images_matches_single_image(self):
        g1, g2 = (Box(0, 0, 20, 20), 0), (Box(50, 0, 70, 20), 0)
        d1 = det(0, 0, 20, 20, 0.9)
        d2 = det(50, 0, 70, 20, 0.6)
        joint = average_precision([[d1, d2]], [[g1, g2]])
        split = average_precision([[d1], [d2]], [[g1], [g2]])
        assert joint == pytest.approx(split)

    def test_loose_box_fails_high_thresholds(self):
        # IoU 2/3 passes half the threshold ladder, so ap < ap50
        gt = [[(Box(0, 0, 30, 20), 0)]]
        ap50, ap = average_precision([[det(10, 0, 30, 20, 0.9)]], gt)
        assert ap50 == pytest.approx(1.0)
        assert ap == pytest.approx(0.4)

    def test_classes_averaged(self):
        gt = [[(Box(0, 0, 20, 20), 0), (Box(50, 0, 70, 20), 1)]]
        dets = [[det(0, 0, 20, 20, 0.9, class_id=0)]]
        ap50, _ = average_precision(dets, gt)
        assert ap50 == pytest.approx(0.5)

    def test_class_confusion_is_a_miss(self):
        gt = [[(Box(0, 0, 20, 20), 0)]]
        ap50, _ = average_precision([[det(0, 0, 20, 20, 0.9, class_id=1)]], gt)
        assert ap50 == 0.0


class TestDetectionsFromOutputs:
    grid = AnchorGrid(height=2, width=2, stride=8)

    def test_single_cell_above_floor(self):
        p = np.full((2, 2, 2), 0.01)
        p[0, 1, 1] = 0.8
        b = np.ones((2, 2, 4))
        dets = detections_from_outputs(p, b, self.grid)
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 1 and d.anchor_index == 1
        assert d.score == pytest.approx(0.8)
        # anchor center (12, 4), unit distances: 8px each way
        assert (d.box.x1, d.box.y1, d.box.x2, d.box.y2) == (4.0, -4.0, 20.0, 12.0)

    def test_floor_is_exclusive(self):
        p = np.full((2, 2, 2), 0.05)
        dets = detections_from_outputs(p, np.ones((2, 2, 4)), self.grid)
        assert dets == []

    def test_nms_keeps_best_of_overlapping(self):
        p = np.zeros((2, 2, 1))
        p[0, 0, 0] = 0.9
        p[0, 1, 0] = 0.6
        b = np.ones((2, 2, 4))
        b[0, 1] = [2.0, 1.0, 0.0, 1.0]      # shift left so both boxes coincide
        dets = detections_from_outputs(p, b, self.grid)
        assert len(dets) == 1
        assert dets[0].score == pytest.approx(0.9)

    def test_detection_cap(self):
        p = np.full((2, 2, 3), 0.5)
        dets = detections_from_outputs(p, np.ones((2, 2, 4)), self.grid,
                                       nms_iou=1.0, max_detections=5)
        assert len(dets) == 5

    def test_nan_box_rejected(self):
        # an inside-out box is skipped, a NaN one is an error, kept or not
        p = np.full((2, 2, 2), 0.5)
        p[1, 0, 0] = 0.9
        b = np.ones((2, 2, 4))
        b[0, 1] = [-2.0, 1.0, 1.0, 1.0]
        b[1, 1, 2] = np.nan
        with pytest.raises(GeometryError, match=r"degenerate box \(.*nan.*\)"):
            detections_from_outputs(p, b, self.grid, max_detections=1)

    @pytest.mark.parametrize("model_seed", range(5))
    def test_step0_scene_matches_scalar_greedy(self, model_seed):
        # on scene 3 every step-0 score of these five models clears the
        # floor, so all 768 candidates reach NMS
        cfg = ModelConfig(seed=model_seed)
        _, forward = build_model(cfg)
        grid = cfg.grid()
        out = forward(generate_scene(3, DatasetConfig()).image)
        p = out.P_align.data.astype(np.float64).reshape(grid.count, -1)
        assert p.size == 768 and (p > 0.05).all()
        boxes = decode_boxes(out.B_align.data, grid)
        cands = [Detection(Box(*boxes[a].tolist(), class_id=c), float(p[a, c]), c, a)
                 for a, c in zip(*np.nonzero(p > 0.05))]
        want = [(d.anchor_index, d.class_id, d.score, d.box) for d in nms_reference(cands)]
        for limit in (100, None):
            got = detections_from_outputs(out.P_align.data, out.B_align.data, grid,
                                          max_detections=limit)
            assert [(d.anchor_index, d.class_id, d.score, d.box) for d in got] == want[:limit]


# Small integer boxes make IoUs such as 1/2, 3/5 and 3/4 exact, so they land
# exactly on the NMS and AP thresholds; few scores and anchors force ties.
@st.composite
def grid_detections(draw, max_size=24, classes=3):
    dets = []
    for _ in range(draw(st.integers(0, max_size))):
        x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        cls = draw(st.integers(0, classes - 1))
        score = draw(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.05, 1.0))
        dets.append(Detection(Box(x, y, x + w, y + h, class_id=cls), score, cls,
                              draw(st.integers(0, 3))))
    return dets


@st.composite
def grid_instances(draw, max_size=4, classes=3):
    gts = []
    for _ in range(draw(st.integers(0, max_size))):
        x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        cls = draw(st.integers(0, classes - 1))
        gts.append((Box(x, y, x + w, y + h, class_id=cls), cls))
    return gts


nms_thresholds = st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.6, 0.75, 1.0]) | st.floats(0.0, 1.0)


def ids(dets):
    return [id(d) for d in dets]


# box pairs whose IoU equals a threshold exactly; at it, not above it, the
# second is not suppressed
AT_THRESHOLD = [
    ((0, 0, 2, 1), (0, 0, 1, 1), 0.5),
    ((0, 0, 5, 1), (0, 0, 3, 1), 0.6),
    ((0, 0, 2, 1), (1, 0, 3, 1), 1 / 3),
    ((0, 0, 4, 1), (0, 0, 1, 1), 0.25),
    ((0, 0, 4, 2), (0, 0, 3, 2), 0.75),
    ((1, 1, 3, 2), (1, 1, 3, 2), 1.0),
    ((0, 0, 1, 1), (1, 0, 2, 1), 0.0),
]


def at_threshold(test):
    """Hypothesis examples from AT_THRESHOLD, each with a copy of the first
    box of a later anchor, which only threshold 1 lets through."""
    for a, b, t in AT_THRESHOLD:
        test = example([det(*a, 0.9), det(*b, 0.8), det(*a, 0.7, anchor=1)], t, None)(test)
    return test


class TestAgainstScalarOracles:
    @settings(max_examples=150, deadline=None)
    @given(grid_detections(), nms_thresholds, st.none() | st.integers(0, 12))
    @at_threshold
    def test_nms_matches_scalar_greedy(self, dets, threshold, limit):
        full = nms(dets, threshold)
        assert ids(full) == ids(nms_reference(dets, threshold))
        assert ids(nms(dets, threshold, max_detections=limit)) == ids(full[:limit])

    @pytest.mark.parametrize("a,b,threshold", AT_THRESHOLD)
    def test_pair_at_the_threshold(self, a, b, threshold):
        assert geometry.iou(a, b) == threshold
        pair = [det(*a, 0.9), det(*b, 0.8)]
        assert ids(nms(pair, threshold)) == ids(nms_reference(pair, threshold)) == ids(pair)
        if threshold > 0.0:
            below = float(np.nextafter(threshold, 0.0))
            assert ids(nms(pair, below)) == ids(nms_reference(pair, below)) == ids(pair[:1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(grid_detections(max_size=12), grid_instances()), max_size=4))
    # two ground truths at IoU 0.5 from one detection: the lower index is taken
    @example([([det(0, 0, 2, 1, 0.9), det(0, 0, 1, 1, 0.8)],
               [(Box(0, 0, 1, 1), 0), (Box(1, 0, 2, 1), 0)])])
    # equal scores in one image: the lower anchor index is matched first
    @example([([det(5, 5, 6, 6, 0.5, anchor=1), det(0, 0, 2, 2, 0.5, anchor=0)],
               [(Box(0, 0, 2, 2), 0)])])
    def test_ap_matches_scalar_bit_for_bit(self, images):
        image_dets = [d for d, _ in images]
        image_gts = [g for _, g in images]
        classes = sorted({cls for gts in image_gts for _, cls in gts})
        per_class = [
            [class_ap_reference(image_dets, image_gts, c, t) for t in IOU_THRESHOLDS]
            for c in classes
        ]
        for c, want in zip(classes, per_class):
            assert _class_ap([Candidates.of(d) for d in image_dets],
                             [instance_arrays(g) for g in image_gts], c) == want
        want = (None, None)
        if classes:
            want = (float(np.mean([p[0] for p in per_class])),
                    float(np.mean([float(np.mean(p)) for p in per_class])))
        assert average_precision(image_dets, image_gts) == want

    @settings(max_examples=100, deadline=None)
    @given(grid_detections(), grid_instances())
    # two ground truths at IoU 0.5: the first is the one matched
    @example([det(0, 0, 2, 1, 0.9), det(0, 0, 1, 1, 0.8)],
             [(Box(0, 0, 1, 1), 0), (Box(1, 0, 2, 1), 0)])
    def test_census_matches_scalar(self, dets, gts):
        assert box_census(dets, gts) == box_census_reference(dets, gts)


class TestBoundedCost:
    def test_every_candidate_clears_the_floor(self, monkeypatch):
        # 16x16 anchors x 3 classes, boxes inside their own cells: no two
        # overlap, so greedy NMS keeps all 768 and eval wants the first 100
        grid = AnchorGrid(height=16, width=16, stride=8)
        p = np.linspace(0.9, 0.1, 768).reshape(16, 16, 3)
        b = np.full((16, 16, 4), 0.4)
        rows = []
        iou = geometry._iou

        def counting_iou(a, area_a, b, area_b):
            rows.append((np.shape(area_a), np.shape(area_b)))
            return iou(a, area_a, b, area_b)

        built = []
        init = Detection.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        seen = []
        nms_fn = metrics.nms

        def counting_nms(candidates, *args, **kwargs):
            seen.append(len(candidates))
            return nms_fn(candidates, *args, **kwargs)

        monkeypatch.setattr(geometry, "_iou", counting_iou)
        monkeypatch.setattr(Detection, "__init__", counting_init)
        monkeypatch.setattr(metrics, "nms", counting_nms)
        dets = detections_from_outputs(p, b, grid, max_detections=100)
        assert len(dets) == 100
        # one NMS call sees every candidate; only the kept become Detections
        assert seen == [768]
        assert len(built) <= 100
        assert [(d.anchor_index, d.class_id) for d in dets] == [
            divmod(k, 3) for k in range(100)
        ]
        # at most one suppression row per kept box, each of one box against
        # no more than its class's 256 candidates
        assert 0 < len(rows) <= 100
        assert all(one == () and len(rivals) == 1 and rivals[0] <= 256 for one, rivals in rows)


class TestEvaluateDataset:
    def tiny_model(self):
        cfg = ModelConfig(
            image_size=32, num_classes=2,
            backbone_channels=(4, 8, 8, 8), backbone_strides=(2, 2, 2, 1),
            channels=8, num_layers=2, attention_ratio=4, align_channels=4,
        )
        _, forward = build_model(cfg)
        return cfg, forward

    def record(self, seed=0):
        rng = SplitMix64(seed)
        return SceneRecord(
            image=rng.uniform((32, 32, 3)).astype(np.float32),
            instances=[(Box(2, 2, 14, 14, class_id=0), 0)],
            seed=seed,
        )

    def test_report_shape(self):
        cfg, forward = self.tiny_model()
        report = evaluate_dataset(forward, [self.record(0), self.record(1)], cfg.grid())
        assert isinstance(report, AlignmentReport)
        assert -1.0 <= report.pcc_top50 <= 1.0
        assert 0.0 <= report.mean_iou_top10 <= 1.0
        assert report.n_correct >= 0
        assert 0.0 <= report.ap50 <= 1.0

    def test_one_graph_alive(self):
        # a scene's graph is freed before the next scene's forward
        cfg, forward = self.tiny_model()
        seen = []

        def forward_checked(image):
            assert all(ref() is None for ref in seen)
            out = forward(image)
            seen.append(weakref.ref(out.P_align))
            return out

        evaluate_dataset(forward_checked, [self.record(s) for s in range(3)], cfg.grid())
        assert len(seen) == 3

    def test_no_instances_reports_missing_ap(self):
        cfg, forward = self.tiny_model()
        rec = self.record(3)
        rec.instances.clear()
        report = evaluate_dataset(forward, [rec], cfg.grid())
        assert report.ap50 is None and report.ap is None
        assert (report.n_correct, report.n_redundant) == (0, 0)

    def test_csv_row_blanks_missing(self):
        report = AlignmentReport(0.5, 0.25, 1, 2, 3, None, None)
        row = report.csv_row()
        assert row[0] == "0.500000"
        assert row[2:5] == ["1", "2", "3"]
        assert row[5] == "" and row[6] == ""
