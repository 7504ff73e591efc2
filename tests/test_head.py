import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import head_forward_reference

from aligndet import tensor as T
from aligndet.errors import ConfigError, ShapeError
from aligndet.head import (
    HeadConfig,
    align_classification,
    align_localization,
    count_params,
    head_forward,
    init_head_params,
    interactive_features,
    layer_attention,
    tap_predict,
)
from aligndet.scenes import SplitMix64
from aligndet.selfcheck import _perturb
from aligndet.tensor import Tensor


def small_cfg(**kw):
    base = dict(channels=16, num_layers=2, num_classes=2,
                attention_ratio=4, align_channels=4)
    base.update(kw)
    return HeadConfig(**base)


def perturbed_params(cfg, seed=0, scale=0.25):
    # zero-initialized layers sit exactly on relu/bilinear kinks; nudge
    # every parameter so finite differences probe smooth territory
    params = init_head_params(cfg, seed=seed)
    _perturb(params, seed + 1000, scale)
    return params


def random_input(cfg, h=6, w=6, seed=0):
    rng = SplitMix64(seed + 5000)
    return Tensor((rng.normal((h, w, cfg.channels)) * 0.5).astype(np.float32))


class TestConfig:
    def test_defaults_validate(self):
        HeadConfig().validate()

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            HeadConfig(channels=10, attention_ratio=4).validate()

    def test_bad_prior(self):
        with pytest.raises(ConfigError):
            HeadConfig(prior_prob=1.5).validate()


class TestInit:
    def test_deterministic(self):
        cfg = small_cfg()
        a = init_head_params(cfg, seed=3)
        b = init_head_params(cfg, seed=3)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)

    def test_score_bias_matches_prior(self):
        cfg = small_cfg(prior_prob=0.01)
        params = init_head_params(cfg)
        # sigmoid(bias) must equal the prior
        bias = params["tap.cls.pred.b"].data
        assert np.allclose(1.0 / (1.0 + np.exp(-bias)), 0.01, atol=1e-6)

    def test_alignment_starts_at_identity(self):
        cfg = small_cfg()
        params = init_head_params(cfg)
        assert np.all(params["m.pred.w"].data == 0)
        assert np.all(params["o.pred.w"].data == 0)
        out = head_forward(random_input(cfg), params, cfg)
        assert np.allclose(out.M.data, 0.5)
        assert np.all(out.O.data == 0)
        assert np.array_equal(out.B_align.data, out.B.data)

    def test_frozen_size_and_budget(self):
        # full-size head at the 80-class audit shape, frozen closed-form count;
        # must undercut a two-branch parallel head (2x4 convs + cls/box/extra
        # quality predictor) at the same width
        cfg = HeadConfig(channels=64, num_layers=6, num_classes=80,
                         attention_ratio=4, align_channels=8)
        n_params = count_params(init_head_params(cfg))
        assert n_params == 338_657
        c, k = 64, 80
        conv = lambda cin, cout: 9 * cin * cout + cout
        parallel = 8 * conv(c, c) + conv(c, k) + conv(c, 4) + conv(c, 1)
        assert parallel == 344_469
        assert n_params <= parallel


class TestInteractive:
    def test_shapes(self):
        cfg = small_cfg(num_layers=4)
        maps = interactive_features(random_input(cfg), perturbed_params(cfg), cfg)
        assert len(maps) == 4
        for m in maps:
            assert m.shape == (6, 6, cfg.channels)

    def test_identity_conv_passes_nonnegative_input(self):
        cfg = small_cfg(num_layers=1)
        params = init_head_params(cfg)
        w = np.zeros((3, 3, cfg.channels, cfg.channels), dtype=np.float32)
        for c in range(cfg.channels):
            w[1, 1, c, c] = 1.0
        params["inter.0.w"].data = w
        x = Tensor(np.abs(random_input(cfg).data))
        (out,) = interactive_features(x, params, cfg)
        assert np.allclose(out.data, x.data, atol=1e-6)

    def test_zero_input_zero_biases(self):
        cfg = small_cfg(num_layers=3)
        params = init_head_params(cfg)
        x = Tensor(np.zeros((5, 5, cfg.channels), dtype=np.float32))
        for m in interactive_features(x, params, cfg):
            assert np.all(m.data == 0)

    def test_channel_mismatch(self):
        cfg = small_cfg()
        x = Tensor(np.zeros((5, 5, cfg.channels + 1), dtype=np.float32))
        with pytest.raises(ShapeError):
            interactive_features(x, init_head_params(cfg), cfg)


class TestAttention:
    def test_gates_in_open_interval(self):
        cfg = small_cfg(num_layers=3)
        params = perturbed_params(cfg)
        pooled = T.global_avg_pool(T.concat(interactive_features(random_input(cfg), params, cfg)))
        w = layer_attention(pooled, params, "cls")
        assert w.shape == (3,)
        assert np.all(w.data > 0) and np.all(w.data < 1)

    def test_one_hot_gates_select_layer(self):
        # gates [0, 1, 0] folded into the reduction weight keep only layer
        # 1's block, so the reduction reads layer 1 alone
        cfg = small_cfg(num_layers=3)
        params = perturbed_params(cfg)
        inter = interactive_features(random_input(cfg), params, cfg)
        weight = params["tap.cls.reduce.w"]
        folded = T.gated_weight(weight, np.array([0.0, 1.0, 0.0], dtype=np.float32))
        c = cfg.channels
        assert np.all(folded.data[:, :, :c] == 0)
        assert np.array_equal(folded.data[:, :, c:2 * c], weight.data[:, :, c:2 * c])
        assert np.all(folded.data[:, :, 2 * c:] == 0)
        bias = np.zeros(cfg.channels, dtype=np.float32)
        reduced = T.conv2d(T.concat(inter), folded, bias)
        alone = T.conv2d(inter[1], weight.data[:, :, c:2 * c], bias)
        assert np.allclose(reduced.data, alone.data, rtol=1e-5, atol=1e-6)

    def test_tasks_share_stack_but_not_gates(self):
        cfg = small_cfg(num_layers=3)
        params = perturbed_params(cfg)
        pooled = T.global_avg_pool(T.concat(interactive_features(random_input(cfg), params, cfg)))
        w_cls = layer_attention(pooled, params, "cls")
        w_loc = layer_attention(pooled, params, "loc")
        assert not np.array_equal(w_cls.data, w_loc.data)


class TestTap:
    def test_zero_logits_give_half_scores(self):
        cfg = small_cfg()
        params = init_head_params(cfg)
        params["tap.cls.pred.b"].data = np.zeros_like(params["tap.cls.pred.b"].data)
        params["tap.cls.pred.w"].data = np.zeros_like(params["tap.cls.pred.w"].data)
        stack = T.concat(interactive_features(random_input(cfg), params, cfg))
        P = tap_predict(stack, layer_attention(T.global_avg_pool(stack), params, "cls"), params,
                        "cls")
        assert np.allclose(P.data, 0.5)

    def test_zero_weights_give_unit_distances(self):
        cfg = small_cfg()
        params = init_head_params(cfg)
        params["tap.loc.pred.w"].data = np.zeros_like(params["tap.loc.pred.w"].data)
        stack = T.concat(interactive_features(random_input(cfg), params, cfg))
        B = tap_predict(stack, layer_attention(T.global_avg_pool(stack), params, "loc"), params,
                        "loc")
        assert np.allclose(B.data, 1.0)  # exp(0), one stride unit

    def test_audit_shapes_at_80_classes(self):
        cfg = HeadConfig(channels=16, num_layers=2, num_classes=80,
                         attention_ratio=4, align_channels=4)
        out = head_forward(random_input(cfg), perturbed_params(cfg), cfg)
        assert out.P.shape == (6, 6, 80)
        assert out.B.shape == (6, 6, 4)
        assert out.P_align.shape == (6, 6, 80)
        assert out.B_align.shape == (6, 6, 4)
        assert out.M.shape == (6, 6, 1)
        assert out.O.shape == (6, 6, 8)

    def test_distances_positive(self):
        cfg = small_cfg()
        out = head_forward(random_input(cfg), perturbed_params(cfg), cfg)
        assert np.all(out.B.data > 0)
        assert np.all(out.B_align.data > 0)


class TestAlignClassification:
    def test_geometric_mean_fixed_point(self):
        P = Tensor(np.full((3, 3, 1), 0.7, dtype=np.float32))
        P_align = align_classification(P, P.data.copy())
        assert np.allclose(P_align.data, 0.7, atol=1e-6)

    def test_known_value(self):
        P = Tensor(np.full((2, 2, 1), 0.64, dtype=np.float32))
        P_align = align_classification(P, np.full((2, 2, 1), 0.25, dtype=np.float32))
        assert np.allclose(P_align.data, 0.4, atol=1e-6)

    def test_range(self):
        cfg = small_cfg()
        out = head_forward(random_input(cfg), perturbed_params(cfg), cfg)
        for t in (out.P, out.M, out.P_align):
            assert np.all(t.data >= 0) and np.all(t.data <= 1)


class TestAlignLocalization:
    def test_constant_channel_unchanged(self):
        B = Tensor(np.full((4, 4, 4), 2.5, dtype=np.float32))
        o = np.random.default_rng(0).uniform(-3, 3, size=(4, 4, 8))
        B_align = align_localization(B, o)
        assert np.allclose(B_align.data, 2.5, atol=1e-6)

    def test_integer_offset_shifts_one_row(self):
        rng = SplitMix64(2)
        B = Tensor((rng.normal((5, 5, 4)) + 3.0).astype(np.float32))
        o = np.zeros((5, 5, 8))
        o[:, :, 0] = 1.0   # side 0: sample one row down
        B_align = align_localization(B, o)
        assert np.allclose(B_align.data[:4, :, 0], B.data[1:, :, 0], atol=1e-6)
        # other sides untouched
        assert np.allclose(B_align.data[:, :, 1:], B.data[:, :, 1:], atol=1e-6)

    def test_border_clamp(self):
        B = Tensor(np.arange(16, dtype=np.float32).reshape(2, 2, 4))
        o = np.full((2, 2, 8), 50.0)
        B_align = align_localization(B, o)
        # every sample lands on the bottom-right border value of its channel
        for c in range(4):
            assert np.allclose(B_align.data[:, :, c], B.data[1, 1, c])


class TestForward:
    def test_deterministic(self):
        cfg = small_cfg()
        params = perturbed_params(cfg)
        x = random_input(cfg)
        a = head_forward(x, params, cfg)
        b = head_forward(x, params, cfg)
        assert np.array_equal(a.P_align.data, b.P_align.data)
        assert np.array_equal(a.B_align.data, b.B_align.data)

    def test_outputs_finite(self):
        cfg = small_cfg()
        out = head_forward(random_input(cfg), perturbed_params(cfg), cfg)
        for t in (out.P, out.B, out.M, out.O, out.P_align, out.B_align, out.w_cls, out.w_loc):
            assert np.all(np.isfinite(t.data))

    def test_full_gradient_vs_finite_differences(self):
        # the documented head-level check: d(sum P_align + sum B_align)/d(theta)
        cfg = small_cfg()
        x_data = random_input(cfg, h=8, w=8, seed=1).data
        params = perturbed_params(cfg, seed=1)
        params["x"] = Tensor(x_data)

        def build(p):
            head_params = {k: v for k, v in p.items() if k != "x"}
            out = head_forward(p["x"], head_params, cfg)
            return T.add(T.tensor_sum(out.P_align), T.tensor_sum(out.B_align))

        err = T.grad_check(build, params, eps=1e-5, coords_per_param=3, seed=0)
        assert err < 1e-3, f"max relative gradient error {err:.3e}"

    @given(
        dtype=st.sampled_from([np.float32, np.float64]), n=st.integers(1, 4),
        c=st.sampled_from([4, 8]), h=st.integers(2, 7), w=st.integers(2, 7),
        k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_bitwise(self, dtype, n, c, h, w, k, seed):
        # against the head as the paper writes it, gating each map before
        # the reduction: the values the gate fold does not reach (inter, M,
        # O and the gates) match bit for bit and sign of zero; the folded
        # reductions' outputs and every gradient round differently, so in
        # float64 they match within 1e-12 of each array's largest magnitude
        cfg = HeadConfig(channels=c, num_layers=n, num_classes=k,
                         attention_ratio=4, align_channels=4)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(h, w, c)).astype(dtype)
        probe_p = rng.normal(size=(h, w, k)).astype(dtype)
        probe_b = rng.normal(size=(h, w, 4)).astype(dtype)
        nudged = {name: (p.data + rng.normal(size=p.shape) * 0.1).astype(dtype)
                  for name, p in init_head_params(cfg, seed=seed % 997).items()}
        exact, folded = [], []
        for forward in (head_forward, head_forward_reference):
            params = {name: Tensor(a) for name, a in nudged.items()}
            xt = Tensor(x)
            out = forward(xt, params, cfg)
            T.add(T.tensor_sum(T.mul(out.P_align, Tensor(probe_p))),
                  T.tensor_sum(T.mul(out.B_align, Tensor(probe_b)))).backward()
            exact.append([getattr(out, f).data for f in ("M", "O", "w_cls", "w_loc")]
                         + [m.data for m in out.inter])
            folded.append([getattr(out, f).data for f in ("P", "B", "P_align", "B_align")]
                          + [xt.grad] + [params[name].grad for name in sorted(params)])
        for got, want in zip(*exact):
            assert np.all(np.isfinite(want))
            assert got.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        for got, want in zip(*folded):
            assert np.all(np.isfinite(want))
            assert got.dtype == dtype and got.shape == want.shape
            if dtype == np.float64:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
