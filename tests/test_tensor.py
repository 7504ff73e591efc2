import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    bilinear_sample_coords_reference,
    bilinear_sample_reference,
    conv2d_reference,
    gated_weight_reference,
    select_channels_reference,
)

from aligndet import tensor as T
from aligndet.errors import FormatError, GraphError, ShapeError
from aligndet.tensor import Tensor


def fd_check(build, params, eps=1e-4, tol=1e-4, **kw):
    err = T.grad_check(build, params, eps=eps, **kw)
    assert err < tol, f"max relative gradient error {err:.3e}"


class TestForwardValues:
    def test_add_mul(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose(T.add(a, b).data, [4.0, 6.0])
        assert np.allclose(T.mul(a, b).data, [3.0, 8.0])

    def test_scalar_broadcast(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose(T.mul(a, 2.0).data, [2.0, 4.0])
        assert np.allclose(T.add(a, 1.0).data, [2.0, 3.0])
        assert np.allclose(T.add(1.0, T.mul(a, -1.0)).data, [0.0, -1.0])

    def test_trailing_axis_broadcast(self):
        m = Tensor(np.ones((2, 2, 1)) * 3.0)
        x = Tensor(np.ones((2, 2, 4)))
        out = T.mul(x, m)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data, 3.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            T.focal_bce(Tensor(np.ones((2, 2, 3))), np.zeros((2, 2, 2)), np.zeros((2, 2, 3)),
                        2.0, 1.0)
        with pytest.raises(ShapeError):
            T.giou_loss(Tensor(np.ones((2, 2, 4))), [0, 3], np.zeros((2, 2)), np.zeros((1, 4)),
                        np.ones(2), 8, 1.0)
        with pytest.raises(ShapeError):
            T.global_avg_pool(Tensor(np.ones((2, 3))))
        weight = Tensor(np.ones((1, 1, 6, 2)))
        with pytest.raises(ShapeError):
            T.gated_weight(weight, np.ones(4))
        with pytest.raises(ShapeError):
            T.gated_weight(weight, np.ones((2, 1)))
        with pytest.raises(ShapeError):
            T.gated_weight(weight, np.ones(0))
        with pytest.raises(ShapeError):
            T.gated_weight(Tensor(np.ones((3, 3, 6, 2))), np.ones(2))
        m = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            T.bilinear_sample_per_channel(m, np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            T.bilinear_sample_per_channel(m, np.zeros((3, 2, 8)))

    def test_sigmoid_known_points(self):
        x = Tensor([0.0, 100.0, -100.0])
        s = T.sigmoid(x).data
        assert s[0] == pytest.approx(0.5)
        assert s[1] == pytest.approx(1.0)
        assert s[2] == pytest.approx(0.0, abs=1e-30)

    def test_log_clamps_at_zero(self):
        # focal_bce's logs clamp at LOG_EPS: a confident miss costs -log(1e-12)
        # on a positive (s = 0, t = 1) and on a negative (s = 1)
        s = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 2))
        pos, neg = T.focal_bce(s, np.array([1.0, 0.0]).reshape(1, 1, 2),
                               np.array([1.0, 0.0]).reshape(1, 1, 2), 2.0, 1.0)
        assert np.isfinite(pos.data) and np.isfinite(neg.data)
        assert float(pos.data) == pytest.approx(-np.log(1e-12))
        assert float(neg.data) == pytest.approx(-np.log(1e-12))

    def test_sqrt_known_gradient(self):
        # d/dx sqrt(x) at 0.25 is 1/(2*0.5) = 1
        x = Tensor([0.25])
        out = T.tensor_sum(T.sqrt(x))
        out.backward()
        assert x.grad[0] == pytest.approx(1.0, rel=1e-6)

    def test_sqrt_clamped_region_has_zero_grad(self):
        x = Tensor([0.0])
        out = T.tensor_sum(T.sqrt(x))
        out.backward()
        assert np.isfinite(out.data)
        assert x.grad[0] == 0.0

    def test_minimum_maximum(self):
        # giou_loss's overlap spans max(near edges) to min(far edges), its
        # hull the reverse: [0,0,2,2] against [1,1,3,3] overlaps 1x1, union
        # 7, hull 3x3
        d = Tensor(np.ones((1, 1, 4)))
        loss = T.giou_loss(d, [0], [[1.0, 1.0]], [[1.0, 1.0, 3.0, 3.0]], [1.0], 1, 1.0)
        assert float(loss.data) == pytest.approx(1.0 - (1 / 7 - 2 / 9))

    def test_power_square_gradient(self):
        # focal_bce's negative term s^2 * -log(1 - s) has slope
        # 2s * -log(1 - s) + s^2 / (1 - s) = ln 2 + 0.5 at s = 0.5
        s = Tensor(np.full((1, 1, 1), 0.5))
        zeros = np.zeros((1, 1, 1))
        _, neg = T.focal_bce(s, zeros, zeros, 2.0, 1.0)
        neg.backward()
        assert s.grad[0, 0, 0] == pytest.approx(np.log(2.0) + 0.5)

    def test_gather_rows(self):
        # giou_loss reads map row i*W + j and returns its gradient there:
        # row 4 decodes to [0,0,2,2], against [0,0,3,2] GIoU is 4/6
        m = np.full((2, 3, 4), 0.25)
        m[1, 1] = 1.0
        d = Tensor(m)
        loss = T.giou_loss(d, [4], [[1.0, 1.0]], [[0.0, 0.0, 3.0, 2.0]], [1.0], 1, 1.0)
        loss.backward()
        assert float(loss.data) == pytest.approx(1 / 3)
        touched = np.abs(d.grad).sum(axis=-1) > 0
        assert touched[1, 1] and touched.sum() == 1

    def test_concat_split_roundtrip(self):
        # forward joins the inputs; backward splits the gradient back
        a = Tensor(np.arange(12, dtype=np.float32).reshape(2, 2, 3))
        b = Tensor(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
        joined = T.concat([a, b])
        assert joined.shape == (2, 2, 5)
        assert np.array_equal(joined.data[..., :3], a.data)
        assert np.array_equal(joined.data[..., 3:], b.data)
        probe = np.arange(20, dtype=np.float32).reshape(2, 2, 5)
        T.tensor_sum(T.mul(joined, Tensor(probe))).backward()
        assert np.array_equal(a.grad, probe[..., :3])
        assert np.array_equal(b.grad, probe[..., 3:])

    def test_linear_known_value(self):
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([0.5, -0.5])
        x = Tensor([1.0, 1.0])
        assert np.allclose(T.linear(w, b, x).data, [3.5, 6.5])

    def test_global_avg_pool(self):
        m = Tensor(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
        # channel 0 holds 0,2,4,6 -> mean 3; channel 1 holds 1,3,5,7 -> mean 4
        assert np.allclose(T.global_avg_pool(m).data, [3.0, 4.0])
        # each channel of a concat keeps its own mean
        doubled = Tensor(2.0 * m.data)
        assert np.allclose(T.global_avg_pool(T.concat([m, doubled])).data, [3.0, 4.0, 6.0, 8.0])

    def test_gated_weight(self):
        # input block k of a [1,1,N*C,Cout] weight is scaled by w[k]; unit
        # gates give the weight back bit for bit
        weight = np.arange(12, dtype=np.float32).reshape(1, 1, 6, 2)
        gated = T.gated_weight(Tensor(weight), np.array([2.0, 0.0, -1.0], dtype=np.float32))
        assert np.array_equal(gated.data.reshape(3, 4),
                              weight.reshape(3, 4) * np.array([[2.0], [0.0], [-1.0]]))
        unit = T.gated_weight(Tensor(weight), np.ones(3, dtype=np.float32))
        assert np.array_equal(unit.data, weight)

    @given(n=st.integers(1, 4), c=st.integers(1, 5), cout=st.integers(1, 4),
           h=st.integers(1, 5), w=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fused_ops_match_reference_bitwise(self, n, c, cout, h, w, dtype, seed):
        # gate folding and offset sampling against the block-by-block and
        # per-channel ops they replace; the offsets reach past the border,
        # so some samples clamp and their offset gradients are signed zeros
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(1, 1, n * c, cout)).astype(dtype)
        gates = rng.normal(size=n).astype(dtype)
        maps = rng.normal(size=(h, w, c)).astype(dtype)
        offs = rng.uniform(-1.5 * max(h, w), 1.5 * max(h, w), size=(h, w, 2 * c)).astype(dtype)
        g_gate = rng.normal(size=(1, 1, n * c, cout)).astype(dtype)
        g_samp = rng.normal(size=(h, w, c)).astype(dtype)
        ii, jj = np.mgrid[0:h, 0:w]
        grid_i = np.repeat(ii[:, :, None], c, axis=2).astype(dtype)
        grid_j = np.repeat(jj[:, :, None], c, axis=2).astype(dtype)
        runs = []
        for fused in (True, False):
            wgt, gt, src, ot = Tensor(weight), Tensor(gates), Tensor(maps), Tensor(offs)
            if fused:
                gated = T.gated_weight(wgt, gt)
                sampled = T.bilinear_sample_per_channel(src, ot)
            else:
                gated = gated_weight_reference(wgt, gt)
                rows = T.add(select_channels_reference(ot, range(0, 2 * c, 2)), Tensor(grid_i))
                cols = T.add(select_channels_reference(ot, range(1, 2 * c, 2)), Tensor(grid_j))
                sampled = bilinear_sample_coords_reference(src, rows, cols)
            T.add(T.tensor_sum(T.mul(gated, Tensor(g_gate))),
                  T.tensor_sum(T.mul(sampled, Tensor(g_samp)))).backward()
            runs.append([gated.data, sampled.data, wgt.grad, gt.grad, ot.grad, src.grad])
        for got, want in zip(*runs):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestConv:
    def test_ones_kernel_counts_window(self):
        # all-ones 3x3 kernel over an all-ones image sums the window: 9 inside
        x = Tensor(np.ones((5, 5, 1), dtype=np.float32))
        w = Tensor(np.ones((3, 3, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = T.conv2d(x, w, b, stride=1, pad=1)
        assert out.shape == (5, 5, 1)
        assert out.data[2, 2, 0] == pytest.approx(9.0)
        assert out.data[0, 0, 0] == pytest.approx(4.0)  # corner sees a 2x2 window

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(4, 4, 2)).astype(np.float32)
        w = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w[0, 0, 0, 0] = 1.0
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(img), Tensor(w), Tensor(np.zeros(2, dtype=np.float32)))
        assert np.allclose(out.data, img, atol=1e-6)

    def test_stride_two_shape(self):
        x = Tensor(np.ones((8, 8, 3), dtype=np.float32))
        w = Tensor(np.ones((3, 3, 3, 5), dtype=np.float32))
        b = Tensor(np.zeros(5, dtype=np.float32))
        assert T.conv2d(x, w, b, stride=2, pad=1).shape == (4, 4, 5)

    def test_against_direct_loop(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5, 3)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1).data
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        ref = np.zeros((6, 5, 4))
        for i in range(6):
            for j in range(5):
                patch = xp[i:i + 3, j:j + 3, :]
                ref[i, j] = np.tensordot(patch, w, axes=([0, 1, 2], [0, 1, 2])) + b
        assert np.allclose(out, ref, atol=1e-4)

    def test_bad_shapes_rejected(self):
        x = Tensor(np.ones((4, 4, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            T.conv2d(x, Tensor(np.ones((2, 2, 2, 1))), Tensor(np.zeros(1)))  # even kernel
        with pytest.raises(ShapeError):
            T.conv2d(x, Tensor(np.ones((3, 3, 3, 1))), Tensor(np.zeros(1)))  # Cin mismatch
        with pytest.raises(ShapeError):
            T.conv2d(x, Tensor(np.ones((3, 3, 2, 1))), Tensor(np.zeros(2)))  # bias size

    @given(
        k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
        h=st.integers(1, 9), w=st.integers(1, 9), cin=st.integers(1, 6), cout=st.integers(1, 6),
        dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bitwise(self, k, stride, pad, h, w, cin, cout, dtype, seed):
        h_out = (h + 2 * pad - k) // stride + 1
        w_out = (w + 2 * pad - k) // stride + 1
        if h_out <= 0 or w_out <= 0:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(h, w, cin)).astype(dtype)
        wt = rng.normal(size=(k, k, cin, cout)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        # dead ReLU rows: exact zeros, signed like g * (a > 0) makes them
        g = rng.normal(size=(h_out, w_out, cout)).astype(dtype)
        g *= (rng.random((h_out, w_out, 1)) < 0.6) * (rng.random(g.shape) < 0.8)
        ref = conv2d_reference(x, wt, b, g, stride=stride, pad=pad)

        xt, wtt, bt = Tensor(x), Tensor(wt), Tensor(b)
        out = T.conv2d(xt, wtt, bt, stride=stride, pad=pad)
        T.tensor_sum(T.mul(out, Tensor(g))).backward()
        for got, want in zip((out.data, xt.grad, wtt.grad, bt.grad), ref):
            assert got.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("k,stride,pad", [(1, 1, 0), (3, 2, 1), (3, 1, 1)])
    def test_constant_input_gets_no_gradient(self, k, stride, pad):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 5, 3)).astype(np.float32)
        wt = rng.normal(size=(k, k, 3, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        grads = []
        for x_in in (Tensor(x), x):
            wtt, bt = Tensor(wt), Tensor(b)
            out = T.conv2d(x_in, wtt, bt, stride=stride, pad=pad)
            T.tensor_sum(T.mul(out, out)).backward()
            grads.append((out.data, wtt.grad, bt.grad, out._parents[0].grad))
        (out_t, gw_t, gb_t, gx_t), (out_c, gw_c, gb_c, gx_c) = grads
        assert np.array_equal(out_t, out_c)
        assert np.array_equal(gw_t, gw_c) and np.array_equal(gb_t, gb_c)
        assert gx_t is not None and gx_t.shape == x.shape
        assert gx_c is None


def offsets_at(h, w, i, j, di, dj):
    """Zero [h,w,2] offsets, except (di, dj) at cell (i, j)."""
    o = np.zeros((h, w, 2), dtype=np.float32)
    o[i, j] = (di, dj)
    return Tensor(o)


class TestBilinear:
    def test_midpoint_average(self):
        m = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)[..., None])
        out = T.bilinear_sample_per_channel(m, offsets_at(2, 2, 0, 0, 0.5, 0.5))
        assert out.data[0, 0, 0] == pytest.approx(1.5)

    def test_integer_coordinate_is_exact(self):
        m = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3, 1))
        out = T.bilinear_sample_per_channel(m, offsets_at(2, 3, 0, 0, 1.0, 2.0))
        assert out.data[0, 0, 0] == pytest.approx(5.0)
        # zero offsets read each cell itself
        assert np.array_equal(out.data[..., 0].ravel()[1:], m.data[..., 0].ravel()[1:])

    def test_out_of_range_clamps_to_border(self):
        m = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2, 1))
        low = T.bilinear_sample_per_channel(m, np.full((2, 2, 2), -3.0))
        high = T.bilinear_sample_per_channel(m, np.full((2, 2, 2), 9.0))
        assert low.data[0, 0, 0] == pytest.approx(0.0)
        assert high.data[0, 0, 0] == pytest.approx(3.0)
        assert np.all(low.data == 0.0) and np.all(high.data == 3.0)

    def test_coordinate_gradient(self):
        # map [[0,1],[2,3]]: at (0.5, 0.5) slope is 2 along rows, 1 along cols
        m = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)[..., None])
        o = offsets_at(2, 2, 0, 0, 0.5, 0.5)
        T.tensor_sum(T.bilinear_sample_per_channel(m, o)).backward()
        assert o.grad[0, 0, 0] == pytest.approx(2.0)
        assert o.grad[0, 0, 1] == pytest.approx(1.0)

    def test_clamped_coordinate_gradient_is_zero(self):
        m = Tensor(np.arange(4, dtype=np.float32).reshape(2, 2, 1))
        o = offsets_at(2, 2, 0, 0, -5.0, 0.5)
        T.tensor_sum(T.bilinear_sample_per_channel(m, o)).backward()
        assert o.grad[0, 0, 0] == 0.0
        assert o.grad[0, 0, 1] != 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 4, 3)).astype(np.float32)
        o = rng.uniform(-2, 2, size=(5, 4, 6)).astype(np.float32)
        out = T.bilinear_sample_per_channel(Tensor(m), Tensor(o)).data
        for p in range(5):
            for q in range(4):
                for c in range(3):
                    i, j = p + o[p, q, 2 * c], q + o[p, q, 2 * c + 1]
                    ref = bilinear_sample_reference(m, i, j, c)
                    assert out[p, q, c] == pytest.approx(ref, abs=1e-5)


class TestBackward:
    def test_requires_scalar_output(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(GraphError):
            T.mul(x, 2.0).backward()

    def test_chain(self):
        # y = sum((2x + 1)^2), dy/dx = 4(2x + 1)
        x = Tensor([1.0, -2.0])
        u = T.add(T.mul(x, 2.0), 1.0)
        y = T.tensor_sum(T.mul(u, u))
        y.backward()
        assert np.allclose(x.grad, [12.0, -12.0])

    def test_reuse_accumulates(self):
        # y = sum(x * x) uses x twice; dy/dx = 2x
        x = Tensor([3.0])
        T.tensor_sum(T.mul(x, x)).backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_diamond_graph(self):
        x = Tensor([1.0])
        a = T.mul(x, 2.0)
        b = T.mul(x, 3.0)
        T.tensor_sum(T.add(a, b)).backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.normal(size=(6, 6, 2)).astype(np.float32))
            w = Tensor(rng.normal(size=(3, 3, 2, 3)).astype(np.float32))
            b = Tensor(rng.normal(size=3).astype(np.float32))
            out = T.tensor_sum(T.relu(T.conv2d(x, w, b, pad=1)))
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        o1, gx1, gw1 = run()
        o2, gx2, gw2 = run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


class TestGradCheck:
    def test_simple_polynomial(self):
        params = {"x": Tensor(np.array([1.0, -0.5, 2.0], dtype=np.float32))}
        fd_check(
            lambda p: T.tensor_sum(T.add(T.mul(T.mul(p["x"], p["x"]), 3.0), p["x"])),
            params,
            tol=1e-6,
        )

    def test_elementwise_ops(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = {
                "a": Tensor(rng.uniform(0.3, 2.0, size=(3, 3)).astype(np.float32)),
                "b": Tensor(rng.uniform(0.3, 2.0, size=(3, 3)).astype(np.float32)),
            }

            def build(p):
                z = T.add(T.mul(p["a"], p["b"]), T.exp(T.mul(p["b"], -0.5)))
                z = T.add(T.add(T.sqrt(z), T.exp(T.mul(z, 0.1))), T.mul(z, z))
                z = T.add(T.add(z, T.sigmoid(p["a"])), T.relu(T.add(p["b"], -1.0)))
                return T.tensor_sum(z)

            fd_check(build, params)

    def test_min_max_off_ties(self):
        # giou_loss's intersection and hull take mins and maxes of box edges;
        # these boxes keep every edge at least 0.5 px from its target's, and
        # hold one overlapping, one containing and one disjoint pair
        d = np.array([[[1.0, 1.2, 0.8, 1.1], [0.6, 0.9, 1.3, 0.7]],
                      [[2.1, 0.4, 0.5, 1.9], [0.3, 0.6, 0.4, 0.5]]])
        centers = np.array([[2.0, 2.0], [6.0, 2.0], [6.0, 6.0]])
        gt = np.array([[-1.0, 0.0, 6.5, 5.5], [3.0, -3.0, 12.0, 7.5], [10.0, 10.0, 12.0, 13.0]])
        weights = np.array([0.9, 0.4, 0.7])
        fd_check(
            lambda p: T.giou_loss(p["d"], [0, 1, 3], centers, gt, weights, 4, 0.5),
            {"d": Tensor(d)},
        )

    def test_conv_and_linear(self):
        rng = np.random.default_rng(1)
        params = {
            "x": Tensor(rng.normal(size=(5, 5, 2)).astype(np.float32) * 0.5),
            "w": Tensor(rng.normal(size=(3, 3, 2, 3)).astype(np.float32) * 0.3),
            "b": Tensor(rng.normal(size=3).astype(np.float32) * 0.1),
            "fw": Tensor(rng.normal(size=(2, 3)).astype(np.float32) * 0.3),
            "fb": Tensor(rng.normal(size=2).astype(np.float32) * 0.1),
        }

        def build(p):
            y = T.relu(T.conv2d(p["x"], p["w"], p["b"], stride=2, pad=1))
            pooled = T.global_avg_pool(y)
            return T.tensor_sum(T.sigmoid(T.linear(p["fw"], p["fb"], pooled)))

        fd_check(build, params)

    def test_pointwise_conv(self):
        rng = np.random.default_rng(5)
        params = {
            "x": Tensor(rng.normal(size=(4, 3, 5))),
            "w": Tensor(rng.normal(size=(1, 1, 5, 3)) * 0.4),
            "b": Tensor(rng.normal(size=3) * 0.1),
        }
        fd_check(lambda p: T.tensor_sum(T.sigmoid(T.conv2d(p["x"], p["w"], p["b"]))), params)

    def test_conv_stride_one_pad_one(self):
        rng = np.random.default_rng(6)
        params = {
            "x": Tensor(rng.normal(size=(4, 5, 2))),
            "w": Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.3),
            "b": Tensor(rng.normal(size=3) * 0.1),
        }
        fd_check(lambda p: T.tensor_sum(T.sigmoid(T.conv2d(p["x"], p["w"], p["b"], pad=1))),
                 params)

    def test_structural_ops(self):
        rng = np.random.default_rng(2)
        params = {
            "a": Tensor(rng.normal(size=(2, 2, 3)).astype(np.float32)),
            "b": Tensor(rng.normal(size=(2, 2, 2)).astype(np.float32)),
            "c": Tensor(rng.normal(size=(2, 2, 3)).astype(np.float32)),
            "w": Tensor(rng.normal(size=2).astype(np.float32)),
            "weight": Tensor(rng.normal(size=(1, 1, 6, 2)).astype(np.float32)),
        }

        def build(p):
            joined = T.concat([p["a"], p["b"]])
            stack = T.concat([p["a"], p["c"]])
            gated = T.conv2d(stack, T.gated_weight(p["weight"], p["w"]), np.zeros(2))
            pooled = T.global_avg_pool(stack)
            total = T.add(T.tensor_sum(T.mul(joined, joined)), T.tensor_sum(T.mul(gated, gated)))
            return T.add(total, T.tensor_sum(T.mul(pooled, pooled)))

        fd_check(build, params)

    def test_bilinear_sampling(self):
        # sample coordinates stay in (0.2, 2.7), inside the 4x4 map
        rng = np.random.default_rng(4)
        grid = np.mgrid[0:4, 0:4].transpose(1, 2, 0)[..., [0, 1, 0, 1]]
        params = {
            "m": Tensor(rng.normal(size=(4, 4, 2)).astype(np.float32)),
            "o": Tensor((rng.uniform(0.2, 2.7, size=(4, 4, 4)) - grid).astype(np.float32)),
        }

        def build(p):
            v = T.bilinear_sample_per_channel(p["m"], p["o"])
            return T.tensor_sum(T.mul(v, v))

        fd_check(build, params)

    def test_constant_only_graph_reports_zero(self):
        params = {"x": Tensor(np.array([1.0, 2.0], dtype=np.float32))}
        err = T.grad_check(lambda p: T.add(T.tensor_sum(T.mul(p["x"], 0.0)), 5.0), params)
        assert err == 0.0

    def test_coordinate_subsampling(self):
        rng = np.random.default_rng(9)
        params = {"x": Tensor(rng.normal(size=(8, 8)).astype(np.float32))}
        err = T.grad_check(
            lambda p: T.tensor_sum(T.mul(p["x"], p["x"])), params, coords_per_param=5
        )
        assert err < 1e-6

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_small_graphs(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "u": Tensor(rng.uniform(0.2, 1.5, size=4).astype(np.float32)),
            "v": Tensor(rng.uniform(0.2, 1.5, size=4).astype(np.float32)),
        }

        def build(p):
            z = T.add(T.add(T.mul(p["u"], p["v"]), T.sqrt(p["u"])), T.sigmoid(T.add(p["v"], -1.0)))
            return T.tensor_sum(T.mul(z, z))

        fd_check(build, params)


class TestSerialization:
    def test_roundtrip_shapes(self):
        rng = np.random.default_rng(0)
        for shape in [(), (3,), (2, 3), (2, 3, 4), (1, 2, 3, 4)]:
            arr = rng.normal(size=shape).astype(np.float32)
            buf = T.tensor_to_bytes(arr)
            back, end = T.tensor_from_bytes(buf)
            assert end == len(buf)
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_layout_is_fixed(self):
        buf = T.tensor_to_bytes(np.array([1.0, 2.0], dtype=np.float32))
        assert buf[:4] == b"TNSR"
        assert buf[4:8] == (1).to_bytes(4, "little")
        assert buf[8:12] == (2).to_bytes(4, "little")
        assert np.frombuffer(buf[12:], dtype="<f4").tolist() == [1.0, 2.0]

    def test_concatenated_stream(self):
        a = np.ones((2, 2), dtype=np.float32)
        b = np.zeros(3, dtype=np.float32)
        buf = T.tensor_to_bytes(a) + T.tensor_to_bytes(b)
        first, off = T.tensor_from_bytes(buf)
        second, end = T.tensor_from_bytes(buf, off)
        assert np.array_equal(first, a)
        assert np.array_equal(second, b)
        assert end == len(buf)

    def test_bad_magic_reports_offset(self):
        buf = b"XXXX" + T.tensor_to_bytes(np.zeros(1, dtype=np.float32))[4:]
        with pytest.raises(FormatError) as exc:
            T.tensor_from_bytes(buf)
        assert exc.value.offset == 0

    def test_truncated_payload_reports_offset(self):
        buf = T.tensor_to_bytes(np.zeros(4, dtype=np.float32))[:-4]
        with pytest.raises(FormatError) as exc:
            T.tensor_from_bytes(buf)
        assert exc.value.offset is not None

    def test_implausible_rank_rejected(self):
        buf = b"TNSR" + (200).to_bytes(4, "little") + b"\x00" * 64
        with pytest.raises(FormatError):
            T.tensor_from_bytes(buf)
