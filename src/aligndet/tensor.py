"""Dense tensors with reverse-mode gradients.

The op set is deliberately small: exactly what the detection head, its
losses, and the training loop need. Tensors wrap a numpy array (float32 on
the training path, float64 on the gradient-check path) and record the
operation that produced them, so calling :meth:`Tensor.backward` on a scalar
output fills ``grad`` on every reachable leaf.

All forward ops are deterministic (fixed numpy reduction order), and every
op keeps finite inputs finite: ``sqrt`` and the two logs of ``focal_bce``
clamp their arguments away from zero rather than emitting inf/NaN.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, GraphError, NumericError, ShapeError

# sqrt inputs are clamped here so the gradient of sqrt(P*M) stays bounded
# as the product approaches zero.
SQRT_EPS = 1e-9
# focal_bce's log inputs are clamped so BCE on saturated float32 probabilities
# stays finite.
LOG_EPS = 1e-12

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense array node in a differentiable graph.

    ``data`` is a numpy array (float32 or float64, row-major). Tensors are
    treated as immutable values after construction; ops return new tensors
    and never mutate their operands.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn", "__weakref__")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode gradient pass from a scalar output.

        Accumulates into ``grad`` on every node of the graph, leaves
        included. Node visitation follows a deterministic topological order.
        """
        if self.data.shape != ():
            raise GraphError(
                f"backward requires a scalar output, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _lift(x, dtype):
    """Wrap a scalar/array as a constant Tensor of the given dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data, parents, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = tuple(parents)
    out._backward_fn = backward_fn
    return out


def _accum(t, g):
    """Add ``g`` into ``t.grad``. A first ``g`` is stored without a copy, so
    it must be an array the op has just allocated and nothing else holds;
    an op that passes ``g``, or a view of it, through calls _accum_shared."""
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _accum_shared(t, g):
    """_accum for a ``g`` that other tensors or the caller still hold."""
    _accum(t, np.array(g, dtype=t.data.dtype) if t.grad is None else g)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b):
    a = _lift(a, np.float32)
    b = _lift(b, a.dtype)
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")
    data = a.data + b.data

    def backward_fn(g):
        _accum_shared(a, g if a.shape == data.shape else g.sum())
        _accum_shared(b, g if b.shape == data.shape else g.sum())

    return _node(data, (a, b), backward_fn)


def mul(a, b):
    """Elementwise product.

    Shapes must match, or one side is a scalar, or the sides differ only in
    a trailing axis of size 1 (e.g. an [H,W,1] map scaling an [H,W,K] map).
    """
    a = _lift(a, np.float32)
    b = _lift(b, a.dtype)
    sa, sb = a.shape, b.shape
    if not _mul_conforms(sa, sb):
        raise ShapeError(f"mul: shapes {sa} and {sb} do not conform")
    data = a.data * b.data

    def backward_fn(g):
        _accum(a, _reduce_to(g * b.data, sa))
        _accum(b, _reduce_to(g * a.data, sb))

    return _node(data, (a, b), backward_fn)


def _mul_conforms(sa, sb):
    if sa == sb or sa == () or sb == ():
        return True
    if len(sa) == len(sb) and sa[:-1] == sb[:-1] and 1 in (sa[-1], sb[-1]):
        return True
    return False


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    # trailing-axis broadcast
    return g.sum(axis=-1, keepdims=True)


def exp(a):
    a = _lift(a, np.float32)
    data = np.exp(a.data)

    def backward_fn(g):
        _accum(a, g * data)

    return _node(data, (a,), backward_fn)


def sqrt(a):
    """Square root; the argument is clamped to >= SQRT_EPS."""
    a = _lift(a, np.float32)
    clamped = np.maximum(a.data, SQRT_EPS)
    data = np.sqrt(clamped)

    def backward_fn(g):
        _accum(a, np.where(a.data >= SQRT_EPS, g / (2.0 * data), 0.0))

    return _node(data, (a,), backward_fn)


def relu(a):
    a = _lift(a, np.float32)
    data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        _accum(a, g * (a.data > 0))

    return _node(data, (a,), backward_fn)


def sigmoid(a):
    a = _lift(a, np.float32)
    x = a.data
    # branch on sign to avoid exp overflow on large negatives
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    data = data.astype(x.dtype, copy=False)

    def backward_fn(g):
        _accum(a, g * data * (1.0 - data))

    return _node(data, (a,), backward_fn)


def tensor_sum(a):
    """Sum of all elements, as a scalar tensor."""
    a = _lift(a, np.float32)
    data = np.asarray(a.data.sum(), dtype=a.dtype)

    def backward_fn(g):
        _accum(a, np.full(a.shape, g, dtype=a.dtype))

    return _node(data, (a,), backward_fn)


# -- fused losses --------------------------------------------------------
#
# Each loss is one node per term. Its backward is the chain rule of the
# elementwise graph it stands for, written factor by factor in that graph's
# order and summed in the order that graph accumulated, so it rounds as
# that graph did.


def _power_slope(a, c):
    """d/da a**c; 0 where that is not finite (a == 0 with c < 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = c * np.power(a, c - 1.0)
    return np.where(np.isfinite(d), d, 0.0)


def focal_bce(scores, target, pos_mask, gamma, norm):
    """Soft-label focal BCE over a score map, as (positive, negative) terms.

    ``target`` holds the soft label at positive entries and 0 elsewhere;
    ``pos_mask`` is 1 at positive entries and 0 elsewhere. Both are
    constants shaped like ``scores``. With
    BCE(s, t) = -(t log s + (1 - t) log(1 - s)):

        pos = norm * sum(pos_mask * |t - s|^gamma * BCE(s, t))
        neg = norm * sum((1 - pos_mask) * s^gamma * -log(1 - s))

    Both logs clamp their argument to >= LOG_EPS and pass no gradient where
    they clamp. |t - s|^gamma takes its slope with sign(0) = 0.
    """
    s = _lift(scores, np.float32)
    x = s.data
    dtype = x.dtype
    target = np.asarray(target, dtype=dtype)
    pos_mask = np.asarray(pos_mask, dtype=dtype)
    if target.shape != x.shape or pos_mask.shape != x.shape:
        raise ShapeError(
            f"focal_bce: target {target.shape} and mask {pos_mask.shape} "
            f"do not match scores {x.shape}"
        )
    neg_mask = 1.0 - pos_mask
    norm = np.asarray(norm, dtype=dtype)
    c = float(gamma)
    clamped_s = np.maximum(x, LOG_EPS)
    one_minus_s = 1.0 - x
    clamped_1ms = np.maximum(one_minus_s, LOG_EPS)
    log_1ms = np.log(clamped_1ms)
    one_minus_t = 1.0 - target
    bce = 0.0 - (target * np.log(clamped_s) + one_minus_t * log_1ms)
    diff = target - x
    focal = np.power(np.abs(diff), c)
    s_pow = np.power(x, c)
    neg_log_1ms = 0.0 - log_1ms

    def through_log_1ms(g):
        return -np.where(one_minus_s >= LOG_EPS, g / clamped_1ms, 0.0)

    def pos_backward(g):
        g_in = (g * norm) * pos_mask
        g_log = -(g_in * focal)
        via_log_s = np.where(x >= LOG_EPS, (g_log * target) / clamped_s, 0.0)
        via_focal = -(((g_in * bce) * _power_slope(np.abs(diff), c)) * np.sign(diff))
        _accum(s, (via_log_s + via_focal) + through_log_1ms(g_log * one_minus_t))

    def neg_backward(g):
        g_in = (g * norm) * neg_mask
        via_pow = (g_in * neg_log_1ms) * _power_slope(x, c)
        _accum(s, through_log_1ms(-(g_in * s_pow)) + via_pow)

    pos = _node((pos_mask * (focal * bce)).sum() * norm, (s,), pos_backward)
    neg = _node((neg_mask * (s_pow * neg_log_1ms)).sum() * norm, (s,), neg_backward)
    return pos, neg


def giou_loss(dist_map, rows, centers, gt, weights, stride, norm):
    """t_hat-weighted GIoU loss of boxes decoded from an [H,W,4] distance map.

    Row p of the loss reads position ``rows[p]`` (row-major i*W + j) of the
    map, whose (l, t, r, b) distances, times ``stride``, span the box
    (cx - l, cy - t, cx + r, cy + b) around ``centers[p]`` = (cx, cy). Returns
    norm * sum_p weights[p] * (1 - GIoU(box_p, gt[p])).

    Subgradients: an overlap of zero width or height passes no gradient
    through the intersection, and a predicted edge that ties its target
    edge takes the gradient of both the intersection and the hull.
    """
    m = _lift(dist_map, np.float32)
    dtype = m.dtype
    if m.data.ndim != 3 or m.shape[-1] != 4:
        raise ShapeError(f"giou_loss expects an [H,W,4] distance map, got {m.shape}")
    h, w, _ = m.shape
    idx = np.asarray(rows, dtype=np.int64)
    centers = np.asarray(centers, dtype=dtype)
    g = np.asarray(gt, dtype=dtype)
    weights = np.asarray(weights, dtype=dtype)
    n = idx.shape[0]
    if centers.shape != (n, 2) or g.shape != (n, 4) or weights.shape != (n,):
        raise ShapeError(
            f"giou_loss: {n} rows but centers {centers.shape}, gt {g.shape}, "
            f"weights {weights.shape}"
        )
    stride = np.asarray(stride, dtype=dtype)
    norm = np.asarray(norm, dtype=dtype)
    scaled = m.data.reshape(h * w, 4)[idx] * stride
    cx, cy = centers[:, 0], centers[:, 1]
    x1, y1 = cx - scaled[:, 0], cy - scaled[:, 1]
    x2, y2 = cx + scaled[:, 2], cy + scaled[:, 3]
    gx1, gy1, gx2, gy2 = g[:, 0], g[:, 1], g[:, 2], g[:, 3]

    # intersection edges: ties take the prediction
    in_x1, in_y1 = x1 >= gx1, y1 >= gy1
    in_x2, in_y2 = x2 <= gx2, y2 <= gy2
    dw = np.where(in_x2, x2, gx2) - np.where(in_x1, x1, gx1)
    dh = np.where(in_y2, y2, gy2) - np.where(in_y1, y1, gy1)
    iw, ih = np.maximum(dw, 0.0), np.maximum(dh, 0.0)
    inter = iw * ih
    wp, hp = x2 - x1, y2 - y1
    union = (wp * hp + (gx2 - gx1) * (gy2 - gy1)) - inter
    # hull edges: ties take the prediction
    out_x1, out_y1 = x1 <= gx1, y1 <= gy1
    out_x2, out_y2 = x2 >= gx2, y2 >= gy2
    hw = np.where(out_x2, x2, gx2) - np.where(out_x1, x1, gx1)
    hh = np.where(out_y2, y2, gy2) - np.where(out_y1, y1, gy1)
    hull = hw * hh
    spare = hull - union
    giou = inter / union - spare / hull

    def backward_fn(g_out):
        g_w = (g_out * norm) * weights          # minus d loss / d giou
        g_spare = g_w / hull
        g_hull = ((-g_w) * spare) / (hull * hull) + g_spare
        g_union = (g_w * inter) / (union * union) - g_spare
        g_inter = -(g_w / union) - g_union
        g_hw, g_hh = g_hull * hh, g_hull * hw
        g_dw, g_dh = (g_inter * ih) * (dw > 0), (g_inter * iw) * (dh > 0)
        g_wp, g_hp = g_union * hp, g_union * wp
        # d loss / d(l, t, r, b) per stride: overlap, own size, then hull
        g_l = (g_dw * in_x1 + g_wp) + g_hw * out_x1
        g_t = (g_dh * in_y1 + g_hp) + g_hh * out_y1
        g_r = (g_dw * in_x2 + g_wp) + g_hw * out_x2
        g_b = (g_dh * in_y2 + g_hp) + g_hh * out_y2
        full = np.zeros((h * w, 4), dtype=dtype)
        np.add.at(full, idx, np.stack([g_l, g_t, g_r, g_b], axis=1) * stride)
        _accum(m, full.reshape(h, w, 4))

    return _node((weights * (1.0 - giou)).sum() * norm, (m,), backward_fn)


# -- structural ops ------------------------------------------------------


def concat(tensors):
    """Concatenate along the channel (last) axis."""
    tensors = [_lift(t, np.float32) for t in tensors]
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(base) or t.shape[:-1] != base[:-1]:
            raise ShapeError(f"concat: shape {t.shape} does not conform with {base}")
    data = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([0] + [t.shape[-1] for t in tensors])

    def backward_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accum_shared(t, g[..., lo:hi])

    return _node(data, tensors, backward_fn)


def global_avg_pool(a):
    """[H,W,C] -> [C]: the spatial mean of each channel."""
    a = _lift(a, np.float32)
    if a.data.ndim != 3:
        raise ShapeError(f"global_avg_pool expects an [H,W,C] map, got {a.shape}")
    h, w, _ = a.shape
    data = a.data.mean(axis=(0, 1))

    def backward_fn(g):
        _accum_shared(a, np.broadcast_to(g / (h * w), a.shape))

    return _node(data, (a,), backward_fn)


def gated_weight(weight, w):
    """A 1x1 conv weight [1,1,N*C,Cout] with input block k scaled by w[k].

    Convolving concat(maps) with it is convolving concat(maps[k] * w[k])
    with ``weight``, up to rounding; w = 1 gives ``weight`` bit for bit.
    Block k of the weight gets g_k * w[k] and w[k] gets sum(g_k * weight_k).
    """
    weight = _lift(weight, np.float32)
    w = _lift(w, weight.dtype)
    n = w.shape[0] if w.data.ndim == 1 else 0
    if weight.data.ndim != 4 or weight.shape[:2] != (1, 1) or n == 0 or weight.shape[2] % n:
        raise ShapeError(
            f"gated_weight: weight {weight.shape} is not [1,1,N*C,Cout] for gates {w.shape}"
        )
    blocks = weight.data.reshape(n, -1)
    data = (blocks * w.data[:, None]).reshape(weight.shape)

    def backward_fn(g):
        g_blocks = g.reshape(n, -1)
        _accum(weight, (g_blocks * w.data[:, None]).reshape(weight.shape))
        _accum(w, (g_blocks * blocks).sum(axis=1))

    return _node(data, (weight, w), backward_fn)


def linear(weight, bias, x):
    """Matrix-vector product with bias: weight[out,in] @ x[in] + bias[out]."""
    weight = _lift(weight, np.float32)
    bias = _lift(bias, weight.dtype)
    x = _lift(x, weight.dtype)
    if x.data.ndim != 1 or weight.data.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ShapeError(
            f"linear: weight {weight.shape} does not conform with input {x.shape}"
        )
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias {bias.shape} does not match out dim {weight.shape[0]}")
    data = weight.data @ x.data + bias.data

    def backward_fn(g):
        _accum(weight, np.outer(g, x.data))
        _accum_shared(bias, g)
        _accum(x, weight.data.T @ g)

    return _node(data, (weight, bias, x), backward_fn)


# -- convolution ---------------------------------------------------------


def _im2col(data, k, stride, pad, h_out, w_out):
    """The [h_out*w_out, k*k*Cin] patch matrix of an [H,W,Cin] map: the map
    itself for a 1x1 stride-1 unpadded conv, else a copy of a strided view of
    the zero-padded map (a reshaped view can keep overlapping rows, which
    BLAS cannot take)."""
    h, w_in, cin = data.shape
    if k == 1 and stride == 1 and pad == 0:
        return np.ascontiguousarray(data).reshape(h * w_in, cin)
    padded = np.zeros((h + 2 * pad, w_in + 2 * pad, cin), dtype=data.dtype)
    padded[pad:pad + h, pad:pad + w_in] = data
    s0, s1, s2 = padded.strides
    windows = np.ndarray((h_out, w_out, k, k, cin), dtype=data.dtype, buffer=padded,
                         strides=(s0 * stride, s1 * stride, s0, s1, s2))
    return np.ascontiguousarray(windows).reshape(h_out * w_out, k * k * cin)


def _col2im(dcols, shape, k, stride, pad, h_out, w_out):
    """Scatter a patch-matrix gradient [h_out*w_out, k*k*Cin] onto the [H,W,Cin]
    map through parity planes ``pw`` columns wide (see conv2d): tap (ki, kj)
    adds at offset (ki//stride)*pw + kj//stride of its flattened plane."""
    h, w_in, cin = shape
    s = stride
    ph, pw = -(-(h + 2 * pad) // s), -(-(w_in + 2 * pad) // s)
    taps = dcols.reshape(h_out, w_out, k * k, cin)
    widened = np.zeros((h_out, pw, cin), dtype=dcols.dtype)
    rows = (h_out - 1) * pw + w_out
    flat = widened.reshape(h_out * pw, cin)[:rows]
    planes = np.zeros((s, s, ph * pw, cin), dtype=dcols.dtype)
    for ki in range(k):
        for kj in range(k):
            widened[:, :w_out] = taps[:, :, ki * k + kj]
            at = (ki // s) * pw + kj // s
            planes[ki % s, kj % s, at:at + rows] += flat
    del taps, dcols
    gpad = planes.reshape(s, s, ph, pw, cin).transpose(2, 0, 3, 1, 4).reshape(ph * s, pw * s, cin)
    return gpad[pad:pad + h, pad:pad + w_in]


def conv2d(x, weight, bias, stride=1, pad=0):
    """2-D cross-correlation on an [H,W,Cin] map.

    weight is [k,k,Cin,Cout] with k odd, bias is [Cout]. Output spatial size
    is floor((H + 2*pad - k)/stride) + 1. Implemented as im2col + matmul
    (_im2col). The node keeps only its input, whose data the graph holds
    anyway: backward builds the patch matrix again for the weight-gradient
    GEMM. It scatters the patch gradient (_col2im) into stride**2 parity
    planes of the padded input, plane (a, b) holding rows a + stride*r and
    columns b + stride*c. With its rows widened by zeros to the plane's
    width, tap (ki, kj) is one contiguous add into plane (ki % stride,
    kj % stride). The taps add in (ki, kj) order, so each element sums the
    same values in the same order as one strided add per tap would, plus
    adds of +0.0, which change no value and no sign of zero.

    An ``x`` that is not a Tensor (a plain array, such as the image) is a
    constant: no gradient is computed for it, which skips the input-gradient
    GEMM and col2im. Pass a Tensor to get ``x.grad``.
    """
    x_is_const = not isinstance(x, Tensor)
    x = _lift(x, np.float32)
    weight = _lift(weight, x.dtype)
    bias = _lift(bias, x.dtype)
    if x.data.ndim != 3 or weight.data.ndim != 4:
        raise ShapeError(
            f"conv2d: expected [H,W,Cin] input and [k,k,Cin,Cout] weight, "
            f"got {x.shape} and {weight.shape}"
        )
    k = weight.shape[0]
    if weight.shape[1] != k:
        raise ShapeError(f"conv2d: kernel must be square, got {weight.shape[:2]}")
    if k % 2 == 0:
        raise ShapeError(f"conv2d: kernel size must be odd, got {k}")
    cin, cout = weight.shape[2], weight.shape[3]
    if x.shape[2] != cin:
        raise ShapeError(
            f"conv2d: input has {x.shape[2]} channels but weight expects {cin}"
        )
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} does not match Cout {cout}")
    h, w_in = x.shape[0], x.shape[1]
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w_in + 2 * pad - k) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(f"conv2d: output would be empty for input {x.shape} with k={k}")

    pointwise = k == 1 and stride == 1 and pad == 0
    w_mat = weight.data.reshape(k * k * cin, cout)
    data = _im2col(x.data, k, stride, pad, h_out, w_out) @ w_mat
    data += bias.data
    data = data.reshape(h_out, w_out, cout)

    def backward_fn(g):
        g_mat = g.reshape(h_out * w_out, cout)
        _accum(bias, g_mat.sum(axis=0))
        patches = _im2col(x.data, k, stride, pad, h_out, w_out)
        _accum(weight, (patches.T @ g_mat).reshape(weight.shape))
        del patches
        if x_is_const:
            return
        if pointwise:
            _accum(x, (g_mat @ w_mat.T).reshape(h, w_in, cin))
        else:
            # _col2im drops the patch gradient once it has scattered it
            _accum(x, _col2im(g_mat @ w_mat.T, x.shape, k, stride, pad, h_out, w_out))

    return _node(data, (x, weight, bias), backward_fn)


# -- bilinear sampling ---------------------------------------------------


def _corner_setup(coord, size):
    """Clamp a coordinate array to [0, size-1] and return interp pieces."""
    c = np.clip(coord, 0.0, size - 1.0)
    lo = np.floor(c).astype(np.int64)
    lo = np.minimum(lo, size - 2) if size > 1 else np.zeros_like(lo)
    hi = np.minimum(lo + 1, size - 1)
    frac = c - lo
    in_range = (coord > 0.0) & (coord < size - 1.0)
    return lo, hi, frac, in_range


def bilinear_sample_per_channel(feature_map, offsets):
    """Per-channel sampling of an [H,W,C] map at offsets from each cell.

    ``offsets`` is an [H,W,2C] tensor of (row, col) pairs; output[i,j,c]
    interpolates channel c at (i + offsets[i,j,2c], j + offsets[i,j,2c+1]).
    Each coordinate is clamped to [0, H-1] (rows) or [0, W-1] (cols) before
    interpolation, so out-of-range samples reduce to the border value along
    that axis.

    Gradients: the map receives each output's gradient at its four corners,
    scaled by the bilinear weights (corners shared by several samples
    accumulate). An offset receives the slope of the interpolated surface
    along its axis, taken in the cell it falls in; the slope is zero where
    the coordinate was clamped, that is at or beyond either border.

    A NaN or infinite offset names no cell and raises ``NumericError``.
    """
    feature_map = _lift(feature_map, np.float32)
    offsets = _lift(offsets, feature_map.dtype)
    if feature_map.data.ndim != 3:
        raise ShapeError(f"expected an [H,W,C] map, got {feature_map.shape}")
    h, w, c = feature_map.shape
    if offsets.shape != (h, w, 2 * c):
        raise ShapeError(f"offsets {offsets.shape} do not fit map {feature_map.shape}")
    if not np.isfinite(offsets.data).all():
        raise NumericError("non-finite sampling offsets")
    ii, jj = np.mgrid[0:h, 0:w].astype(offsets.dtype)
    rows = offsets.data[..., 0::2] + ii[:, :, None]
    cols = offsets.data[..., 1::2] + jj[:, :, None]
    i0, i1, di, i_in = _corner_setup(rows, h)
    j0, j1, dj, j_in = _corner_setup(cols, w)
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
        # summed into zeros, so a clamped sample's -0.0 slope is stored as +0.0
        go = np.zeros(offsets.shape, dtype=offsets.dtype)
        go[..., 0::2] += (g * gdi * i_in).astype(offsets.dtype)
        go[..., 1::2] += (g * gdj * j_in).astype(offsets.dtype)
        _accum(offsets, go)

    return _node(data, (feature_map, offsets), backward_fn)


# -- gradient checking ---------------------------------------------------


def grad_check(build, params, eps=1e-4, coords_per_param=None, seed=0):
    """Compare analytic gradients against central finite differences.

    ``build`` maps a dict of parameter tensors to a scalar output tensor and
    must be a pure function of those tensors. The check re-executes the graph
    in float64 so rounding noise stays well below the comparison tolerance.

    ``coords_per_param`` limits the check to that many randomly chosen
    coordinates per parameter (seeded, deterministic); by default every
    coordinate is checked. Returns the worst relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6).
    """
    params64 = {
        name: Tensor(p.data.astype(np.float64))
        for name, p in params.items()
    }
    out = build(params64)
    if out.data.shape != ():
        raise GraphError(f"grad_check requires a scalar output, got shape {out.data.shape}")
    out.backward()
    analytic = {
        name: (p.grad if p.grad is not None else np.zeros(p.shape, dtype=np.float64))
        for name, p in params64.items()
    }

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params64.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if coords_per_param is not None and n > coords_per_param:
            coords = np.sort(rng.choice(n, size=coords_per_param, replace=False))
        else:
            coords = np.arange(n)
        aflat = analytic[name].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = float(build(params64).data)
            flat[idx] = orig - eps
            f_minus = float(build(params64).data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(aflat[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > worst:
                worst = rel
    return worst


# -- serialization -------------------------------------------------------

TENSOR_MAGIC = b"TNSR"


def tensor_to_bytes(arr):
    """Serialize an array: magic, u32 rank, u32 dims, f32 payload (LE)."""
    arr = np.asarray(arr, dtype=np.float32)
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype("<f4").tobytes(order="C")


def tensor_from_bytes(buf, offset=0):
    """Parse one serialized tensor; returns (float32 array, next offset)."""
    start = offset
    if len(buf) < offset + 8:
        raise FormatError("truncated tensor header", offset=start)
    if buf[offset:offset + 4] != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {buf[offset:offset + 4]!r}", offset=start)
    offset += 4
    (rank,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    if rank > 8:
        raise FormatError(f"implausible tensor rank {rank}", offset=start + 4)
    if len(buf) < offset + 4 * rank:
        raise FormatError("truncated tensor dims", offset=offset)
    dims = struct.unpack_from(f"<{rank}I", buf, offset)
    offset += 4 * rank
    count = 1
    for d in dims:
        count *= d
    nbytes = 4 * count
    if len(buf) < offset + nbytes:
        raise FormatError(
            f"truncated tensor payload (need {nbytes} bytes)", offset=offset
        )
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
    offset += nbytes
    return data.reshape(dims).astype(np.float32), offset
