"""The task-aligned detection head.

One shared stack of N interactive conv features feeds both tasks. Each task
turns the stack's channel means into one layer-attention gate per map,
reduces the gated stack (X^task_k = w_k * X^inter_k) and predicts:
classification scores P and box distances B; the 1x1 reduction takes the
gates into its weight, so every reduction reads one ungated stack. Two small
auxiliary branches then align the predictions spatially: a probability map M
sharpens P into P_align = sqrt(P * M), and an offset map O resamples each
distance channel of B at a learned nearby location to give B_align. Each of
these equations is one graph op, and each stage function takes the tensors
it reads, so the identity probes call them with M = 1, O = 0 or w = 1.

Parameters live in a flat dict of named tensors so the trainer and the
checkpoint format stay trivial. Shapes at a glance (C channels, N layers,
K classes, r attention ratio, A alignment width):

    inter.{k}.w        [3,3,C,C]      interactive stack
    att.{task}.fc1.w   [C/r, N*C]     attention bottleneck
    att.{task}.fc2.w   [N, C/r]
    tap.{task}.reduce.w [1,1,N*C,C]   task feature reduction
    tap.cls.pred.w     [3,3,C,K]      score logits
    tap.loc.pred.w     [3,3,C,4]      distance logits (exp -> stride units)
    m.reduce.w / m.pred.w   [1,1,N*C,A] / [3,3,A,1]
    o.reduce.w / o.pred.w   [1,1,N*C,A] / [3,3,A,8]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .scenes import SplitMix64
from .tensor import Tensor


@dataclass
class HeadOutputs:
    P: Tensor                   # [H,W,K] scores in [0,1]
    B: Tensor                   # [H,W,4] ltrb distances, stride units, > 0
    M: Tensor                   # [H,W,1] in [0,1]
    O: Tensor                   # [H,W,8] (row, col) offset per box side
    P_align: Tensor             # [H,W,K] = sqrt(P * M)
    B_align: Tensor             # [H,W,4] offset-resampled distances
    w_cls: Tensor               # [N] attention gates
    w_loc: Tensor
    inter: list = field(default_factory=list)      # N interactive maps


def draw_params(specs, rng):
    """Parameters for (name, shape, init) specs, drawn in order from ``rng``.

    init "conv" or "fc" draws He-normal weights, whose fan-in is every axis
    but the last of a conv weight [k,k,Cin,Cout] or the last axis of a
    linear weight [out,in]; a number fills the tensor with that constant.
    """
    params = {}
    for name, shape, init in specs:
        if isinstance(init, str):
            fan_in = shape[-1] if init == "fc" else math.prod(shape[:-1])
            arr = (rng.normal(shape) * math.sqrt(2.0 / fan_in)).astype(np.float32)
        else:
            arr = np.full(shape, init, dtype=np.float32)
        params[name] = Tensor(arr)
    return params


def head_param_specs(cfg):
    """(name, shape, init) of every head parameter of a ``ModelConfig``, in init order.

    Score-logit biases start at -log((1-pi)/pi) so initial scores sit near
    the prior; the M and O prediction layers start at zero so alignment
    begins as the identity (M = 0.5 everywhere, O = 0).
    """
    c, n, k, a = cfg.channels, cfg.num_layers, cfg.num_classes, cfg.align_channels
    nc, bottleneck = n * c, c // cfg.attention_ratio
    specs = []
    for i in range(n):
        specs += [(f"inter.{i}.w", (3, 3, c, c), "conv"), (f"inter.{i}.b", (c,), 0.0)]
    for task in ("cls", "loc"):
        specs += [
            (f"att.{task}.fc1.w", (bottleneck, nc), "fc"), (f"att.{task}.fc1.b", (bottleneck,), 0.0),
            (f"att.{task}.fc2.w", (n, bottleneck), "fc"), (f"att.{task}.fc2.b", (n,), 0.0),
            (f"tap.{task}.reduce.w", (1, 1, nc, c), "conv"), (f"tap.{task}.reduce.b", (c,), 0.0),
        ]
    prior = -math.log((1.0 - cfg.prior_prob) / cfg.prior_prob)
    return specs + [
        ("tap.cls.pred.w", (3, 3, c, k), "conv"), ("tap.cls.pred.b", (k,), prior),
        ("tap.loc.pred.w", (3, 3, c, 4), "conv"), ("tap.loc.pred.b", (4,), 0.0),
        ("m.reduce.w", (1, 1, nc, a), "conv"), ("m.reduce.b", (a,), 0.0),
        ("m.pred.w", (3, 3, a, 1), 0.0), ("m.pred.b", (1,), 0.0),
        ("o.reduce.w", (1, 1, nc, a), "conv"), ("o.reduce.b", (a,), 0.0),
        ("o.pred.w", (3, 3, a, 8), 0.0), ("o.pred.b", (8,), 0.0),
    ]


def init_head_params(cfg, seed=0):
    """Fresh head parameters for a ``ModelConfig`` from a seeded counter-based stream."""
    return draw_params(head_param_specs(cfg), SplitMix64(seed))


def count_params(params):
    return sum(int(np.prod(p.shape)) if p.shape else 1 for p in params.values())


def interactive_features(x, params, cfg):
    """N stacked 3x3 conv+relu maps; map k feeds map k+1."""
    if x.data.ndim != 3 or x.shape[2] != cfg.channels:
        raise ShapeError(
            f"head input must be [H,W,{cfg.channels}], got {x.shape}"
        )
    maps = []
    cur = x
    for i in range(cfg.num_layers):
        cur = T.relu(T.conv2d(cur, params[f"inter.{i}.w"], params[f"inter.{i}.b"], pad=1))
        maps.append(cur)
    return maps


def layer_attention(pooled, params, task):
    """Per-layer scalar gates w [N] from the stack's pooled channel means."""
    hidden = T.relu(T.linear(params[f"att.{task}.fc1.w"], params[f"att.{task}.fc1.b"], pooled))
    return T.sigmoid(T.linear(params[f"att.{task}.fc2.w"], params[f"att.{task}.fc2.b"], hidden))


def tap_predict(stack, w, params, task):
    """Reduce the stack, gates w folded into the weight, and predict: cls scores or loc distances.

    Localization output is exp(raw): positive distances in stride units,
    alive gradient near zero.
    """
    weight = T.gated_weight(params[f"tap.{task}.reduce.w"], w)
    reduced = T.relu(T.conv2d(stack, weight, params[f"tap.{task}.reduce.b"]))
    raw = T.conv2d(reduced, params[f"tap.{task}.pred.w"], params[f"tap.{task}.pred.b"], pad=1)
    if task == "cls":
        return T.sigmoid(raw)
    return T.exp(raw)


def alignment_maps(stack, params):
    """The probability map M [H,W,1] and the offset map O [H,W,8]."""
    reduced = T.relu(T.conv2d(stack, params["m.reduce.w"], params["m.reduce.b"]))
    M = T.sigmoid(T.conv2d(reduced, params["m.pred.w"], params["m.pred.b"], pad=1))
    reduced = T.relu(T.conv2d(stack, params["o.reduce.w"], params["o.reduce.b"]))
    O = T.conv2d(reduced, params["o.pred.w"], params["o.pred.b"], pad=1)
    return M, O


def align_classification(P, M):
    """The aligned score P_align = sqrt(P * M)."""
    return T.sqrt(T.mul(P, M))


def align_localization(B, O):
    """The resampled distances B_align.

    O holds (row, col) offset pairs, one per box side in ltrb order:
    B_align[i,j,c] samples B's channel c bilinearly at
    (i + O[i,j,2c], j + O[i,j,2c+1]). Sampling clamps to the map border.
    """
    return T.bilinear_sample_per_channel(B, O)


def head_forward(x, params, cfg):
    """Full head pass from the [H,W,C] feature map."""
    inter = interactive_features(x, params, cfg)
    stack = T.concat(inter)
    pooled = T.global_avg_pool(stack)
    w_cls = layer_attention(pooled, params, "cls")
    w_loc = layer_attention(pooled, params, "loc")
    P = tap_predict(stack, w_cls, params, "cls")
    B = tap_predict(stack, w_loc, params, "loc")
    M, O = alignment_maps(stack, params)
    return HeadOutputs(
        P=P, B=B, M=M, O=O,
        P_align=align_classification(P, M), B_align=align_localization(B, O),
        w_cls=w_cls, w_loc=w_loc, inter=inter,
    )
