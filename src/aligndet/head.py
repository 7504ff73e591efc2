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
from .errors import ConfigError, ShapeError
from .scenes import SplitMix64
from .tensor import Tensor


@dataclass
class HeadConfig:
    channels: int = 64          # C
    num_layers: int = 6         # N
    num_classes: int = 3        # K
    attention_ratio: int = 4    # r
    align_channels: int = 8     # width of the M/O reduction convs
    prior_prob: float = 0.01    # initial positive rate for score logits

    def validate(self):
        if self.channels < 1 or self.num_layers < 1 or self.num_classes < 1:
            raise ConfigError(f"invalid head dimensions {self}")
        if self.channels % self.attention_ratio != 0:
            raise ConfigError(
                f"channels {self.channels} not divisible by attention ratio "
                f"{self.attention_ratio}"
            )
        if not 0.0 < self.prior_prob < 1.0:
            raise ConfigError(f"prior_prob must be in (0,1), got {self.prior_prob}")
        return self


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


def _he_conv(rng, k, cin, cout):
    std = math.sqrt(2.0 / (k * k * cin))
    return (rng.normal((k, k, cin, cout)) * std).astype(np.float32)


def _he_fc(rng, out_dim, in_dim):
    std = math.sqrt(2.0 / in_dim)
    return (rng.normal((out_dim, in_dim)) * std).astype(np.float32)


def init_head_params(cfg, seed=0):
    """Fresh head parameters from a seeded counter-based stream.

    Score-logit biases start at -log((1-pi)/pi) so initial scores sit near
    the prior; the M and O prediction layers start at zero so alignment
    begins as the identity (M = 0.5 everywhere, O = 0).
    """
    cfg.validate()
    rng = SplitMix64(seed)
    c, n, k = cfg.channels, cfg.num_layers, cfg.num_classes
    nc = n * c
    bottleneck = c // cfg.attention_ratio
    a = cfg.align_channels
    params = {}

    def add(name, arr):
        params[name] = Tensor(arr)

    for i in range(n):
        add(f"inter.{i}.w", _he_conv(rng, 3, c, c))
        add(f"inter.{i}.b", np.zeros(c, dtype=np.float32))
    for task in ("cls", "loc"):
        add(f"att.{task}.fc1.w", _he_fc(rng, bottleneck, nc))
        add(f"att.{task}.fc1.b", np.zeros(bottleneck, dtype=np.float32))
        add(f"att.{task}.fc2.w", _he_fc(rng, n, bottleneck))
        add(f"att.{task}.fc2.b", np.zeros(n, dtype=np.float32))
        add(f"tap.{task}.reduce.w", _he_conv(rng, 1, nc, c))
        add(f"tap.{task}.reduce.b", np.zeros(c, dtype=np.float32))
    add("tap.cls.pred.w", _he_conv(rng, 3, c, k))
    bias = -math.log((1.0 - cfg.prior_prob) / cfg.prior_prob)
    add("tap.cls.pred.b", np.full(k, bias, dtype=np.float32))
    add("tap.loc.pred.w", _he_conv(rng, 3, c, 4))
    add("tap.loc.pred.b", np.zeros(4, dtype=np.float32))
    add("m.reduce.w", _he_conv(rng, 1, nc, a))
    add("m.reduce.b", np.zeros(a, dtype=np.float32))
    add("m.pred.w", np.zeros((3, 3, a, 1), dtype=np.float32))
    add("m.pred.b", np.zeros(1, dtype=np.float32))
    add("o.reduce.w", _he_conv(rng, 1, nc, a))
    add("o.reduce.b", np.zeros(a, dtype=np.float32))
    add("o.pred.w", np.zeros((3, 3, a, 8), dtype=np.float32))
    add("o.pred.b", np.zeros(8, dtype=np.float32))
    return params


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
