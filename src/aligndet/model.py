"""Backbone + head assembly into one trainable model.

The backbone is four stacked 3x3 convs (stride pattern 2,2,2,1) taking the
[S,S,3] image to a single stride-8 feature level at the head's width. No
feature pyramid: the synthetic objects live within one scale octave, so a
single level keeps the focus on the head and the assignment.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .assignment import ALPHA, BETA, TOP_M, AnchorGrid
from .errors import ConfigError, ShapeError
from .head import HeadConfig, head_forward, init_head_params
from .losses import GAMMA
from .scenes import SplitMix64
from .tensor import Tensor


@dataclass
class ModelConfig:
    # data / geometry
    image_size: int = 128
    num_classes: int = 3
    # backbone
    backbone_channels: tuple = (16, 32, 64, 64)
    backbone_strides: tuple = (2, 2, 2, 1)
    # head
    channels: int = 64
    num_layers: int = 6
    attention_ratio: int = 4
    align_channels: int = 8
    prior_prob: float = 0.01
    # assignment / losses
    alpha: float = ALPHA
    beta: float = BETA
    top_m: int = TOP_M
    gamma: float = GAMMA
    assigner: str = "aligned"          # "aligned" | "center"
    # optimization
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_steps: int = 50
    steps: int = 500
    batch_size: int = 8
    seed: int = 0

    @property
    def stride(self):
        s = 1
        for v in self.backbone_strides:
            s *= v
        return s

    def validate(self):
        if not self.backbone_channels or len(self.backbone_channels) != len(self.backbone_strides):
            raise ConfigError("backbone channels and strides differ in length or are empty")
        if self.backbone_channels[-1] != self.channels:
            raise ConfigError(
                f"backbone output width {self.backbone_channels[-1]} must match "
                f"head width {self.channels}"
            )
        if self.image_size % self.stride != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by stride {self.stride}"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError(f"alpha and beta must be positive ({self.alpha}, {self.beta})")
        if self.top_m < 1:
            raise ConfigError(f"top_m must be >= 1, got {self.top_m}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.assigner not in ("aligned", "center"):
            raise ConfigError(f"unknown assigner {self.assigner!r}")
        if self.batch_size < 1 or self.steps < 0:
            raise ConfigError("batch_size must be >= 1 and steps >= 0")
        self.head_config().validate()
        return self

    def head_config(self):
        return HeadConfig(
            channels=self.channels,
            num_layers=self.num_layers,
            num_classes=self.num_classes,
            attention_ratio=self.attention_ratio,
            align_channels=self.align_channels,
            prior_prob=self.prior_prob,
        )

    def grid(self):
        cells = self.image_size // self.stride
        return AnchorGrid(height=cells, width=cells, stride=self.stride)

    def to_json(self):
        d = asdict(self)
        d["backbone_channels"] = list(self.backbone_channels)
        d["backbone_strides"] = list(self.backbone_strides)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls(**checked_fields(d, asdict(cls()), "model config")).validate()


def _json_type_matches(value, default):
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_type_matches(v, 0) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def checked_fields(section, defaults, what):
    """A JSON config section as keyword arguments for the fields in ``defaults``.

    Each value must have its default's JSON type, except that an int may
    stand for a float and a list of ints for a tuple; a bool is never a number.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{what} must be a JSON object, got {json.dumps(section)}")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")
    for key, value in section.items():
        if not _json_type_matches(value, defaults[key]):
            raise ConfigError(f"{what}: {key!r} is {json.dumps(value)}, which does not have "
                              f"the type of its default {json.dumps(defaults[key])}")
    return {key: tuple(v) if isinstance(v, list) else v for key, v in section.items()}


def init_model_params(cfg):
    """All parameters (backbone then head) from one seeded stream."""
    cfg.validate()
    rng = SplitMix64(cfg.seed)
    params = {}
    cin = 3
    for i, (cout, _) in enumerate(zip(cfg.backbone_channels, cfg.backbone_strides)):
        std = math.sqrt(2.0 / (9 * cin))
        params[f"backbone.{i}.w"] = Tensor(
            (rng.normal((3, 3, cin, cout)) * std).astype(np.float32)
        )
        params[f"backbone.{i}.b"] = Tensor(np.zeros(cout, dtype=np.float32))
        cin = cout
    head = init_head_params(cfg.head_config(), seed=int(rng.raw(1)[0]))
    overlap = set(params) & set(head)
    if overlap:
        raise ConfigError(f"parameter name collision {sorted(overlap)}")
    params.update(head)
    return params


def backbone_forward(image, params, cfg):
    x = image
    for i, stride in enumerate(cfg.backbone_strides):
        x = T.relu(T.conv2d(x, params[f"backbone.{i}.w"], params[f"backbone.{i}.b"],
                            stride=stride, pad=1))
    return x


def build_model(cfg):
    """Returns (params, forward); forward maps an [S,S,3] image to HeadOutputs."""
    cfg.validate()
    params = init_model_params(cfg)
    head_cfg = cfg.head_config()

    def forward(image, params=params):
        # a plain array is a constant to conv2d, which then skips its gradient
        x = image if isinstance(image, Tensor) else np.asarray(image, dtype=np.float32)
        if len(x.shape) != 3 or x.shape[2] != 3:
            raise ShapeError(f"expected an [S,S,3] image, got {x.shape}")
        if x.shape[0] != cfg.image_size or x.shape[1] != cfg.image_size:
            raise ShapeError(
                f"image is {x.shape[0]}x{x.shape[1]}, config expects "
                f"{cfg.image_size}x{cfg.image_size}"
            )
        feat = backbone_forward(x, params, cfg)
        return head_forward(feat, params, head_cfg)

    return params, forward
