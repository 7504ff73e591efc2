"""Training loop, optimizer, and checkpointing.

Every step: round-robin batch selection, per-image forward, a fresh label
assignment from the current predictions (held constant through backward),
loss, gradient accumulation in fixed image order, one SGD-with-momentum
update. On one numpy/BLAS build the whole run is a pure function of
(config, dataset): no wall clock and no random state outside the config
seed, so reruns produce bit-identical checkpoints. Across builds it is not:
the float32 matrix products sum in an order set by the BLAS kernel, so the
trajectory, and the AP of the trained model, depend on the kernel that the
host selects (OpenBLAS picks one per CPU; ``OPENBLAS_CORETYPE`` overrides it).
"""

from __future__ import annotations

import csv
import os
import shutil
import uuid
from dataclasses import dataclass, field

import numpy as np

from .assignment import assign, center_sampling_assign
from .errors import CheckpointError, TrainingError
from .losses import total_loss
from .model import ModelConfig, build_model
from .scenes import read_dataset
from .tensor import Tensor, tensor_from_bytes, tensor_to_bytes


@dataclass
class OptState:
    velocity: dict = field(default_factory=dict)
    step: int = 0


def learning_rate(cfg, step):
    """Linear warmup to cfg.lr over warmup_steps, then flat."""
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return cfg.lr * (step + 1) / cfg.warmup_steps
    return cfg.lr


def sgd_update(params, grads, state, cfg, lr):
    """v = mu*v + (g + wd*p); p -= lr*v. Order fixed by params order."""
    for name, p in params.items():
        g = grads[name] + cfg.weight_decay * p.data
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = cfg.momentum * v + g
        state.velocity[name] = v
        p.data = p.data - lr * v


def _assign_for(cfg, record, outputs):
    if cfg.assigner == "center":
        return center_sampling_assign(record.instances, cfg.grid())
    return assign(
        record.instances, cfg.grid(), outputs.P_align.data, outputs.B_align.data,
        m=cfg.top_m, alpha=cfg.alpha, beta=cfg.beta,
    )


def train_step(batch, params, forward, state, cfg):
    """One optimization step over a list of scene records."""
    if not batch:
        raise TrainingError("empty batch")
    for p in params.values():
        p.zero_grad()
    grid = cfg.grid()
    sums = {"cls_pos": 0.0, "cls_neg": 0.0, "reg": 0.0, "total": 0.0}
    for record in batch:
        outputs = forward(record.image)
        assignment = _assign_for(cfg, record, outputs)
        breakdown = total_loss(
            outputs.P_align, outputs.B_align, assignment, record.instances, grid,
            gamma=cfg.gamma,
        )
        for key, value in breakdown.values().items():
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at step {state.step} (scene seed {record.seed})",
                    component=key,
                )
            sums[key] += value
        breakdown.total.backward()
    n = len(batch)
    grads = {
        name: (p.grad / n if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    sgd_update(params, grads, state, cfg, learning_rate(cfg, state.step))
    state.step += 1
    return {key: value / n for key, value in sums.items()}


def train(cfg, dataset_path, out_dir, checkpoint_every=None, progress=None):
    """Full run: returns (params, history) and writes curve + checkpoint.

    ``out_dir`` receives loss_curve.csv and a final ``checkpoint``
    directory (plus ``checkpoint_step{N}`` snapshots when
    ``checkpoint_every`` is set). ``progress`` is an optional callable
    invoked as progress(step, losses_dict).
    """
    cfg.validate()
    records = read_dataset(dataset_path)
    if not records:
        raise TrainingError(f"dataset {dataset_path} holds no scenes")
    for rec in records:
        if rec.image.shape[0] != cfg.image_size:
            raise TrainingError(
                f"scene seed {rec.seed} is {rec.image.shape[0]}px, config expects "
                f"{cfg.image_size}px"
            )
    os.makedirs(out_dir, exist_ok=True)
    params, forward = build_model(cfg)
    state = OptState()
    history = []
    curve_path = os.path.join(out_dir, "loss_curve.csv")
    with open(curve_path, "w", newline="") as curve:
        writer = csv.writer(curve)
        writer.writerow(["step", "cls_pos", "cls_neg", "reg", "total"])
        for step in range(cfg.steps):
            batch = [
                records[(step * cfg.batch_size + k) % len(records)]
                for k in range(cfg.batch_size)
            ]
            losses = train_step(batch, params, forward, state, cfg)
            history.append(losses)
            writer.writerow(
                [step] + [f"{losses[k]:.8g}" for k in ("cls_pos", "cls_neg", "reg", "total")]
            )
            if checkpoint_every and (step + 1) % checkpoint_every == 0 and step + 1 < cfg.steps:
                save_checkpoint(
                    params, os.path.join(out_dir, f"checkpoint_step{step + 1}"),
                    step=step + 1, config=cfg,
                )
            if progress is not None:
                progress(step, losses)
    save_checkpoint(params, os.path.join(out_dir, "checkpoint"), step=cfg.steps, config=cfg)
    return params, history


# -- checkpointing -------------------------------------------------------

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.bin"


def save_checkpoint(params, path, step=0, config=None):
    """Write a checkpoint directory: text manifest + concatenated tensors.

    The files are written into a fresh directory beside ``path``, which is
    then renamed into place; an existing checkpoint at ``path`` is first
    renamed aside and removed once the new one is in. An exception while
    writing leaves the old checkpoint untouched and no temporary directory
    behind. A process killed between the two renames leaves no directory at
    ``path`` and the old checkpoint under a ``.old-`` name beside it, never
    a partly written checkpoint at ``path``.
    """
    path = os.path.abspath(path)
    parent, base = os.path.split(path)
    os.makedirs(parent, exist_ok=True)
    staging = os.path.join(parent, f".{base}.tmp-{uuid.uuid4().hex}")
    os.mkdir(staging)
    aside = None
    try:
        _write_checkpoint_files(params, staging, step, config)
        if os.path.isdir(path):
            aside = os.path.join(parent, f".{base}.old-{uuid.uuid4().hex}")
            os.rename(path, aside)
        os.rename(staging, path)
    except BaseException:
        if aside is not None and not os.path.exists(path):
            os.rename(aside, path)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if aside is not None:
        shutil.rmtree(aside)


def _write_checkpoint_files(params, path, step, config):
    lines = [f"step {int(step)}"]
    if config is not None:
        lines.append("config " + (config.to_json() if isinstance(config, ModelConfig) else str(config)))
    offset = 0
    with open(os.path.join(path, PAYLOAD_NAME), "wb") as f:
        for name, p in params.items():
            blob = tensor_to_bytes(p.data)
            dims = ",".join(str(d) for d in p.shape) if p.shape else "scalar"
            lines.append(f"param {name} {dims} {offset}")
            f.write(blob)
            offset += len(blob)
    with open(os.path.join(path, MANIFEST_NAME), "w") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Read a checkpoint directory back; returns (params, step, config_json).

    Every manifest entry is validated against the payload: declared shapes
    must match the stored tensors, offsets must tile the payload exactly.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    payload_path = os.path.join(path, PAYLOAD_NAME)
    if not os.path.exists(manifest_path) or not os.path.exists(payload_path):
        raise CheckpointError(f"{path} is not a checkpoint directory")
    with open(manifest_path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    with open(payload_path, "rb") as f:
        payload = f.read()
    step = 0
    config_json = None
    entries = []
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind not in ("step", "config", "param"):
            raise CheckpointError(f"unknown manifest entry: {line!r}")
        try:
            if kind == "step":
                step = int(rest)
            elif kind == "config":
                config_json = rest
            else:
                name, dims, offset = rest.rsplit(" ", 2)
                shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
                entries.append((name, shape, int(offset)))
        except ValueError:
            raise CheckpointError(f"malformed manifest line: {line!r}") from None
    params = {}
    cursor = 0
    for name, shape, offset in entries:
        if name in params:
            raise CheckpointError(f"duplicate parameter {name!r} in manifest")
        if offset != cursor:
            raise CheckpointError(
                f"parameter {name!r} declared at offset {offset}, payload is at {cursor}"
            )
        try:
            data, cursor = tensor_from_bytes(payload, offset)
        except Exception as exc:
            raise CheckpointError(f"parameter {name!r}: {exc}") from None
        if data.shape != shape:
            raise CheckpointError(
                f"parameter {name!r} declares shape {shape} but payload holds "
                f"{data.shape}"
            )
        params[name] = Tensor(data)
    if cursor != len(payload):
        raise CheckpointError(
            f"{len(payload) - cursor} unaccounted payload bytes after last parameter"
        )
    return params, step, config_json


def adopt_params(model_params, loaded_params):
    """Copy loaded values into a model's parameter dict, names must match."""
    missing = sorted(set(model_params) - set(loaded_params))
    extra = sorted(set(loaded_params) - set(model_params))
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    for name, p in model_params.items():
        if loaded_params[name].data.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name!r}: checkpoint shape {loaded_params[name].data.shape} "
                f"!= model shape {p.data.shape}"
            )
        p.data = loaded_params[name].data.astype(p.data.dtype)
    return model_params
