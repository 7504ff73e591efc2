"""Spans and counts recorded around aligndet's public functions.

The tracer wraps functions from outside the package: for each target it
replaces every reference that a module of the package holds to the
function (``from .x import f`` makes such copies) and puts the originals
back on ``uninstall``. A span is (name, start, end, parent) with
``perf_counter`` times, kept in memory and written out by ``write``. Self
time is a span's duration minus the durations of its direct children.

Ops whose gradient runs later (conv2d, concat, bilinear sampling) also get
their node's backward function wrapped, so backward time is a child span of
``tensor.backward``. conv2d calls are named by the parameter their weight
is (``backbone.0`` is the stem), which the wrapped ``build_model`` records.
``geometry.iou`` runs about 10^5 times per scene on an untrained model, so
it is counted, not spanned.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter, defaultdict

CONV_GROUPS = ("stem", "backbone", "inter", "reduce", "pred")


def conv_group(param_name):
    """Which reported conv instance a weight belongs to."""
    if param_name is None:
        return "other"
    if param_name == "backbone.0.w":
        return "stem"
    if param_name.startswith("backbone."):
        return "backbone"
    if param_name.startswith("inter."):
        return "inter"
    if param_name.endswith(".reduce.w"):
        return "reduce"
    if param_name.endswith(".pred.w"):
        return "pred"
    return "other"


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()
        self.conv_flops = Counter()  # (group, "fwd" | "bwd") -> flops
        self.gemm_shapes = Counter()  # forward (M, K, N) -> calls
        self._stack = []
        self._param_names = {}
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _time_backward(self, node, name):
        inner = node._backward_fn

        def backward_fn(g):
            self._open(name)
            try:
                inner(g)
            finally:
                self._close()

        node._backward_fn = backward_fn

    # -- installation --------------------------------------------------

    def _replace(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aligndet" or mod_name.startswith("aligndet.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        """Wrap every traced function of the aligndet modules already imported."""
        from aligndet import assignment, geometry, losses, metrics, model, scenes, tensor, train
        from aligndet.tensor import Tensor

        for mod, names in (
            (scenes, ("make_dataset", "write_dataset", "read_dataset")),
            (train, ("load_checkpoint", "save_checkpoint", "sgd_update", "train_step")),
            (losses, ("total_loss",)),
            (metrics, ("instance_pools", "alignment_analysis", "box_census",
                       "average_precision", "evaluate_dataset")),
        ):
            for name in names:
                fn = getattr(mod, name)
                self._replace(fn, self.timed(f"{mod.__name__.split('.')[-1]}.{name}", fn))
        self._replace(model.build_model, self._build_model(model.build_model))
        self._replace(assignment.assign, self._assign(assignment.assign))
        self._replace(metrics.detections_from_outputs,
                      self._detections(metrics.detections_from_outputs))
        self._replace(geometry.nms, self._nms(geometry.nms))
        self._replace(geometry.iou, self._count("geometry.iou_calls", geometry.iou))
        self._replace(tensor.conv2d, self._conv2d(tensor.conv2d))
        for name in ("concat", "bilinear_sample_per_channel"):
            self._replace(getattr(tensor, name), self._op_with_backward(
                f"tensor.{name}", getattr(tensor, name)))
        backward = Tensor.backward
        Tensor.backward = self._backward(backward)
        self._patched.append((Tensor, "backward", backward))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers with counts ------------------------------------------

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build_model(self, fn):
        timed = self.timed("model.build_model", fn)

        def wrapper(cfg):
            params, forward = timed(cfg)
            for name, p in params.items():
                self._param_names[id(p)] = name
            return params, self._forward(forward)

        return wrapper

    def _forward(self, fn):
        timed = self.timed("model.forward", fn)

        def wrapper(*args, **kwargs):
            self.counts["model.forward_calls"] += 1
            return timed(*args, **kwargs)

        return wrapper

    def _assign(self, fn):
        timed = self.timed("assignment.assign", fn)

        def wrapper(instances, grid, *args, **kwargs):
            out = timed(instances, grid, *args, **kwargs)
            self.counts["assignment.positives"] += int(out.is_positive.sum())
            self.counts["assignment.candidates"] += _centers_inside(instances, grid)
            return out

        return wrapper

    def _detections(self, fn):
        timed = self.timed("metrics.detections_from_outputs", fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.counts["metrics.detections_kept"] += len(out)
            return out

        return wrapper

    def _nms(self, fn):
        timed = self.timed("geometry.nms", fn)

        def wrapper(detections, *args, **kwargs):
            self.counts["metrics.candidates"] += len(detections)
            out = timed(detections, *args, **kwargs)
            self.counts["geometry.nms_kept"] += len(out)
            return out

        return wrapper

    def _conv2d(self, fn):
        def wrapper(x, weight, bias, stride=1, pad=0):
            group = conv_group(self._param_names.get(id(weight)))
            self._open(f"tensor.conv2d.{group}.fwd")
            try:
                out = fn(x, weight, bias, stride=stride, pad=pad)
            finally:
                self._close()
            k, _, cin, cout = weight.shape
            m = out.shape[0] * out.shape[1]
            flops = 2 * m * k * k * cin * cout
            self.conv_flops[(group, "fwd")] += flops
            self.conv_flops[(group, "bwd")] += 2 * flops
            self.gemm_shapes[(m, k * k * cin, cout)] += 1
            self._time_backward(out, f"tensor.conv2d.{group}.bwd")
            return out

        return wrapper

    def _op_with_backward(self, name, fn):
        def wrapper(*args, **kwargs):
            self._open(f"{name}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            self._time_backward(out, f"{name}.bwd")
            return out

        return wrapper

    def _backward(self, fn):
        def wrapper(node):
            self.counts["tensor.graph_nodes"] += _graph_size(node)
            self._open("tensor.backward")
            try:
                return fn(node)
            finally:
                self._close()

        return wrapper

    # -- results -------------------------------------------------------

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """Write every span as one CSV row: index, name, start, end, parent."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent])


def _centers_inside(instances, grid):
    """Anchor-instance pairs with the anchor center strictly inside the box."""
    import numpy as np

    if not instances:
        return 0
    xs = (np.arange(grid.width) + 0.5) * grid.stride
    ys = (np.arange(grid.height) + 0.5) * grid.stride
    total = 0
    for box, _ in instances:
        total += int(((xs > box.x1) & (xs < box.x2)).sum() * ((ys > box.y1) & (ys < box.y2)).sum())
    return total


def _graph_size(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)
