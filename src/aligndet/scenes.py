"""Deterministic synthetic detection scenes and the dataset file format.

Scenes are colored geometric shapes (disk, square, right triangle) on a
noisy gray background. Every random draw comes from an explicit 64-bit
counter-based generator keyed by the scene seed, so the same (seed, config)
pair renders bit-identical images on any platform. Ground-truth boxes are
tight bounds of the rendered shape masks.

Triangles are the interesting class: their tight box center sits well away
from their center of mass, so the image evidence that identifies the class
is not the evidence that localizes the box.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import uuid
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .geometry import Box, instance_arrays
from .tensor import _tensor_layout, tensor_to_bytes

CLASS_NAMES = ("disk", "square", "triangle")

# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _mix(z):
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX_A
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX_B
    z = z ^ (z >> np.uint64(31))
    return z


class SplitMix64:
    """Counter-based 64-bit generator (splitmix64 over an advancing counter).

    Output k of stream ``seed`` is mix(seed + (k+1) * golden_gamma); the
    instance only tracks how many outputs were consumed. No global state,
    no platform-default randomness.
    """

    def __init__(self, seed):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def raw(self, n):
        ks = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix(self.seed + ks * _GOLDEN)

    def uniform(self, shape=None):
        """Floats in [0, 1) with 53-bit resolution."""
        if shape is None:
            return float(self.raw(1)[0] >> np.uint64(11)) * 2.0 ** -53
        shape = tuple(np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
        n = int(np.prod(shape)) if shape else 1
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return u.reshape(shape)

    def randint(self, lo, hi):
        """Integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        v = int(lo + self.uniform() * (hi - lo))
        return min(v, hi - 1)

    def normal(self, shape):
        """Standard normals via Box-Muller; consumes two uniforms each."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        u1 = np.maximum(self.uniform((n,)), 2.0 ** -53)
        u2 = self.uniform((n,))
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return z.reshape(shape)


@dataclass
class DatasetConfig:
    image_size: int = 128
    num_classes: int = 3
    max_per_scene: int = 4
    occlusion_allowed: bool = False
    noise_sigma: float = 0.02

    def validate(self, stride=None):
        if self.image_size < 32:
            raise ConfigError(f"image_size {self.image_size} is too small (min 32)")
        if stride is not None and self.image_size % stride != 0:
            raise ConfigError(
                f"image_size {self.image_size} is not divisible by stride {stride}"
            )
        if not 1 <= self.num_classes <= len(CLASS_NAMES):
            raise ConfigError(
                f"num_classes must be in [1, {len(CLASS_NAMES)}], got {self.num_classes}"
            )
        if self.max_per_scene < 1:
            raise ConfigError(f"max_per_scene must be >= 1, got {self.max_per_scene}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        return self


@dataclass
class SceneRecord:
    image: np.ndarray                      # [H,W,3] float32 in [0,1]
    instances: list = field(default_factory=list)  # [(Box, class_id), ...]
    seed: int = 0

    @property
    def image_shape(self):
        """The image's shape; a stored scene reads it without decoding pixels."""
        return np.shape(self.image)

    def boxes_array(self):
        return instance_arrays(self.instances)[0]

    def classes_array(self):
        return instance_arrays(self.instances)[1]


class StoredScene(SceneRecord):
    """A scene read from a dataset file: it holds where its pixels are, not them.

    Each read of ``image`` decodes a fresh, writable float32 array with one
    positional read of the file that :func:`read_dataset` checked. A file
    cut short since then raises FormatError.
    """

    def __init__(self, file, offset, shape, instances, seed):
        self._file = file
        self._offset = offset
        self._shape = shape
        self.instances = instances
        self.seed = seed

    @property
    def image_shape(self):
        return self._shape

    @property
    def image(self):
        return self._file.read_image(self._offset, self._shape)


class _DatasetFile:
    """One open dataset file, shared by the scenes read from it.

    Its descriptor is closed when the last of them is dropped. Reads are
    positional (pread), so they need no lock and move no shared cursor.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.fd = os.open(self.path, os.O_RDONLY)
        self.close = weakref.finalize(self, os.close, self.fd)

    def __reduce__(self):
        # a descriptor number names nothing, or another file, in another process
        raise TypeError(f"scenes read from {self.path} cannot be pickled; send the path")

    def read_image(self, offset, shape):
        image = np.empty(shape, dtype="<f4")
        got = os.preadv(self.fd, [image], offset)
        if got != image.nbytes:
            raise FormatError(
                f"dataset {self.path} cut short: image needs {image.nbytes} bytes, "
                f"the file holds {got} of them", offset=offset + got,
            )
        return image.astype(np.float32, copy=False)


# -- rasterization -------------------------------------------------------


def disk_mask(h, w, cy, cx, r):
    ii, jj = np.mgrid[0:h, 0:w]
    return (ii - cy) ** 2 + (jj - cx) ** 2 <= r * r


def square_mask(h, w, cy, cx, half):
    ii, jj = np.mgrid[0:h, 0:w]
    return (np.abs(ii - cy) <= half) & (np.abs(jj - cx) <= half)


def triangle_mask(h, w, y0, x0, leg_y, leg_x, orientation):
    """Filled right triangle; the right angle sits at one of four corners.

    Orientation 0 puts it top-left with legs pointing down and right; 1, 2, 3
    mirror it to top-right, bottom-left, bottom-right.
    """
    ii, jj = np.mgrid[0:h, 0:w]
    dy = (ii - y0) / leg_y
    dx = (jj - x0) / leg_x
    if orientation in (2, 3):
        dy = -dy
    if orientation in (1, 3):
        dx = -dx
    return (dy >= 0) & (dx >= 0) & (dy + dx <= 1.0)


def tight_box(mask):
    """Pixel-tight (x1, y1, x2, y2) around a boolean mask; None if empty."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0 or cols.size == 0:
        return None
    return (float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


_BASE_COLORS = np.array(
    [
        [0.85, 0.30, 0.25],   # disk
        [0.30, 0.80, 0.35],   # square
        [0.25, 0.40, 0.85],   # triangle
    ]
)

MIN_BOX_SIDE = 8.0
_EDGE_MARGIN = 2.0
_MAX_TRIES = 50


def _sample_shape(rng, class_id, size):
    """Draw one shape's mask parameters; returns a mask builder closure."""
    h = w = size
    smax = max(12.0, size / 3.0)
    s = 10.0 + rng.uniform() * (smax - 10.0)
    if class_id == 0:
        r = s / 2.0
        cy = _EDGE_MARGIN + r + rng.uniform() * (h - 2 * (_EDGE_MARGIN + r))
        cx = _EDGE_MARGIN + r + rng.uniform() * (w - 2 * (_EDGE_MARGIN + r))
        return disk_mask(h, w, cy, cx, r)
    if class_id == 1:
        half = s / 2.0
        cy = _EDGE_MARGIN + half + rng.uniform() * (h - 2 * (_EDGE_MARGIN + half))
        cx = _EDGE_MARGIN + half + rng.uniform() * (w - 2 * (_EDGE_MARGIN + half))
        return square_mask(h, w, cy, cx, half)
    leg_x = s
    leg_y = s * (0.8 + 0.4 * rng.uniform())
    orientation = rng.randint(0, 4)
    y0 = _EDGE_MARGIN + (leg_y if orientation in (2, 3) else 0.0) \
        + rng.uniform() * (h - 2 * _EDGE_MARGIN - leg_y)
    x0 = _EDGE_MARGIN + (leg_x if orientation in (1, 3) else 0.0) \
        + rng.uniform() * (w - 2 * _EDGE_MARGIN - leg_x)
    return triangle_mask(h, w, y0, x0, leg_y, leg_x, orientation)


def _boxes_touch(a, b):
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def generate_scene(seed, cfg):
    """Render one scene; same (seed, cfg) always yields identical bytes."""
    cfg.validate()
    rng = SplitMix64(seed)
    size = cfg.image_size
    bg = 0.10 + 0.15 * rng.uniform() + (rng.uniform((3,)) - 0.5) * 0.06
    image = np.broadcast_to(bg, (size, size, 3)).astype(np.float64).copy()

    n_wanted = rng.randint(1, cfg.max_per_scene + 1)
    placed = []                       # (box tuple, class_id, mask)
    for _ in range(n_wanted):
        for _attempt in range(_MAX_TRIES):
            class_id = rng.randint(0, cfg.num_classes)
            mask = _sample_shape(rng, class_id, size)
            box = tight_box(mask)
            if box is None:
                continue
            if box[2] - box[0] < MIN_BOX_SIDE or box[3] - box[1] < MIN_BOX_SIDE:
                continue
            if not cfg.occlusion_allowed and any(
                _boxes_touch(box, prev) for prev, _, _ in placed
            ):
                continue
            placed.append((box, class_id, mask))
            break
        # retries exhausted: settle for the instances placed so far
    if not placed:
        # minimal fallback so every scene carries at least one instance
        r = max(MIN_BOX_SIDE / 2 + 1, size / 8)
        mask = disk_mask(size, size, size / 2, size / 2, r)
        placed.append((tight_box(mask), 0, mask))

    for box, class_id, mask in placed:
        color = _BASE_COLORS[class_id] + (rng.uniform((3,)) - 0.5) * 0.16
        image[mask] = np.clip(color, 0.0, 1.0)

    if cfg.noise_sigma > 0:
        image += cfg.noise_sigma * rng.normal(image.shape)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)

    instances = [
        (Box(box[0], box[1], box[2], box[3], class_id=class_id), class_id)
        for box, class_id, _ in placed
    ]
    return SceneRecord(image=image, instances=instances, seed=int(seed))


def train_seeds(n):
    """Training scenes use seeds [0, n)."""
    return range(n)


def val_seeds(n):
    """Validation scenes use seeds [2^32, 2^32 + n)."""
    return range(2 ** 32, 2 ** 32 + n)


def make_dataset(seeds, cfg):
    return [generate_scene(s, cfg) for s in seeds]


# -- dataset file format -------------------------------------------------

DATASET_MAGIC = b"TDSET"
DATASET_VERSION = 1


def write_dataset(records, path):
    """Write records to the dataset file format (see :func:`read_dataset`).

    The file is packed into one buffer of its exact size, so writing holds
    its bytes once, not once as per-record chunks and again as their join;
    each record's image is read once. The buffer goes to a temporary file
    beside ``path``, which is then renamed over it: a failed write leaves
    ``path`` as it was, and scenes already read from ``path`` keep reading
    the file they were read from.
    """
    # an image tensor is 8 header bytes, 4 per dim and 4 per float32 value
    size = 13 + sum(8 + (8 + 4 * len(rec.image_shape) + 4 * math.prod(rec.image_shape))
                    + 4 + 20 * len(rec.instances) for rec in records)
    buf = bytearray(size)
    struct.pack_into("<5sII", buf, 0, DATASET_MAGIC, DATASET_VERSION, len(records))
    offset = 13
    for rec in records:
        struct.pack_into("<Q", buf, offset, int(rec.seed) & 0xFFFFFFFFFFFFFFFF)
        blob = tensor_to_bytes(rec.image)
        buf[offset + 8:offset + 8 + len(blob)] = blob
        offset += 8 + len(blob)
        struct.pack_into("<I", buf, offset, len(rec.instances))
        offset += 4
        for box, class_id in rec.instances:
            struct.pack_into("<4fI", buf, offset, box.x1, box.y1, box.x2, box.y2, int(class_id))
            offset += 20
    if offset != size:
        raise FormatError(f"dataset packed {offset} bytes into a {size}-byte buffer", offset=offset)
    parent, base = os.path.split(os.path.abspath(path))
    staged = os.path.join(parent, f".{base}.tmp-{uuid.uuid4().hex}")
    try:
        with open(staged, "wb") as f:
            f.write(buf)
        os.replace(staged, path)
    except BaseException:
        if os.path.exists(staged):
            os.remove(staged)
        raise


def read_dataset(path):
    """Parse a dataset file, validating structure byte by byte.

    Layout: magic "TDSET", u32 version (=1), u32 record count; each record is
    u64 seed, a serialized image tensor, u32 instance count, then per
    instance 4 f32 box coordinates and a u32 class id. Little-endian
    throughout. Malformed input raises FormatError with the byte offset.

    The whole file is checked here, but no image is decoded: the records are
    :class:`StoredScene` objects, which keep the file open and decode an
    image each time it is read. The file is parsed through a read-only map
    of it, not a heap copy of it.
    """
    file = _DatasetFile(path)
    try:
        if os.fstat(file.fd).st_size < 13:
            raise FormatError("file too short for dataset header", offset=0)
        with mmap.mmap(file.fd, 0, access=mmap.ACCESS_READ) as buf:
            return _parse_dataset(buf, file)
    except BaseException:
        file.close()
        raise


def _parse_dataset(buf, file):
    if buf[:5] != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic {buf[:5]!r}", offset=0)
    version, count = struct.unpack_from("<II", buf, 5)
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}", offset=5)
    offset = 13
    records = []
    for rec_idx in range(count):
        if len(buf) < offset + 8:
            raise FormatError(f"truncated seed in record {rec_idx}", offset=offset)
        (seed,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        shape, pixels, offset = _tensor_layout(buf, offset)
        if len(shape) != 3 or shape[2] != 3:
            raise FormatError(
                f"record {rec_idx} image has shape {shape}, expected [H,W,3]",
                offset=offset,
            )
        if len(buf) < offset + 4:
            raise FormatError(
                f"truncated instance count in record {rec_idx}", offset=offset
            )
        (n_inst,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        instances = []
        for k in range(n_inst):
            if len(buf) < offset + 20:
                raise FormatError(
                    f"truncated instance {k} in record {rec_idx}", offset=offset
                )
            x1, y1, x2, y2, class_id = struct.unpack_from("<4fI", buf, offset)
            offset += 20
            try:
                instances.append((Box(x1, y1, x2, y2, class_id=class_id), class_id))
            except Exception as exc:
                raise FormatError(
                    f"invalid box in record {rec_idx}: {exc}", offset=offset - 20
                ) from None
        records.append(StoredScene(file, pixels, shape, instances, seed))
    if offset != len(buf):
        raise FormatError(
            f"{len(buf) - offset} trailing bytes after last record", offset=offset
        )
    return records
