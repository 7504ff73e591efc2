"""Desk-scale one-stage detector with task-aligned predictions.

Everything runs on numpy through a small reverse-mode tensor core; no
framework dependency. Submodules:

- ``tensor``: differentiable array ops and gradient checking
- ``geometry``: boxes, IoU/GIoU, anchor-point distances, NMS
- ``head``: the shared-stack detection head and its alignment maps
- ``assignment``: metric-driven label assignment
- ``losses``: classification and localization training objectives
- ``scenes``: deterministic synthetic scene generation and dataset files
- ``model``: backbone plus head wiring and parameter init
- ``train``: SGD loop, checkpoints, loss curves
- ``metrics``: alignment diagnostics, box census, average precision
- ``cli``: command-line entry point

Importing the package fixes glibc malloc's thresholds (see
``_fix_malloc_thresholds``).
"""

import ctypes as _ctypes
import os as _os

# mallopt parameter numbers (glibc malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds():
    """Serve blocks under 4 MB from the heap; trim it once 64 MB at its top is free.

    By default glibc raises both thresholds to the largest mapped block freed
    so far (trim at twice that size). Whether freed heap went back to the OS
    then hung on allocation history: a 64-scene dataset file's buffer set the
    trim point at twice its 12.6 MB, the heap's free top reached 23-24 MB, and
    a few hundred bytes more or less (hash seed, checkout path) decided whether
    one run's eval held 20 MB more than the next. Fixed values make a given
    allocation sequence reach the same resident size every run. Per-image
    arrays (the largest, a conv patch matrix, is 0.6 MB) stay on the heap, and
    a file-sized buffer gets a mapping of its own, returned when it is freed.
    Does nothing on a C library other than glibc.
    """
    try:
        if not _os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = _ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = [_ctypes.c_int, _ctypes.c_int]
    mallopt.restype = _ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_fix_malloc_thresholds()

from .tensor import Tensor, grad_check
from .geometry import Box, Detection, iou, giou, nms
from .model import ModelConfig, build_model
from .scenes import DatasetConfig, generate_scene
from .metrics import AlignmentReport, evaluate_dataset

__all__ = [
    "Tensor",
    "grad_check",
    "Box",
    "Detection",
    "iou",
    "giou",
    "nms",
    "ModelConfig",
    "build_model",
    "DatasetConfig",
    "generate_scene",
    "AlignmentReport",
    "evaluate_dataset",
]
