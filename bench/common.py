"""Shared set-up for the benchmark scripts: paths, BLAS threads, fingerprint.

``pin_blas_threads`` must run before numpy is first imported, because
OpenBLAS reads its thread count once, when the library loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
CHECKPOINT_DIR = os.path.join(BENCH_DIR, "checkpoint")

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads():
    """Run BLAS on every CPU this process may use, and on no more."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    n = nproc()
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_aligndet():
    """Import the package from this checkout's ``src`` and nowhere else.

    Exits with status 2 when the checkout holds no ``src/aligndet``: the
    benchmark measures the tree it ships with, never an installed copy.
    """
    package = os.path.join(SRC, "aligndet", "__init__.py")
    if not os.path.isfile(package):
        sys.stderr.write(f"error: {package} not found; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import aligndet

    if os.path.realpath(os.path.dirname(aligndet.__file__)) != os.path.realpath(
        os.path.dirname(package)
    ):
        sys.stderr.write(f"error: aligndet imported from {aligndet.__file__}\n")
        raise SystemExit(2)
    return aligndet


def _openblas_lib():
    import numpy as np

    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None


def _openblas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def fingerprint():
    """Python, numpy, BLAS build, OpenBLAS core, nproc and BLAS threads."""
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    lib = _openblas_lib()
    core = _openblas_call(
        lib,
        ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
         "openblas_get_corename64_", "openblas_get_corename"),
        ctypes.c_char_p,
    )
    threads = _openblas_call(
        lib,
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
         "openblas_get_num_threads64_", "openblas_get_num_threads"),
        ctypes.c_int,
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "openblas_core": core.decode() if core else None,
        "nproc": nproc(),
        "blas_threads": int(threads) if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }
