import os
import subprocess
import sys
import textwrap

import pytest

import aligndet


def _glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# runs in a fresh interpreter, so the heap holds nothing an earlier test freed
CHILD = textwrap.dedent("""
    import ctypes
    import numpy as np
    import aligndet

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd",
            "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        raise SystemExit(3)
    libc.mallinfo2.restype = MallInfo2
    info = libc.mallinfo2

    # glibc's default would raise the mmap threshold to 12 MB on this free
    big = np.ones(12 << 20, np.uint8)
    del big
    mapped = info().hblks
    block = np.ones(6 << 20, np.uint8)
    assert info().hblks == mapped + 1, "a 6 MB block is not mapped on its own"
    del block
    blocks = [np.ones(1 << 20, np.uint8) for _ in range(32)]
    assert info().hblks == mapped, "1 MB blocks do not come from the heap"
    arena = info().arena
    del blocks
    # and its trim threshold to 24 MB, so 32 MB freed at the top would go back
    assert info().arena == arena, "the heap was trimmed"
""")


@pytest.mark.skipif(not _glibc(), reason="glibc malloc only")
def test_import_fixes_malloc_thresholds():
    src = os.path.dirname(os.path.dirname(aligndet.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode == 3:
        pytest.skip("mallinfo2 needs glibc 2.33")
    assert proc.returncode == 0, proc.stderr
