"""Self-supervised cognitive diagnosis toolkit.

Trains an attention-based graph convolutional diagnosis model on a
student-exercise-concept relation graph, with a degree-aware edge-dropout
contrastive auxiliary task, and evaluates both overall and long-tail
(bottom-half-by-interaction) prediction quality.
"""

import ctypes
import os
import platform

__version__ = "0.1.0"


def _keep_freed_pages_mapped() -> None:
    """Fix glibc's mmap and trim thresholds, so arrays freed at the end of one
    training step or scoring call stay mapped for the next one.

    By default glibc serves a large array with its own mmap and unmaps it on
    free, raising the threshold only as larger blocks get freed, and gives
    the heap's free top back to the kernel past a trim threshold twice that.
    Each step's and each scoring call's arrays would then be faulted in
    again, as often as what set-up freed left the thresholds low. Both are
    fixed here: the mmap threshold at 32 MiB, glibc's 64-bit maximum, and
    the trim threshold at 64 MiB, the 2:1 ratio of glibc's own dynamic rule.

    Nothing is set off glibc, where `mallopt` is missing or refuses a value,
    or when the environment already sets glibc's allocator (GLIBC_TUNABLES or
    a MALLOC_*_ variable), which then stays the way to change it.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    if "GLIBC_TUNABLES" in os.environ or any(
        name.startswith("MALLOC_") and name.endswith("_") for name in os.environ
    ):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold, m_trim_threshold = -3, -1
    if mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 64 << 20)


_keep_freed_pages_mapped()
