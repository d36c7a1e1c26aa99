"""Keep the heap that a march frees in the process, for its next iteration.

An iteration allocates and frees megabytes of short-lived NumPy
temporaries, spread over dozens of ufunc results: a limited, corrected
gas-dynamics step peaks at 4.7 parts-sized (T, 3, 4) arrays above the
state under RXN and 6.0 under the systems N scheme, 2.3 and 2.9 MB on
``cylinder-supersonic`` and 5.7 and 7.2 MB on ``cylinder-subsonic``
(``solver``'s module docstring).  By default glibc hands them back to
the kernel: each block above the mmap threshold is a fresh
``mmap`` that ``free`` unmaps, and free space above the trim threshold at
the top of the heap is returned.  The next iteration then faults the same
pages in again, which cost about a third of the wall time of a steady gas
dynamics iteration.  Two ``mallopt`` calls keep that memory for reuse, so
a steady march takes no page faults; the price is that the resident size
stays at its high-water mark.
"""
from __future__ import annotations

import ctypes

# mallopt parameters and values (glibc <malloc.h>).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30  # 1 GiB: the heap top is never trimmed
_MMAP_THRESHOLD = 32 << 20  # 32 MiB, glibc's largest on 64-bit hosts

_retained = False


def retain_heap():
    """Stop glibc from returning freed heap memory to the kernel.

    Runs its calls once per process; later calls return at once.  A
    silent no-op where the C library offers no ``mallopt`` (macOS,
    Windows) or one that ignores these parameters (musl).  Only the
    allocator changes, never a computed value.
    """
    global _retained
    if _retained:
        return
    _retained = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
