"""Portable per-element popcount for packed-uint64 kernels.

``numpy.bitwise_count`` only exists in numpy >= 2.0, but the package's
declared floor is numpy >= 1.22 (see ``setup.py``): the packed-bitset
kernels in :mod:`repro.xbareval.connectivity` and the parity tables in
:mod:`repro.boolean.affine` must not crash with ``AttributeError`` on a
1.x install.  :data:`popcount_u64` is selected once at import time:

* numpy >= 2.0 — ``np.bitwise_count`` (a single C ufunc call);
* numpy 1.x — :func:`popcount_u64_unpackbits`, which views each uint64
  word as 8 bytes and sums ``np.unpackbits`` over them (slower, but pure
  numpy and exact for the full 64-bit range).

Both paths return one count per element with the input's shape; the
regression suite (``tests/test_boolean_bitops.py``) asserts they agree on
the full-range corner cases regardless of which one is active.
"""

from __future__ import annotations

import numpy as np


def popcount_u64_unpackbits(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array via ``np.unpackbits``.

    The numpy-1.x fallback behind :data:`popcount_u64`: each word is
    viewed as its 8 constituent bytes and the unpacked bits are summed.
    Bit/byte order is irrelevant for counting, so the result matches
    ``np.bitwise_count`` exactly on every input.
    """
    arr = np.asarray(values, dtype=np.uint64)
    shape = arr.shape        # ascontiguousarray would promote 0-d to 1-d
    if arr.size == 0:
        return np.zeros(shape, dtype=np.uint8)
    as_bytes = np.ascontiguousarray(arr).reshape(-1, 1).view(np.uint8)
    counts = np.unpackbits(as_bytes, axis=1).sum(axis=1, dtype=np.uint8)
    return counts.reshape(shape)


#: The active popcount implementation (see the module docstring).
popcount_u64 = getattr(np, "bitwise_count", popcount_u64_unpackbits)

#: True when the native ``np.bitwise_count`` ufunc backs :data:`popcount_u64`.
HAVE_NATIVE_POPCOUNT = popcount_u64 is not popcount_u64_unpackbits

