"""Regression suite for the portable popcount (numpy-1.x crash fix).

``np.bitwise_count`` only exists in numpy >= 2.0; the packed kernels in
``repro.xbareval.connectivity`` and ``repro.boolean.affine`` used to call
it unconditionally and crashed with ``AttributeError`` on a 1.x install.
Both now route through :data:`repro.boolean.bitops.popcount_u64`, whose
unpackbits fallback must agree with the native ufunc bit-for-bit on the
full uint64 range — asserted here regardless of which path is active.
"""

from __future__ import annotations

import numpy as np

from repro.boolean.bitops import (
    HAVE_NATIVE_POPCOUNT,
    popcount_u64,
    popcount_u64_unpackbits,
)

_CORNERS = np.array(
    [0, 1, 2, 3, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF,
     0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 1 << 63, (1 << 63) | 1],
    dtype=np.uint64,
)


def test_fallback_matches_python_popcount_on_corners():
    got = popcount_u64_unpackbits(_CORNERS)
    want = [bin(int(v)).count("1") for v in _CORNERS]
    assert got.tolist() == want


def test_fallback_matches_selected_path_on_random_words():
    gen = np.random.default_rng(7)
    words = gen.integers(0, 1 << 64, size=(50, 13), dtype=np.uint64)
    fallback = popcount_u64_unpackbits(words)
    selected = popcount_u64(words)
    assert fallback.shape == words.shape
    assert np.array_equal(np.asarray(selected, dtype=np.int64),
                          np.asarray(fallback, dtype=np.int64))


def test_fallback_handles_empty_and_scalar_shapes():
    assert popcount_u64_unpackbits(np.zeros((0,), dtype=np.uint64)).shape \
        == (0,)
    assert popcount_u64_unpackbits(np.zeros((3, 0), dtype=np.uint64)).shape \
        == (3, 0)
    assert int(popcount_u64_unpackbits(np.uint64(0xFF))) == 8


def test_selection_matches_numpy_version():
    has_native = hasattr(np, "bitwise_count")
    assert HAVE_NATIVE_POPCOUNT == has_native
    if has_native:
        assert popcount_u64 is np.bitwise_count


def test_packed_flood_kernel_runs_on_fallback(monkeypatch):
    """The packed connectivity flood must work with the fallback popcount.

    Simulates a numpy-1.x install by forcing the unpackbits path into the
    kernel module, then exercises the packed flood (scipy label pass
    disabled so the popcount-using branch actually runs).
    """
    from repro.crossbar.paths import top_bottom_connected
    from repro.xbareval import connectivity

    monkeypatch.setattr(connectivity, "popcount_u64",
                        popcount_u64_unpackbits)
    monkeypatch.setattr(connectivity, "_ndimage", None)
    gen = np.random.default_rng(11)
    grids = gen.random((16, 5, 4)) < 0.55
    got = connectivity.top_bottom_connected_batch(grids)
    want = [top_bottom_connected(g.tolist()) for g in grids]
    assert got.tolist() == want


def test_parity_table_on_fallback(monkeypatch):
    """GF(2) parity tables must be identical under the fallback popcount."""
    from repro.boolean import affine

    native = affine.parity_table(5, 0b10110, True)
    monkeypatch.setattr(affine, "popcount_u64", popcount_u64_unpackbits)
    fallback = affine.parity_table(5, 0b10110, True)
    assert native == fallback
