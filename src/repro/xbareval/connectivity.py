"""Batched top-bottom percolation on ``(B, R, C)`` conduction tensors.

A four-terminal lattice computes f by top-to-bottom percolation, and
every lattice check in the package (verification, fold, defect-aware
mapping, the variation-delay model) asks that one question.  The scalar
reference is :func:`repro.crossbar.paths.top_bottom_connected`, a
union-find over one grid's ON sites (4-adjacency); its percolation dual,
:func:`repro.crossbar.paths.left_right_blocked_8`, stays a scalar
reference that the property suite checks the batched flood against.

Here the question is answered for a whole *batch* of grids at once.  The
dispatch has one rule, first match wins:

1. a **single label pass** while :mod:`scipy.ndimage` imports and stays
   healthy: the batch is stacked into one image with blank separator
   rows and labelled in one C call — connectivity is then a
   components-touching-both-edges lookup.  A scipy ABI failure mid-call
   degrades the process to the numpy floods with one logged event
   instead of raising mid-campaign;
2. an iterative label-propagation flood on **packed bitsets** (pure
   numpy) for grids of up to :data:`MAX_PACKED_ROWS` rows: each grid
   column becomes one ``uint64`` word whose bit ``k`` is the cell in row
   ``k``, vertical reachability through ON runs closes in ``log2(R)``
   Kogge-Stone doubling steps (the bitboard occluded-fill trick),
   horizontal steps are column scans, and the outer loop only iterates
   once per direction reversal of the hardest path;
3. the **unpacked boolean flood** for taller grids, which is also the
   bit-exact pure-numpy reference the property suite measures the other
   two against.

Every flood is bit-exact against the scalar reference on all inputs (the
property suite in ``tests/test_xbareval.py`` asserts agreement on
hypothesis-generated batches, and that the batched flood answers the
complement of ``left_right_blocked_8`` — the percolation duality).
"""

from __future__ import annotations

import numpy as np

from ..boolean.bitops import popcount_u64
from . import events as _events

try:  # optional accelerator: one C-level label pass for a whole batch
    from scipy import ndimage as _ndimage
except ImportError:  # pragma: no cover - scipy is present in CI/dev images
    _ndimage = None

#: Tallest grid the one-word-per-column packed flood handles; taller
#: grids take the unpacked boolean flood when scipy is absent.
MAX_PACKED_ROWS = 64

#: 4-neighbourhood structuring element for the label pass.
_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])

#: Health flag for the scipy label pass: a runtime failure (ABI drift,
#: broken extension) flips it off for the rest of the process with one
#: logged event, and every later batch takes the numpy floods.
_label_healthy = True


def _degrade_label_pass(error: Exception) -> None:
    """Disable the scipy accelerator for this process, logging once."""
    global _label_healthy
    if not _label_healthy:  # pragma: no cover - second failure races only
        return
    _label_healthy = False
    # Through the kernel event seam (repro.xbareval.events): the sink is
    # injected by the composition root, keeping this module obs-free.
    _events.emit("xbareval.connectivity",
                 "scipy label pass failed, degrading to numpy kernels",
                 error=f"{type(error).__name__}: {error}")


def _label_pass_available() -> bool:
    return _ndimage is not None and _label_healthy


def _as_batch(grids: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(grids, dtype=bool)
    if arr.ndim != 3:
        raise ValueError(
            f"expected a (batch, rows, cols) conduction tensor, got shape {arr.shape}"
        )
    return arr


def _pack_rows(grids: np.ndarray) -> np.ndarray:
    """Pack ``(B, R, C)`` bools into ``(B, C)`` uint64 row bitmasks."""
    rows = grids.shape[1]
    weights = np.uint64(1) << np.arange(rows, dtype=np.uint64)
    return (grids.astype(np.uint64)
            * weights[None, :, None]).sum(axis=1, dtype=np.uint64)


def _fill_down(reach: np.ndarray, runs: np.ndarray, rows: int) -> np.ndarray:
    """Kogge-Stone fill toward higher bits within ``runs`` (in place)."""
    shift = 1
    while shift < rows:
        reach |= runs & (reach << np.uint64(shift))
        runs = runs & (runs << np.uint64(shift))
        shift <<= 1
    return reach


def _fill_up(reach: np.ndarray, runs: np.ndarray, rows: int) -> np.ndarray:
    """Kogge-Stone fill toward lower bits within ``runs`` (in place)."""
    shift = 1
    while shift < rows:
        reach |= runs & (reach >> np.uint64(shift))
        runs = runs & (runs >> np.uint64(shift))
        shift <<= 1
    return reach


def _top_bottom_connected_packed(grids: np.ndarray) -> np.ndarray:
    batch, rows, cols = grids.shape
    g = _pack_rows(grids)
    reach = g & np.uint64(1)          # ON sites of row 0
    bottom = np.uint64(1) << np.uint64(rows - 1)
    # The reach set grows monotonically, so its total popcount doubles as
    # a copy-free fixpoint detector; once every grid has touched the
    # bottom row the remaining closure cannot change any verdict.
    size = int(popcount_u64(reach).sum())
    while True:
        _fill_down(reach, g, rows)
        _fill_up(reach, g, rows)
        for c in range(1, cols):      # rightward: same-row neighbour columns
            reach[:, c] |= reach[:, c - 1] & g[:, c]
        for c in range(cols - 2, -1, -1):
            reach[:, c] |= reach[:, c + 1] & g[:, c]
        if (((reach & bottom) != 0).any(axis=1)).all():
            break  # every grid has touched the bottom row somewhere
        grown = int(popcount_u64(reach).sum())
        if grown == size:
            break
        size = grown
    return ((reach & bottom) != 0).any(axis=1)


def _top_bottom_connected_unpacked(grids: np.ndarray) -> np.ndarray:
    """Boolean-tensor flood — the bit-exact reference for every kernel,
    and the dispatch's flood for grids taller than :data:`MAX_PACKED_ROWS`."""
    rows, cols = grids.shape[1:]
    reach = np.zeros_like(grids)
    reach[:, 0, :] = grids[:, 0, :]
    while True:
        before = reach.copy()
        for r in range(1, rows):
            reach[:, r, :] |= reach[:, r - 1, :] & grids[:, r, :]
        for r in range(rows - 2, -1, -1):
            reach[:, r, :] |= reach[:, r + 1, :] & grids[:, r, :]
        for c in range(1, cols):
            reach[:, :, c] |= reach[:, :, c - 1] & grids[:, :, c]
        for c in range(cols - 2, -1, -1):
            reach[:, :, c] |= reach[:, :, c + 1] & grids[:, :, c]
        if np.array_equal(reach, before):
            break
    return reach[:, rows - 1, :].any(axis=1)


def _top_bottom_connected_label(grids: np.ndarray) -> np.ndarray:
    """All grids in one C-level ``scipy.ndimage.label`` pass.

    The batch is stacked vertically with one blank separator row per grid
    (a single OFF row blocks 4-adjacency between neighbours), labelled
    once, and a grid conducts iff some component touches both its top and
    bottom rows.
    """
    batch, rows, cols = grids.shape
    padded = np.zeros((batch, rows + 1, cols), dtype=bool)
    padded[:, :rows, :] = grids
    labels, num = _ndimage.label(padded.reshape(batch * (rows + 1), cols),
                                 structure=_STRUCT_4)
    lab = labels.reshape(batch, rows + 1, cols)
    top = lab[:, 0, :]
    bottom = lab[:, rows - 1, :]
    top_mask = np.zeros(num + 1, dtype=bool)
    bottom_mask = np.zeros(num + 1, dtype=bool)
    top_mask[top.ravel()] = True
    bottom_mask[bottom.ravel()] = True
    common = top_mask & bottom_mask
    common[0] = False
    return common[top].any(axis=1)


def top_bottom_connected_batch(grids: np.ndarray) -> np.ndarray:
    """Per-grid top-bottom 4-connectivity through ON sites.

    Args:
        grids: boolean ``(B, R, C)`` conduction tensor.

    Returns:
        Boolean ``(B,)`` array; entry ``b`` equals
        ``top_bottom_connected(grids[b])`` (the scalar union-find
        reference), for every grid of the batch.
    """
    grids = _as_batch(grids)
    batch, rows, cols = grids.shape
    if rows == 0 or cols == 0 or batch == 0:
        return np.zeros(batch, dtype=bool)
    if _label_pass_available():
        try:
            return _top_bottom_connected_label(grids)
        except Exception as error:  # scipy ABI / extension failure
            _degrade_label_pass(error)
    if rows <= MAX_PACKED_ROWS:
        return _top_bottom_connected_packed(grids)
    return _top_bottom_connected_unpacked(grids)
