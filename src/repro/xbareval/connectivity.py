"""Batched percolation connectivity on ``(B, R, C)`` conduction tensors.

The scalar references live in :mod:`repro.crossbar.paths`:

* :func:`repro.crossbar.paths.top_bottom_connected` — union-find over one
  grid's ON sites (4-adjacency);
* :func:`repro.crossbar.paths.left_right_blocked_8` — union-find over one
  grid's OFF sites (8-adjacency), the percolation dual.

Here the same questions are answered for a whole *batch* of grids at
once.  The dispatch has one rule: the scipy label pass when scipy imports
and stays healthy, the packed floods otherwise.

* a **single label pass** (when :mod:`scipy.ndimage` is importable and
  healthy): the batch is stacked into one image with blank separator
  rows and labelled in one C call — connectivity is then a
  components-touching-both-edges lookup.  A scipy ABI failure mid-call
  degrades the process to the packed floods with one logged event
  instead of raising mid-campaign;
* an iterative label-propagation flood on **packed bitsets** (pure
  numpy): each grid column becomes ``uint64`` words whose bit ``k`` is
  the cell in row ``k``, vertical reachability through ON runs closes in
  ``log2(R)`` Kogge-Stone doubling steps (the bitboard occluded-fill
  trick), horizontal steps are column scans, and the outer loop only
  iterates once per direction reversal of the hardest path.  Grids up to
  64 rows use the one-word-per-column fast path; taller grids use the
  multi-word ``(B, words, C)`` layout whose shifts carry across word
  boundaries — tall fabrics stay packed instead of falling back to the
  boolean flood;
* the **unpacked boolean flood**, kept as the bit-exact pure-python/
  numpy reference the property suite measures everything against.

Every kernel is bit-exact against its scalar reference on all inputs (the
property suite in ``tests/test_xbareval.py`` asserts agreement on
hypothesis-generated batches, including the top-bottom/left-right
percolation-duality invariant).
"""

from __future__ import annotations

import numpy as np

from ..boolean.bitops import popcount_u64, popcount_u64_multiword
from . import events as _events

try:  # optional accelerator: one C-level label pass for a whole batch
    from scipy import ndimage as _ndimage
except ImportError:  # pragma: no cover - scipy is present in CI/dev images
    _ndimage = None

#: Tallest grid the one-word-per-column fast path handles; taller grids
#: stay packed on the multi-word ``(B, words, C)`` layout.
MAX_PACKED_ROWS = 64

#: Bits per word of the packed layouts.
_WORD_BITS = 64

#: 4- and 8-neighbourhood structuring elements for the label pass.
_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
_STRUCT_8 = np.ones((3, 3), dtype=np.int64)

#: Health flag for the scipy label pass: a runtime failure (ABI drift,
#: broken extension) flips it off for the rest of the process with one
#: logged event, and every later batch takes the packed floods.
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


def _pack_rows_multiword(grids: np.ndarray) -> np.ndarray:
    """Pack ``(B, R, C)`` bools into ``(B, words, C)`` uint64 bitsets.

    Row ``r`` of a grid lands in word ``r // 64`` at bit ``r % 64``; the
    last word's unused high bits are zero.  ``rows <= 64`` degenerates to
    one word per column (the single-word layout with an extra axis).
    """
    batch, rows, cols = grids.shape
    words = max(1, -(-rows // _WORD_BITS))
    padded = np.zeros((batch, words * _WORD_BITS, cols), dtype=np.uint64)
    padded[:, :rows, :] = grids
    weights = np.uint64(1) << np.arange(_WORD_BITS, dtype=np.uint64)
    return (padded.reshape(batch, words, _WORD_BITS, cols)
            * weights[None, None, :, None]).sum(axis=2, dtype=np.uint64)


def _unpack_rows_multiword(packed: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows_multiword` — back to ``(B, R, C)`` bools."""
    batch, words, cols = packed.shape
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    bits = (packed[:, :, None, :] >> shifts[None, None, :, None]) & np.uint64(1)
    return bits.reshape(batch, words * _WORD_BITS, cols)[:, :rows, :].astype(bool)


def _full_mask_multiword(rows: int) -> np.ndarray:
    """``(words,)`` uint64 masks selecting the valid row bits per word."""
    words = max(1, -(-rows // _WORD_BITS))
    bits = np.minimum(np.maximum(rows - np.arange(words) * _WORD_BITS, 0),
                      _WORD_BITS)
    full = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    partial = bits < _WORD_BITS
    full[partial] = (np.uint64(1) << bits[partial].astype(np.uint64)) - np.uint64(1)
    return full


def _shift_toward_high(x: np.ndarray, shift: int) -> np.ndarray:
    """Multi-word left shift by ``shift`` bits (toward higher rows).

    The word axis is axis 1, so the same helper serves both the
    ``(B, words, C)`` tensors and the ``(B, words)`` column slices of the
    left-right kernel.  Bits shifted past the top word are dropped, and
    ``64 - bit_shift`` is only evaluated when ``bit_shift > 0`` (a uint64
    shift by 64 is undefined).
    """
    words = x.shape[1]
    word_shift, bit_shift = divmod(shift, _WORD_BITS)
    out = np.zeros_like(x)
    if word_shift >= words:
        return out
    src = x[:, :words - word_shift]
    if bit_shift == 0:
        out[:, word_shift:] = src
    else:
        out[:, word_shift:] = src << np.uint64(bit_shift)
        if word_shift + 1 < words:  # carry the spilled high bits upward
            out[:, word_shift + 1:] |= (
                x[:, :words - word_shift - 1] >> np.uint64(_WORD_BITS - bit_shift))
    return out


def _shift_toward_low(x: np.ndarray, shift: int) -> np.ndarray:
    """Multi-word right shift by ``shift`` bits (toward lower rows)."""
    words = x.shape[1]
    word_shift, bit_shift = divmod(shift, _WORD_BITS)
    out = np.zeros_like(x)
    if word_shift >= words:
        return out
    src = x[:, word_shift:]
    if bit_shift == 0:
        out[:, :words - word_shift] = src
    else:
        out[:, :words - word_shift] = src >> np.uint64(bit_shift)
        if word_shift + 1 < words:  # carry the spilled low bits downward
            out[:, :words - word_shift - 1] |= (
                x[:, word_shift + 1:] << np.uint64(_WORD_BITS - bit_shift))
    return out


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


def _fill_down_mw(reach: np.ndarray, runs: np.ndarray, rows: int) -> np.ndarray:
    """Multi-word Kogge-Stone fill toward higher rows (in place)."""
    shift = 1
    while shift < rows:
        reach |= runs & _shift_toward_high(reach, shift)
        runs = runs & _shift_toward_high(runs, shift)
        shift <<= 1
    return reach


def _fill_up_mw(reach: np.ndarray, runs: np.ndarray, rows: int) -> np.ndarray:
    """Multi-word Kogge-Stone fill toward lower rows (in place)."""
    shift = 1
    while shift < rows:
        reach |= runs & _shift_toward_low(reach, shift)
        runs = runs & _shift_toward_low(runs, shift)
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


def _top_bottom_connected_packed_multiword(grids: np.ndarray) -> np.ndarray:
    """The packed flood on the ``(B, words, C)`` layout (rows > 64)."""
    batch, rows, cols = grids.shape
    g = _pack_rows_multiword(grids)
    reach = np.zeros_like(g)
    reach[:, 0, :] = g[:, 0, :] & np.uint64(1)   # ON sites of row 0
    bottom_word, bottom_bit = divmod(rows - 1, _WORD_BITS)
    bottom = np.uint64(1) << np.uint64(bottom_bit)
    size = int(popcount_u64_multiword(reach).sum())
    while True:
        _fill_down_mw(reach, g, rows)
        _fill_up_mw(reach, g, rows)
        for c in range(1, cols):      # rightward: same-row neighbour columns
            reach[:, :, c] |= reach[:, :, c - 1] & g[:, :, c]
        for c in range(cols - 2, -1, -1):
            reach[:, :, c] |= reach[:, :, c + 1] & g[:, :, c]
        if (((reach[:, bottom_word, :] & bottom) != 0).any(axis=1)).all():
            break  # every grid has touched the bottom row somewhere
        grown = int(popcount_u64_multiword(reach).sum())
        if grown == size:
            break
        size = grown
    return ((reach[:, bottom_word, :] & bottom) != 0).any(axis=1)


def _top_bottom_connected_unpacked(grids: np.ndarray) -> np.ndarray:
    """Boolean-tensor flood — the bit-exact reference for every kernel."""
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


def _top_bottom_connected_numpy(grids: np.ndarray) -> np.ndarray:
    """The packed dispatch (single- or multi-word by height)."""
    if grids.shape[1] <= MAX_PACKED_ROWS:
        return _top_bottom_connected_packed(grids)
    return _top_bottom_connected_packed_multiword(grids)


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
    return _top_bottom_connected_numpy(grids)


def _left_right_blocked_8_packed(grids: np.ndarray) -> np.ndarray:
    batch, rows, cols = grids.shape
    full = np.uint64((1 << rows) - 1) if rows < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    off = ~_pack_rows(grids) & full
    reach = np.zeros_like(off)
    reach[:, 0] = off[:, 0]
    while True:
        before = reach.copy()
        _fill_down(reach, off, rows)
        _fill_up(reach, off, rows)
        # 8-adjacency between neighbouring columns: straight plus the two
        # diagonals (row +-1); within a column it degenerates to vertical.
        for c in range(1, cols):
            prev = reach[:, c - 1]
            reach[:, c] |= (prev | (prev << np.uint64(1))
                            | (prev >> np.uint64(1))) & off[:, c]
        for c in range(cols - 2, -1, -1):
            nxt = reach[:, c + 1]
            reach[:, c] |= (nxt | (nxt << np.uint64(1))
                            | (nxt >> np.uint64(1))) & off[:, c]
        if np.array_equal(reach, before):
            break
    return (reach[:, cols - 1] != 0)


def _left_right_blocked_8_packed_multiword(grids: np.ndarray) -> np.ndarray:
    """OFF-site 8-connectivity on the ``(B, words, C)`` layout (rows > 64)."""
    batch, rows, cols = grids.shape
    full = _full_mask_multiword(rows)
    off = ~_pack_rows_multiword(grids) & full[None, :, None]
    reach = np.zeros_like(off)
    reach[:, :, 0] = off[:, :, 0]
    while True:
        before = reach.copy()
        _fill_down_mw(reach, off, rows)
        _fill_up_mw(reach, off, rows)
        # 8-adjacency between neighbouring columns: straight plus the two
        # diagonals (row +-1); the one-bit shifts carry across words.
        for c in range(1, cols):
            prev = reach[:, :, c - 1]
            reach[:, :, c] |= (prev | _shift_toward_high(prev, 1)
                               | _shift_toward_low(prev, 1)) & off[:, :, c]
        for c in range(cols - 2, -1, -1):
            nxt = reach[:, :, c + 1]
            reach[:, :, c] |= (nxt | _shift_toward_high(nxt, 1)
                               | _shift_toward_low(nxt, 1)) & off[:, :, c]
        if np.array_equal(reach, before):
            break
    return (reach[:, :, cols - 1] != 0).any(axis=1)


def _left_right_blocked_8_unpacked(grids: np.ndarray) -> np.ndarray:
    rows, cols = grids.shape[1:]
    off = ~grids
    reach = np.zeros_like(off)
    reach[:, :, 0] = off[:, :, 0]
    while True:
        before = reach.copy()
        for r in range(1, rows):
            reach[:, r, :] |= reach[:, r - 1, :] & off[:, r, :]
        for r in range(rows - 2, -1, -1):
            reach[:, r, :] |= reach[:, r + 1, :] & off[:, r, :]
        for c in range(1, cols):
            prev = reach[:, :, c - 1]
            cand = prev.copy()
            cand[:, 1:] |= prev[:, :-1]
            cand[:, :-1] |= prev[:, 1:]
            reach[:, :, c] |= cand & off[:, :, c]
        for c in range(cols - 2, -1, -1):
            nxt = reach[:, :, c + 1]
            cand = nxt.copy()
            cand[:, 1:] |= nxt[:, :-1]
            cand[:, :-1] |= nxt[:, 1:]
            reach[:, :, c] |= cand & off[:, :, c]
        if np.array_equal(reach, before):
            break
    return reach[:, :, cols - 1].any(axis=1)


def _left_right_blocked_8_label(grids: np.ndarray) -> np.ndarray:
    """OFF-site 8-connectivity via one batched label pass.

    Same separator-row stacking as the top-bottom kernel (one blank row
    also blocks diagonal adjacency); a grid is blocked iff some OFF
    component touches both its left and right columns.
    """
    batch, rows, cols = grids.shape
    padded = np.zeros((batch, rows + 1, cols), dtype=bool)
    padded[:, :rows, :] = ~grids
    labels, num = _ndimage.label(padded.reshape(batch * (rows + 1), cols),
                                 structure=_STRUCT_8)
    lab = labels.reshape(batch, rows + 1, cols)
    left = lab[:, :rows, 0]
    right = lab[:, :rows, cols - 1]
    left_mask = np.zeros(num + 1, dtype=bool)
    right_mask = np.zeros(num + 1, dtype=bool)
    left_mask[left.ravel()] = True
    right_mask[right.ravel()] = True
    common = left_mask & right_mask
    common[0] = False
    return common[left].any(axis=1)


def _left_right_blocked_8_numpy(grids: np.ndarray) -> np.ndarray:
    """The packed dispatch (single- or multi-word by height)."""
    if grids.shape[1] <= MAX_PACKED_ROWS:
        return _left_right_blocked_8_packed(grids)
    return _left_right_blocked_8_packed_multiword(grids)


def left_right_blocked_8_batch(grids: np.ndarray) -> np.ndarray:
    """Per-grid left-right 8-connectivity through OFF sites.

    Args:
        grids: boolean ``(B, R, C)`` conduction tensor (ON sites are
            ``True``; the flood runs over the OFF complement).

    Returns:
        Boolean ``(B,)`` array; entry ``b`` equals
        ``left_right_blocked_8(grids[b])`` (the scalar union-find
        reference): an 8-connected path of OFF sites joins the left and
        right edges.
    """
    grids = _as_batch(grids)
    batch, rows, cols = grids.shape
    if rows == 0 or cols == 0:
        # Degenerate grids are "blocked" by convention (scalar reference).
        return np.ones(batch, dtype=bool)
    if batch == 0:
        return np.zeros(0, dtype=bool)
    if _label_pass_available():
        try:
            return _left_right_blocked_8_label(grids)
        except Exception as error:  # scipy ABI / extension failure
            _degrade_label_pass(error)
    return _left_right_blocked_8_numpy(grids)


def percolation_duality_holds_batch(grids: np.ndarray) -> np.ndarray:
    """Per-grid check of the site-percolation duality.

    The top and bottom edges are ON-disconnected exactly when an
    8-connected OFF path joins the left and right edges; returns the
    boolean ``(B,)`` array of "duality holds" flags (all ``True`` for any
    well-formed grid — a test invariant, mirroring the scalar
    :func:`repro.crossbar.paths.percolation_duality_holds`).
    """
    grids = _as_batch(grids)
    return top_bottom_connected_batch(grids) == ~left_right_blocked_8_batch(grids)
