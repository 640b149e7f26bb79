"""Packed-literal-mask lattice evaluation: whole truth tables per kernel call.

The scalar reference is :meth:`repro.crossbar.lattice.Lattice.evaluate` /
``Lattice.to_truth_table_scalar`` — one union-find percolation check per
input assignment, ``2^n`` Python-level iterations per table.  Here the
``(assignments, rows, cols)`` conduction tensor for *all* assignments is
materialised in one broadcast from per-site literal masks, and a single
batched flood (:mod:`repro.xbareval.connectivity`) answers every
percolation question at once — no Python-level loop over assignments.

The kernels only touch :mod:`repro.boolean` and numpy; lattices are
consumed duck-typed (``n`` / ``sites`` of
:class:`~repro.boolean.cube.Literal` or bool), which keeps this module
importable from :mod:`repro.crossbar.lattice` without a cycle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..boolean.cube import Literal
from ..boolean.truthtable import TruthTable, MAX_DENSE_VARS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crossbar.lattice import Lattice

#: Assignments evaluated per flood call when materialising big tables
#: (bounds the dense ``(chunk, rows, cols)`` tensor).
CHUNK_ASSIGNMENTS = 1 << 14

#: ``(var, positive, is_literal, const)``, each ``(rows, cols)``.
SiteMasks = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=1024)
def site_masks(lattice: "Lattice") -> SiteMasks:
    """Per-site packed literal masks for broadcast evaluation.

    Returns ``(var, positive, is_literal, const)`` arrays, each of shape
    ``(rows, cols)``: literal sites record their variable index and
    polarity, constant sites their fixed conduction value.  Memoised per
    lattice (lattices are immutable and hashable), so repeated
    evaluations — the engine's verify/fold loops — skip the Python-level
    site walk.  The cache is deliberately modest: Monte-Carlo mapping
    sweeps stream one-shot fabric lattices through here, and those should
    churn out again rather than pin memory.
    """
    rows, cols = len(lattice.sites), len(lattice.sites[0])
    var = np.zeros((rows, cols), dtype=np.int64)
    positive = np.zeros((rows, cols), dtype=bool)
    is_literal = np.zeros((rows, cols), dtype=bool)
    const = np.zeros((rows, cols), dtype=bool)
    for r, row in enumerate(lattice.sites):
        for c, site in enumerate(row):
            if isinstance(site, Literal):
                var[r, c] = site.var
                positive[r, c] = site.positive
                is_literal[r, c] = True
            else:
                const[r, c] = bool(site)
    return var, positive, is_literal, const


def conduction_tensor(lattice: "Lattice",
                      assignments: np.ndarray) -> np.ndarray:
    """The boolean ``(B, rows, cols)`` conduction tensor of a lattice.

    ``assignments`` is an integer array of input assignments (bit ``i`` is
    the value of ``x_i``).  Per assignment ``a`` the slice ``[a]`` equals
    the scalar ``lattice.conduction_grid(assignments[a])`` bit for bit.
    """
    assignments = np.asarray(assignments, dtype=np.int64)
    return _masks_tensor(site_masks(lattice), assignments, None, None)


def _masks_tensor(masks: SiteMasks, assignments: np.ndarray,
                  force_on: np.ndarray | None,
                  force_off: np.ndarray | None) -> np.ndarray:
    """Conduction grids of ``assignments``; the optional boolean
    ``(rows, cols)`` overlays apply after the nominal site values, the
    batched analogue of the scalar ``site_override`` hook (stuck-closed
    forces ON, stuck-open forces OFF; see
    :func:`repro.reliability.lattice_mapping.verify_mapped_lattice`)."""
    var, positive, is_literal, const = masks
    bits = (assignments[:, None, None] >> var[None, :, :]) & 1
    grids = np.where(is_literal[None], (bits == 1) == positive[None],
                     const[None])
    if force_on is not None:
        grids = grids | np.asarray(force_on, dtype=bool)[None]
    if force_off is not None:
        grids = grids & ~np.asarray(force_off, dtype=bool)[None]
    return grids


def evaluate_masks(n: int, masks: SiteMasks,
                   assignments: np.ndarray | None = None,
                   force_on: np.ndarray | None = None,
                   force_off: np.ndarray | None = None) -> np.ndarray:
    """Outputs of the lattice whose site masks are ``masks``.

    The evaluation loop behind :func:`lattice_truthtable`: conduction
    grids for :data:`CHUNK_ASSIGNMENTS` assignments at a time, one flood
    per chunk.  ``assignments`` defaults to all ``2^n`` in order, the
    truth-table layout; entry ``b`` of the result belongs to
    ``assignments[b]``.  Callers that edit a lattice's
    :func:`site_masks` (delete a row, fix a site) check the edit here
    without building a :class:`~repro.crossbar.lattice.Lattice`.
    """
    from .connectivity import top_bottom_connected_batch

    if assignments is None:
        if n > MAX_DENSE_VARS:
            raise ValueError(f"dense truth tables support at most "
                             f"{MAX_DENSE_VARS} variables, got {n}")
        total = 1 << n
    else:
        assignments = np.asarray(assignments, dtype=np.int64)
        total = len(assignments)
    values = np.empty(total, dtype=bool)
    for start in range(0, total, CHUNK_ASSIGNMENTS):
        stop = min(start + CHUNK_ASSIGNMENTS, total)
        chunk = (np.arange(start, stop, dtype=np.int64) if assignments is None
                 else assignments[start:stop])
        values[start:stop] = top_bottom_connected_batch(
            _masks_tensor(masks, chunk, force_on, force_off))
    return values


def lattice_truthtable(lattice: "Lattice",
                       force_on: np.ndarray | None = None,
                       force_off: np.ndarray | None = None) -> TruthTable:
    """Dense semantics of a lattice without a Python loop over assignments.

    Materialises the ``2^n`` conduction grids via packed literal masks,
    a chunk of assignments per broadcast, and floods each chunk at once
    (:func:`evaluate_masks`).  Bit-exact against the scalar reference
    ``Lattice.to_truth_table_scalar()`` (asserted by the property suite
    in ``tests/test_xbareval.py``).
    """
    return TruthTable(lattice.n, evaluate_masks(
        lattice.n, site_masks(lattice), force_on=force_on, force_off=force_off))


def implements_table(lattice: "Lattice", table: TruthTable) -> bool:
    """True iff the lattice computes exactly ``table`` (batched check)."""
    if table.n != lattice.n:
        raise ValueError("variable space mismatch")
    return lattice_truthtable(lattice) == table


def evaluate_labellings(label_values: np.ndarray,
                        label_grids: np.ndarray) -> np.ndarray:
    """Truth tables of many site labellings of one shape at once.

    Args:
        label_values: boolean ``(num_labels, A)`` array — the value of
            each candidate site label under each of the ``A`` input
            assignments (literals and constants alike).
        label_grids: integer ``(L, rows, cols)`` array of label indices —
            one candidate lattice per leading entry.

    Returns:
        Boolean ``(L, A)`` array: row ``l`` is the truth table of the
        lattice labelled by ``label_grids[l]``.  Used by the batched
        :func:`repro.synthesis.enumerate_lattices.enumerate_lattice_functions`
        rewrite; bit-exact against building each
        :class:`~repro.crossbar.lattice.Lattice` and evaluating it.
    """
    from .connectivity import top_bottom_connected_batch

    label_values = np.asarray(label_values, dtype=bool)
    label_grids = np.asarray(label_grids)
    if label_grids.ndim != 3:
        raise ValueError("label_grids must be (L, rows, cols)")
    count, rows, cols = label_grids.shape
    assignments = label_values.shape[1]
    site_vals = label_values[label_grids]          # (L, rows, cols, A)
    grids = np.moveaxis(site_vals, 3, 1).reshape(
        count * assignments, rows, cols)
    return top_bottom_connected_batch(grids).reshape(count, assignments)
