"""Batched node-weighted shortest-path delay over conduction tensors.

Paper anchor: Section IV (variation tolerance) — the delay of an input is
the minimum total crosspoint resistance over conducting top-bottom
4-paths, and the array's *critical delay* is the worst such value over
the on-set.  The scalar reference is the per-grid Dijkstra
:func:`repro.reliability.variation.best_path_delay`; here the same
question is answered for a whole ``(B, R, C)`` batch of conduction x
resistance tensors at once with vectorized Bellman-Ford relaxation:

* distances start at the top-row site costs and sweep down / up / left /
  right, each sweep a row- or column-slice ``np.minimum`` relaxation over
  the whole batch;
* the outer loop repeats until a full round of sweeps is a fixpoint —
  like the flood kernels in :mod:`repro.xbareval.connectivity`, it only
  iterates once per direction reversal of the hardest optimal path;
* non-conducting sites (and therefore non-conducting grids) read as
  ``np.inf`` — the batched spelling of the scalar ``None``.

Delays agree with the scalar Dijkstra to float tolerance on every grid
(the relaxation sums each optimal path in path order, exactly as Dijkstra
accumulates it; only tie-broken equal-cost paths can differ, by float
noise).  The property suite in ``tests/test_xbareval_delay.py`` asserts
this, including on non-conducting grids.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .lattice_eval import conduction_tensor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..crossbar.lattice import Lattice

#: Grids relaxed per kernel call when expanding (trials x on-set) products
#: (bounds the dense ``(chunk, R, C)`` distance tensor).
CHUNK_GRIDS = 1 << 15


def best_path_delay_batch(conduction: np.ndarray,
                          resistance: np.ndarray) -> np.ndarray:
    """Minimum conducting top-bottom path cost per grid, shape ``(B,)``.

    Args:
        conduction: boolean ``(B, R, C)`` conduction tensor.
        resistance: positive site costs, shape ``(B, R, C)`` or any shape
            broadcastable to it (one shared ``(R, C)`` map included).

    Returns:
        Float ``(B,)`` array; entry ``b`` equals the scalar Dijkstra
        ``best_path_delay(conduction[b], resistance[b])`` to float
        tolerance, with ``np.inf`` where the scalar reference returns
        ``None`` (no conducting top-bottom path).
    """
    grids = np.ascontiguousarray(conduction, dtype=bool)
    if grids.ndim != 3:
        raise ValueError(
            f"expected a (batch, rows, cols) conduction tensor, got shape "
            f"{grids.shape}")
    batch, rows, cols = grids.shape
    if batch == 0 or rows == 0 or cols == 0:
        return np.full(batch, np.inf)
    res = np.broadcast_to(np.asarray(resistance, dtype=np.float64),
                          grids.shape)
    # Written so NaN fails too: the fixpoint test below never holds on it.
    if not (res > 0).all():
        raise ValueError("resistances must be positive")
    # OFF sites cost inf: relaxation can never route through them, and a
    # grid with no conducting path keeps an all-inf bottom row.
    site_cost = np.where(grids, res, np.inf)
    dist = np.full(grids.shape, np.inf)
    dist[:, 0, :] = site_cost[:, 0, :]
    while True:
        before = dist.copy()
        for r in range(1, rows):          # downward sweep
            np.minimum(dist[:, r, :], dist[:, r - 1, :] + site_cost[:, r, :],
                       out=dist[:, r, :])
        for r in range(rows - 2, -1, -1):  # upward sweep
            np.minimum(dist[:, r, :], dist[:, r + 1, :] + site_cost[:, r, :],
                       out=dist[:, r, :])
        for c in range(1, cols):          # rightward sweep
            np.minimum(dist[:, :, c], dist[:, :, c - 1] + site_cost[:, :, c],
                       out=dist[:, :, c])
        for c in range(cols - 2, -1, -1):  # leftward sweep
            np.minimum(dist[:, :, c], dist[:, :, c + 1] + site_cost[:, :, c],
                       out=dist[:, :, c])
        if np.array_equal(dist, before):
            break
    return dist[:, rows - 1, :].min(axis=1)


def onset_critical_delay_batch(lattice: "Lattice", minterms: np.ndarray,
                               resistance: np.ndarray) -> np.ndarray:
    """Worst best-path delay over ``minterms`` per resistance map.

    Args:
        lattice: the configured lattice (its packed literal masks give the
            per-minterm conduction grids in one broadcast).
        minterms: integer array of on-set assignments (must be non-empty
            and all conducting — they are the function's on-set).
        resistance: positive ``(B, rows, cols)`` resistance ensemble, one
            map per trial.

    Returns:
        Float ``(B,)`` critical delays; entry ``b`` equals the scalar
        ``lattice_critical_delay(lattice, VariationMap(resistance[b]))``
        to float tolerance.
    """
    minterms = np.asarray(minterms, dtype=np.int64)
    if minterms.size == 0:
        raise ValueError(
            "critical delay is undefined for a constant-0 function: "
            "the lattice conducts for no input (empty on-set)")
    resistance = np.asarray(resistance, dtype=np.float64)
    if resistance.ndim != 3:
        raise ValueError("resistance ensemble must be (trials, rows, cols)")
    trials = resistance.shape[0]
    onset = minterms.size
    grids = conduction_tensor(lattice, minterms)       # (onset, R, C)
    if grids.shape[1:] != resistance.shape[1:]:
        raise ValueError("resistance map shape must match the lattice")
    rows, cols = grids.shape[1:]
    worst = np.zeros(trials)
    # Expand the (trials x onset) product in bounded chunks of whole trials.
    trials_per_chunk = max(1, CHUNK_GRIDS // max(onset, 1))
    for start in range(0, trials, trials_per_chunk):
        stop = min(start + trials_per_chunk, trials)
        span = stop - start
        conduct = np.broadcast_to(
            grids[None], (span, onset, rows, cols)).reshape(-1, rows, cols)
        res = np.broadcast_to(
            resistance[start:stop, None], (span, onset, rows, cols)
        ).reshape(-1, rows, cols)
        delays = best_path_delay_batch(conduct, res).reshape(span, onset)
        if np.isinf(delays).any():
            raise ValueError("lattice does not conduct on its own on-set")
        worst[start:stop] = delays.max(axis=1)
    return worst
