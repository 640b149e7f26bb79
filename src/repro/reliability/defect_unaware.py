"""Application-independent defect-unaware design flow (Section IV-C, Fig. 6).

Instead of re-running defect-aware mapping per application (Fig. 6a), the
defect-unaware flow (Fig. 6b) extracts — once per chip — a *universal*
defect-free ``k x k`` sub-crossbar from each defective ``N x N`` crossbar.
Afterwards every application maps into the clean region with **no** defect
knowledge: the stored map shrinks from ``O(N^2)`` crosspoint states to the
``O(N)`` list of excluded lines, and per-application mapping cost drops to
zero test sessions.

Finding the maximum clean ``k x k`` submatrix is NP-hard in general
(maximum balanced biclique); the module provides an exact branch-and-bound
for small crossbars (used to validate) and a greedy worst-line-elimination
heuristic with local re-insertion for large ones, as a scalar reference
and as a kernel over a whole batch of crossbars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .defects import OK, DefectMap, random_defect_map
from .faults import CHUNK_ELEMENTS


@dataclass(frozen=True)
class CleanSubarray:
    """A defect-free selection of physical rows and columns."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def k(self) -> int:
        """Side of the largest square inside the selection."""
        return min(len(self.rows), len(self.cols))


# ----------------------------------------------------------------------
# Greedy heuristic
# ----------------------------------------------------------------------
def greedy_clean_subarray(defect_map: DefectMap) -> CleanSubarray:
    """Worst-line elimination followed by re-insertion.

    Repeatedly removes the row or column with the most defects in the
    remaining selection (ties: keep the selection square-ish) until no
    defects remain, then tries to re-add removed lines that happen to be
    clean w.r.t. the final selection.

    Every tie-break is fully index-deterministic (equal defect counts pick
    the lowest-numbered line); this is the contract that lets the batched
    kernel :func:`greedy_clean_subarray_batch` reproduce the selection
    bit-exactly with ``argmax`` semantics.
    """
    codes, n_cols = defect_map.codes, defect_map.cols
    rows = set(range(defect_map.rows))
    cols = set(range(n_cols))
    live = {divmod(i, n_cols) for i, code in enumerate(codes) if code}
    while live:
        row_counts: dict[int, int] = {}
        col_counts: dict[int, int] = {}
        for r, c in live:
            row_counts[r] = row_counts.get(r, 0) + 1
            col_counts[c] = col_counts.get(c, 0) + 1
        worst_row = max(row_counts, key=lambda r: (row_counts[r], -r))
        worst_col = max(col_counts, key=lambda c: (col_counts[c], -c))
        # Prefer the line clearing more defects; tie-break toward keeping
        # the selection balanced.
        remove_row = (
            row_counts[worst_row],
            len(rows) - len(cols),
        ) >= (
            col_counts[worst_col],
            len(cols) - len(rows),
        )
        if remove_row:
            rows.discard(worst_row)
            live = {(r, c) for (r, c) in live if r != worst_row}
        else:
            cols.discard(worst_col)
            live = {(r, c) for (r, c) in live if c != worst_col}
    # Re-insertion pass: a removed line may be clean against the survivors.
    for r in sorted(set(range(defect_map.rows)) - rows):
        if not any(codes[r * n_cols + c] for c in cols):
            rows.add(r)
    for c in sorted(set(range(n_cols)) - cols):
        if not any(codes[r * n_cols + c] for r in rows):
            cols.add(c)
    return CleanSubarray(tuple(sorted(rows)), tuple(sorted(cols)))


def greedy_clean_subarray_batch(defective: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Worst-line elimination + re-insertion for every trial at once.

    Args:
        defective: boolean ``(trials, rows, cols)`` defectiveness mask.

    Returns:
        ``(row_mask, col_mask)`` boolean selections of shape
        ``(trials, rows)`` / ``(trials, cols)`` — per trial identical to
        the scalar :func:`greedy_clean_subarray` (same worst-line choices,
        same tie-breaks, same re-insertion).
    """
    if defective.ndim != 3:
        raise ValueError("defectiveness mask must be 3-D (trials, rows, cols)")
    defective = np.ascontiguousarray(defective, dtype=bool)
    trials, rows, cols = defective.shape
    row_alive = np.ones((trials, rows), dtype=bool)
    col_alive = np.ones((trials, cols), dtype=bool)
    # Live-defect counts per line, maintained incrementally: one elimination
    # step costs O(active * (rows + cols)) instead of re-reducing the whole
    # (trials, rows, cols) tensor.
    row_counts = defective.sum(axis=2, dtype=np.int64)
    col_counts = defective.sum(axis=1, dtype=np.int64)
    n_rows = np.full(trials, rows, dtype=np.int64)
    n_cols = np.full(trials, cols, dtype=np.int64)
    remaining = row_counts.sum(axis=1)
    active = np.nonzero(remaining > 0)[0]
    while active.size:
        rc = row_counts[active]
        cc = col_counts[active]
        # argmax picks the lowest index among equal maxima — the scalar
        # tie-break contract.  Active trials always have a live defect, so
        # the argmax line is alive.
        worst_row = rc.argmax(axis=1)
        worst_col = cc.argmax(axis=1)
        max_row = np.take_along_axis(rc, worst_row[:, None], axis=1)[:, 0]
        max_col = np.take_along_axis(cc, worst_col[:, None], axis=1)[:, 0]
        balance_row = n_rows[active] - n_cols[active]
        # Lexicographic (count, balance) comparison: remove the row unless
        # the column strictly wins.
        remove_row = (max_row > max_col) | (
            (max_row == max_col) & (balance_row >= -balance_row))
        rm_t = active[remove_row]
        rm_r = worst_row[remove_row]
        row_alive[rm_t, rm_r] = False
        n_rows[rm_t] -= 1
        remaining[rm_t] -= row_counts[rm_t, rm_r]
        col_counts[rm_t] -= defective[rm_t, rm_r, :] & col_alive[rm_t]
        row_counts[rm_t, rm_r] = 0
        cm_t = active[~remove_row]
        cm_c = worst_col[~remove_row]
        col_alive[cm_t, cm_c] = False
        n_cols[cm_t] -= 1
        remaining[cm_t] -= col_counts[cm_t, cm_c]
        row_counts[cm_t] -= defective[cm_t, :, cm_c] & row_alive[cm_t]
        col_counts[cm_t, cm_c] = 0
        active = active[remaining[active] > 0]
    # Re-insertion: a removed line is re-added when it is clean w.r.t. the
    # surviving perpendicular selection.  Row re-insertions cannot create
    # row conflicts (the check only reads columns) so the whole pass is two
    # masked reductions — columns are checked against the *updated* rows,
    # matching the scalar order.
    row_conflict = (defective & col_alive[:, None, :]).any(axis=2)
    row_alive |= ~row_conflict
    col_conflict = (defective & row_alive[:, :, None]).any(axis=1)
    col_alive |= ~col_conflict
    return row_alive, col_alive


def recovered_k_batch(defective: np.ndarray) -> np.ndarray:
    """Greedy recovered clean-square side ``k`` per trial, shape ``(trials,)``."""
    row_alive, col_alive = greedy_clean_subarray_batch(defective)
    return np.minimum(row_alive.sum(axis=1), col_alive.sum(axis=1))


def _greedy_ks(n: int, density: float, trials: int,
               rng: random.Random) -> list[int]:
    """Greedy recovered ``k`` of ``trials`` crossbars, in draw order.

    Each trial draws one ``random_defect_map(n, n, density, rng)``, as a
    per-trial loop would; the maps' codes are stacked and extracted by
    :func:`recovered_k_batch` in chunks of at most
    :data:`~repro.reliability.faults.CHUNK_ELEMENTS` crosspoints.
    """
    step = max(1, CHUNK_ELEMENTS // max(1, n * n))
    ks: list[int] = []
    for start in range(0, trials, step):
        count = min(step, trials - start)
        codes = b"".join(random_defect_map(n, n, density, rng).codes
                         for _ in range(count))
        states = np.frombuffer(codes, dtype=np.uint8).reshape(count, n, n)
        ks.extend(recovered_k_batch(states != OK).tolist())
    return ks


# ----------------------------------------------------------------------
# Exact branch-and-bound (validation for small crossbars)
# ----------------------------------------------------------------------
#: Search nodes :func:`max_clean_square_exact` visits before it stops.
EXACT_NODE_BUDGET = 2_000_000


def max_clean_square_exact(defect_map: DefectMap) -> CleanSubarray:
    """Maximum clean square via DFS over row subsets with column masks.

    Exponential in the worst case; intended for ``N`` up to ~14 (the
    validation regime).  ``EXACT_NODE_BUDGET`` caps the search defensively.
    """
    n_rows, n_cols, codes = defect_map.rows, defect_map.cols, defect_map.codes
    full_cols = (1 << n_cols) - 1
    clean_cols = [
        sum(1 << c for c in range(n_cols) if codes[r * n_cols + c] == OK)
        for r in range(n_rows)
    ]
    order = sorted(range(n_rows), key=lambda r: -bin(clean_cols[r]).count("1"))
    best_k = 0
    best_rows: tuple[int, ...] = ()
    best_mask = 0
    nodes = 0

    def dfs(idx: int, chosen: list[int], col_mask: int) -> None:
        nonlocal best_k, best_rows, best_mask, nodes
        nodes += 1
        if nodes > EXACT_NODE_BUDGET:
            return
        width = bin(col_mask).count("1")
        k_here = min(len(chosen), width)
        if k_here > best_k:
            best_k = k_here
            best_rows = tuple(chosen)
            best_mask = col_mask
        # Upper bound: all remaining rows joined, width can only shrink.
        if min(len(chosen) + (n_rows - idx), width) <= best_k:
            return
        for next_idx in range(idx, n_rows):
            row = order[next_idx]
            new_mask = col_mask & clean_cols[row]
            if bin(new_mask).count("1") <= best_k:
                continue
            chosen.append(row)
            dfs(next_idx + 1, chosen, new_mask)
            chosen.pop()

    dfs(0, [], full_cols)
    cols = tuple(c for c in range(n_cols) if (best_mask >> c) & 1)[:best_k]
    rows = tuple(sorted(best_rows))[:best_k]
    return CleanSubarray(rows, cols)


# ----------------------------------------------------------------------
# Flow comparison (the Fig. 6 experiment)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowComparison:
    """Defect-aware vs defect-unaware flow metrics for one chip."""

    n: int
    density: float
    recovered_k: int
    #: crosspoint states the defect-aware flow must store (O(N^2))
    aware_map_words: int
    #: excluded-line list the defect-unaware flow stores (O(N))
    unaware_map_words: int
    #: average BIST sessions to map one application, defect-aware
    aware_sessions_per_app: float
    #: test sessions to map one application in the clean region
    unaware_sessions_per_app: float


#: Random applications the defect-aware flow maps per crossbar (Fig. 6).
FLOW_APPLICATIONS = 5
#: Blind self-mapping configurations per application before giving up.
FLOW_MAX_RETRIES = 500


def defect_unaware_flow(defect_map: DefectMap,
                        app_rows: int, app_cols: int,
                        rng: random.Random) -> FlowComparison:
    """Compare the two Fig. 6 flows on one crossbar.

    The defect-aware flow runs blind self-mapping (random placement + BIST)
    for each of ``FLOW_APPLICATIONS`` applications on the raw crossbar; the
    defect-unaware flow extracts a clean subarray once, then places
    applications directly when they fit.
    """
    from .bism import as_program, blind_bism

    clean = greedy_clean_subarray(defect_map)
    # Per-application defect-aware cost: average over random "applications"
    # that request app_rows x app_cols with a random program pattern.
    sessions = []
    for _ in range(FLOW_APPLICATIONS):
        program = as_program([
            [rng.random() < 0.5 for _ in range(app_cols)]
            for _ in range(app_rows)
        ])
        result = blind_bism(program, defect_map, rng,
                            max_retries=FLOW_MAX_RETRIES)
        sessions.append(result.bist_sessions if result.success
                        else FLOW_MAX_RETRIES)
    aware_sessions = sum(sessions) / len(sessions)
    fits = clean.k >= max(app_rows, app_cols) or (
        len(clean.rows) >= app_rows and len(clean.cols) >= app_cols
    )
    return FlowComparison(
        n=defect_map.rows,
        density=defect_map.density,
        recovered_k=clean.k,
        aware_map_words=defect_map.rows * defect_map.cols,
        unaware_map_words=(defect_map.rows - len(clean.rows))
        + (defect_map.cols - len(clean.cols)) + 2,
        aware_sessions_per_app=aware_sessions,
        unaware_sessions_per_app=0.0 if fits else float(FLOW_MAX_RETRIES),
    )


def recovery_sweep(n: int, densities: Sequence[float], trials: int,
                   rng: random.Random) -> list[dict]:
    """Average recovered k/N per density (the Fig. 6b headline curve)."""
    rows = []
    for density in densities:
        ks = _greedy_ks(n, density, trials, rng)
        rows.append({
            "N": n,
            "density": density,
            "avg_k": sum(ks) / trials,
            "k_over_n": sum(ks) / trials / n,
            "min_k": min(ks),
            "max_k": max(ks),
        })
    return rows
