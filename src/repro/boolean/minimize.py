"""Two-level (SOP) minimization.

Nano-crossbar arrays can only realise two-level sum-of-products forms
(Section III-A of the paper), so every synthesis flow in this package starts
from a minimized SOP cover.  Three engines are provided:

* :func:`prime_implicants` + :func:`exact_minimize` — Quine-McCluskey prime
  generation followed by exact unate covering with branch-and-bound.  This
  matches the "optimal SOP" assumption behind the Fig. 3 size formulas.
* :func:`heuristic_minimize` — an espresso-style EXPAND / IRREDUNDANT /
  REDUCE loop, seeded by the Minato-Morreale irredundant SOP.  Used for
  functions whose exact covering problem is too large.
* :func:`isop` — the Minato-Morreale irredundant SOP generator itself.

All engines support incompletely specified functions via an optional
don't-care table, as required by the P-circuit flexibility of [7].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cover import Cover
from .cube import Cube
from .truthtable import TruthTable


# ----------------------------------------------------------------------
# Prime implicant generation (Quine-McCluskey)
# ----------------------------------------------------------------------
def prime_implicants(on: TruthTable, dc: TruthTable | None = None) -> list[Cube]:
    """All prime implicants of the (incompletely specified) function.

    Args:
        on: on-set truth table.
        dc: optional don't-care truth table (disjoint from ``on`` is not
            required; overlap is treated as don't-care).

    Returns:
        Every maximal cube contained in ``on | dc``, sorted for determinism.
    """
    n = on.n
    allowed = on if dc is None else (on | dc)
    current = {Cube.from_minterm(n, m) for m in allowed.minterms()}
    primes: set[Cube] = set()
    while current:
        merged: set[Cube] = set()
        next_level: set[Cube] = set()
        by_group: dict[tuple[int, int], list[Cube]] = {}
        for cube in current:
            key = (cube.care_mask, bin(cube.pos).count("1"))
            by_group.setdefault(key, []).append(cube)
        for (care, ones), group in by_group.items():
            partners = by_group.get((care, ones + 1), [])
            for a in group:
                for b in partners:
                    combined = a.merge(b)
                    if combined is not None:
                        merged.add(a)
                        merged.add(b)
                        next_level.add(combined)
        primes.update(cube for cube in current if cube not in merged)
        current = next_level
    return sorted(primes, key=lambda c: (c.num_literals, c.pos, c.neg))


# ----------------------------------------------------------------------
# Exact unate covering
# ----------------------------------------------------------------------
@dataclass
class _CoverProblem:
    """A unate covering instance: choose columns covering all rows."""

    rows: list[int]                       # row ids (on-set minterms)
    row_cols: dict[int, frozenset[int]]   # row -> candidate column ids
    col_rows: dict[int, set[int]]         # column id -> rows it covers
    col_cost: dict[int, int]              # column id -> cost (literal count)
    chosen: list[int] = field(default_factory=list)


def _reduce_problem(problem: _CoverProblem) -> bool:
    """Apply essential / dominance reductions in place.

    Returns False when some row has no candidate column (infeasible).
    """
    changed = True
    while changed:
        changed = False
        # Essential columns: a row with exactly one candidate.
        for row in list(problem.rows):
            cols = problem.row_cols.get(row)
            if cols is None:
                continue
            if not cols:
                return False
            if len(cols) == 1:
                (col,) = cols
                _select_column(problem, col)
                changed = True
        if changed:
            continue
        # Row dominance: drop a row whose candidate set is a superset of
        # another row's (covering the subset row covers it automatically).
        rows = list(problem.rows)
        sets = {row: problem.row_cols[row] for row in rows}
        drop: set[int] = set()
        for i, r1 in enumerate(rows):
            if r1 in drop:
                continue
            for r2 in rows[i + 1:]:
                if r2 in drop:
                    continue
                if sets[r1] <= sets[r2]:
                    drop.add(r2)
                elif sets[r2] <= sets[r1]:
                    drop.add(r1)
                    break
        if drop:
            changed = True
            for row in drop:
                _remove_row(problem, row)
        # Column dominance: drop a column covering a subset of another's
        # remaining rows at equal or higher cost.
        cols = [c for c in problem.col_rows if problem.col_rows[c]]
        for c1 in cols:
            rows1 = problem.col_rows[c1]
            if not rows1:
                continue
            for c2 in cols:
                if c1 == c2 or not problem.col_rows[c2]:
                    continue
                if rows1 < problem.col_rows[c2] or (
                    rows1 == problem.col_rows[c2]
                    and (problem.col_cost[c1], c1) > (problem.col_cost[c2], c2)
                ):
                    if problem.col_cost[c1] >= problem.col_cost[c2]:
                        _remove_column(problem, c1)
                        changed = True
                        break
    return True


def _select_column(problem: _CoverProblem, col: int) -> None:
    problem.chosen.append(col)
    for row in list(problem.col_rows[col]):
        _remove_row(problem, row)
    problem.col_rows[col] = set()


def _remove_row(problem: _CoverProblem, row: int) -> None:
    if row in problem.row_cols:
        for col in problem.row_cols.pop(row):
            problem.col_rows[col].discard(row)
        problem.rows.remove(row)


def _remove_column(problem: _CoverProblem, col: int) -> None:
    for row in list(problem.col_rows[col]):
        cols = set(problem.row_cols[row])
        cols.discard(col)
        problem.row_cols[row] = frozenset(cols)
    problem.col_rows[col] = set()


def _clone(problem: _CoverProblem) -> _CoverProblem:
    return _CoverProblem(
        rows=list(problem.rows),
        row_cols={r: problem.row_cols[r] for r in problem.rows},
        col_rows={c: set(s) for c, s in problem.col_rows.items()},
        col_cost=problem.col_cost,
        chosen=list(problem.chosen),
    )


def _independent_rows_bound(problem: _CoverProblem) -> int:
    """Greedy maximal set of pairwise column-disjoint rows (lower bound)."""
    bound = 0
    used_cols: set[int] = set()
    for row in sorted(problem.rows, key=lambda r: len(problem.row_cols[r])):
        cols = problem.row_cols[row]
        if cols.isdisjoint(used_cols):
            bound += 1
            used_cols |= cols
    return bound


def _branch_and_bound(problem: _CoverProblem, best: list[int] | None) -> list[int] | None:
    if not _reduce_problem(problem):
        return best
    if not problem.rows:
        if best is None or len(problem.chosen) < len(best):
            return list(problem.chosen)
        return best
    if best is not None and len(problem.chosen) + _independent_rows_bound(problem) >= len(best):
        return best
    # Branch on the hardest row (fewest candidates).
    row = min(problem.rows, key=lambda r: len(problem.row_cols[r]))
    candidates = sorted(
        problem.row_cols[row],
        key=lambda c: (-len(problem.col_rows[c]), problem.col_cost[c], c),
    )
    for col in candidates:
        child = _clone(problem)
        _select_column(child, col)
        best = _branch_and_bound(child, best)
    return best


def exact_minimize(on: TruthTable, dc: TruthTable | None = None) -> Cover:
    """Exact minimum-cardinality SOP cover (ties broken by literal count).

    Quine-McCluskey primes + branch-and-bound unate covering.  Guaranteed
    minimal in the number of products, which is the quantity the Fig. 3 and
    Fig. 5 size formulas consume.
    """
    n = on.n
    if on.is_contradiction():
        return Cover.empty(n)
    effective_on = on.difference(dc) if dc is not None else on
    if effective_on.is_contradiction():
        return Cover.empty(n)
    if (on if dc is None else (on | dc)).is_tautology():
        return Cover.tautology(n)
    primes = prime_implicants(on, dc)
    prime_tables = [TruthTable.from_cubes(n, [p]) for p in primes]
    rows = [int(m) for m in effective_on.minterms()]
    row_cols: dict[int, frozenset[int]] = {}
    col_rows: dict[int, set[int]] = {i: set() for i in range(len(primes))}
    for row in rows:
        cols = frozenset(
            i for i, pt in enumerate(prime_tables) if pt.evaluate(row)
        )
        row_cols[row] = cols
        for col in cols:
            col_rows[col].add(row)
    problem = _CoverProblem(
        rows=rows,
        row_cols=row_cols,
        col_rows=col_rows,
        col_cost={i: primes[i].num_literals for i in range(len(primes))},
    )
    solution = _branch_and_bound(problem, None)
    if solution is None:
        raise RuntimeError("covering problem unexpectedly infeasible")
    cover = Cover(n, [primes[i] for i in sorted(solution)])
    return cover


# ----------------------------------------------------------------------
# Minato-Morreale irredundant SOP
# ----------------------------------------------------------------------
def isop(on: TruthTable, dc: TruthTable | None = None) -> Cover:
    """Irredundant SOP between ``on`` and ``on | dc`` (Minato-Morreale)."""
    n = on.n
    upper = on if dc is None else (on | dc)
    lower = on.difference(dc) if dc is not None else on
    memo: dict[tuple[bytes, bytes], Cover] = {}

    def rec(low: TruthTable, up: TruthTable) -> Cover:
        m = low.n
        if low.is_contradiction():
            return Cover.empty(m)
        if up.is_tautology():
            return Cover.tautology(m)
        key = (low.values.tobytes(), up.values.tobytes())
        hit = memo.get(key)
        if hit is not None:
            return hit
        var = m - 1  # split on the highest variable; cofactors drop it
        low0, low1 = low.cofactor(var, False), low.cofactor(var, True)
        up0, up1 = up.cofactor(var, False), up.cofactor(var, True)
        cover0 = rec(low0.difference(up1), up0)
        cover1 = rec(low1.difference(up0), up1)
        sem0 = cover0.to_truth_table()
        sem1 = cover1.to_truth_table()
        low_star = (low0.difference(sem0)) | (low1.difference(sem1))
        cover_star = rec(low_star, up0 & up1)
        cubes: list[Cube] = []
        for cube in cover0:
            lifted = cube.lift(var).with_literal(_neg_lit(var))
            cubes.append(lifted)
        for cube in cover1:
            lifted = cube.lift(var).with_literal(_pos_lit(var))
            cubes.append(lifted)
        cubes.extend(cube.lift(var) for cube in cover_star)
        result = Cover(m, cubes)
        memo[key] = result
        return result

    result = rec(lower, upper)
    return result


def _pos_lit(var: int):
    from .cube import Literal

    return Literal(var, True)


def _neg_lit(var: int):
    from .cube import Literal

    return Literal(var, False)


# ----------------------------------------------------------------------
# Espresso-style heuristic
# ----------------------------------------------------------------------
def _cube_table(n: int, cube: Cube) -> TruthTable:
    return TruthTable.from_cubes(n, [cube])


def _expand_cube(cube: Cube, allowed: TruthTable) -> Cube:
    """Greedily drop literals while the cube stays inside ``allowed``."""
    current = cube
    improved = True
    while improved:
        improved = False
        for lit in sorted(current.literals(), key=lambda literal: literal.var):
            candidate = current.remove_variable(lit.var)
            if _cube_table(allowed.n, candidate).implies(allowed):
                current = candidate
                improved = True
                break
    return current


def _supercube(n: int, minterms: list[int]) -> Cube:
    """Smallest cube containing the given minterms."""
    pos = neg = (1 << n) - 1
    for m in minterms:
        pos &= m
        neg &= ~m
    return Cube(n, pos, neg & ((1 << n) - 1))


def _reduce_cover(cover: Cover, lower: TruthTable, dc_sem: TruthTable) -> Cover:
    """Espresso REDUCE: sequentially shrink cubes to their essential part.

    Processing cubes one at a time against the *current* state of the other
    cubes preserves the invariant that the cover still covers ``lower``.
    """
    n = cover.n
    cubes = list(cover)
    i = 0
    while i < len(cubes):
        rest = Cover(n, cubes[:i] + cubes[i + 1:])
        rest_sem = rest.to_truth_table() | dc_sem
        essential = _cube_table(n, cubes[i]) & lower.difference(rest_sem)
        points = list(essential.minterms())
        if not points:
            cubes.pop(i)  # redundant given the others
            continue
        cubes[i] = _supercube(n, points)
        i += 1
    return Cover(n, cubes)


#: EXPAND / IRREDUNDANT / REDUCE rounds of :func:`heuristic_minimize`.
HEURISTIC_ITERATIONS = 8


def heuristic_minimize(on: TruthTable, dc: TruthTable | None = None) -> Cover:
    """Espresso-style iterative improvement seeded with the ISOP cover."""
    n = on.n
    if on.is_contradiction():
        return Cover.empty(n)
    dc_sem = dc if dc is not None else TruthTable.constant(n, False)
    allowed = on | dc_sem
    lower = on.difference(dc_sem)
    if allowed.is_tautology():
        return Cover.tautology(n)
    cover = isop(on, dc)
    best = cover
    best_cost = (cover.num_products, cover.num_literal_occurrences)
    for _ in range(HEURISTIC_ITERATIONS):
        # EXPAND
        expanded = [_expand_cube(cube, allowed) for cube in cover]
        cover = Cover(n, expanded).drop_contained()
        # IRREDUNDANT
        cover = _irredundant_against(cover, lower, dc_sem)
        cost = (cover.num_products, cover.num_literal_occurrences)
        if cost < best_cost:
            best, best_cost = cover, cost
        # REDUCE (perturb for the next expand round)
        new_cover = _reduce_cover(cover, lower, dc_sem).deduplicate()
        if new_cover == cover:
            break
        cover = new_cover
    if not best.to_truth_table().implies(allowed) or not lower.implies(best.to_truth_table()):
        raise RuntimeError("heuristic minimization produced an invalid cover")
    return best


def _irredundant_against(cover: Cover, lower: TruthTable, dc_sem: TruthTable) -> Cover:
    """Drop cubes not needed to cover ``lower`` (dc points never require cover)."""
    cubes = list(cover)
    i = 0
    while i < len(cubes):
        rest = Cover(cover.n, cubes[:i] + cubes[i + 1:])
        rest_sem = rest.to_truth_table() | dc_sem
        if lower.implies(rest_sem):
            cubes.pop(i)
        else:
            i += 1
    return Cover(cover.n, cubes)


# ----------------------------------------------------------------------
# Top-level entry point
# ----------------------------------------------------------------------
#: Above this many on/dc minterms (or variables) exact covering is skipped.
EXACT_MINTERM_LIMIT = 512
EXACT_VARIABLE_LIMIT = 12


def minimize(on: TruthTable, dc: TruthTable | None = None) -> Cover:
    """Minimize an (incompletely specified) function into an SOP cover.

    Exact covering when the instance is small enough (at most
    :data:`EXACT_VARIABLE_LIMIT` variables and
    :data:`EXACT_MINTERM_LIMIT` on/dc minterms), the heuristic otherwise.

    Args:
        on: on-set truth table.
        dc: optional don't-care set.

    Returns:
        A cover whose truth table lies between ``on - dc`` and ``on + dc``.
    """
    universe = on if dc is None else (on | dc)
    if (on.n <= EXACT_VARIABLE_LIMIT
            and universe.count_ones() <= EXACT_MINTERM_LIMIT):
        return exact_minimize(on, dc)
    return heuristic_minimize(on, dc)


def verify_cover(cover: Cover, on: TruthTable, dc: TruthTable | None = None) -> bool:
    """Check that a cover implements ``on`` up to don't-cares."""
    sem = cover.to_truth_table()
    dc_sem = dc if dc is not None else TruthTable.constant(on.n, False)
    lower = on.difference(dc_sem)
    upper = on | dc_sem
    return lower.implies(sem) and sem.implies(upper)
