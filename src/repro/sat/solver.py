"""A CDCL SAT solver in pure Python.

This is the substrate behind the exact lattice-synthesis flow
(:mod:`repro.synthesis.lattice_optimal`): the environment has no external
SAT solver, so the package carries its own.  The design follows MiniSat:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and recursive
  learnt-clause minimisation (MiniSat's ``ccmin_mode`` 2),
* VSIDS-style variable activities with exponential decay, ordered by a lazy
  ``heapq`` (stale entries are skipped when popped, never removed),
* phase saving and Luby-sequence restarts.

Layout
------
Literals stay DIMACS integers.  Everything unit propagation touches is a
flat list, and the value test and the enqueue are inlined, so its inner
loop makes no dict lookups, no ``abs()`` calls and no calls to other
solver methods:

* ``vals`` and ``watches`` are indexed by the literal.  Both have length
  ``2 * cap + 1``, so Python's negative indexing lets ``vals[lit]`` address
  literals ``-cap..cap`` directly.  ``vals[lit]`` is 1 when ``lit`` is
  true, -1 when it is false and 0 when it is unassigned.
* ``level``, ``reason``, ``activity``, ``saved_phase`` and the conflict
  analysis ``seen`` marks are indexed by variable.
* A clause is a list of literals whose first two are watched.  Watch lists
  and ``reason`` hold the clause lists themselves.

``cap`` grows geometrically as variables are registered; ``add_cnf``
registers a formula's variables once, up front.

Trajectory contract
-------------------
The layout is free to change; the search is not.  The order of
propagation, the clause-literal swaps, the learnt-literal order, every heap
push and pop (stale entries included, also after the 1e100 activity
rescale), the Luby restarts and the saved phases are pinned, so every
``statistics()`` count and every model is reproducible.  Every exact
lattice, ``proved`` flag, cached payload and served answer follows from
them.  ``tests/test_sat_trajectory.py`` checks the first ``solve()`` of
fresh solvers against ``tests/data/sat_trajectory_golden.json``.  Only a
change that means to move the search regenerates that file, with::

    PYTHONPATH=src python tests/test_sat_trajectory.py --write

The last such change added the learnt-clause minimisation here and the
symmetry clauses of :func:`repro.synthesis.lattice_optimal.encode_shape`;
both moved the search on purpose, and every proved area and ``proved``
flag stayed the same.

Incremental use follows MiniSat: a satisfiable ``solve()`` keeps a copy of
the model and returns at decision level 0, so clauses added afterwards are
simplified against level-0 facts only.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .cnf import Cnf


#: Left in the watch-list slot of a clause that moved to another watch.
#: Real clauses are never empty, so the falsy marker filters out cleanly.
_MOVED: list[int] = []


class SolverError(RuntimeError):
    """Raised on internal inconsistencies (should never happen)."""


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise ValueError("luby index is 1-based")
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return luby(i - ((1 << (k - 1)) - 1))


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.cap = 0
        self.clauses: list[list[int]] = []
        # Indexed by literal (length 2 * cap + 1).
        self.vals: list[int] = [0]
        self.watches: list[list[list[int]]] = [[]]
        # Indexed by variable (length cap + 1).
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.saved_phase: list[bool] = [False]
        self.seen: list[bool] = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.order_heap: list[tuple[float, int]] = []
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._model: list[bool] = [False]

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def _register_var(self, var: int) -> None:
        """Make variables ``1..var`` known to the solver."""
        if var <= self.num_vars:
            return
        if var > self.cap:
            self._reserve(max(var, 2 * self.cap))
        for v in range(self.num_vars + 1, var + 1):
            heapq.heappush(self.order_heap, (0.0, v))
        self.num_vars = var

    def _reserve(self, cap: int) -> None:
        """Grow every array to hold variables ``1..cap``."""
        old, grow = self.cap, cap - self.cap
        # Positive literals keep indices 1..old; the negative ones live at
        # the tail, so the new ones go in between.
        self.vals = self.vals[:old + 1] + [0] * (2 * grow) + self.vals[old + 1:]
        self.watches = (self.watches[:old + 1]
                        + [[] for _ in range(2 * grow)]
                        + self.watches[old + 1:])
        self.level += [0] * grow
        self.reason += [None] * grow
        self.activity += [0.0] * grow
        self.saved_phase += [False] * grow
        self.seen += [False] * grow
        self.cap = cap

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False when the formula became trivially UNSAT."""
        if not self.ok:
            return False
        seen: set[int] = set()
        clause: list[int] = []
        top = 0
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > top:
                top = var
            if -lit in seen:
                self._register_var(top)
                return True  # tautology
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self._register_var(top)
        return self._add_simplified(clause)

    def add_cnf(self, cnf: Cnf) -> bool:
        """Add every clause of ``cnf``; False once the formula is UNSAT.

        :meth:`Cnf.add_clause` has already dropped duplicate literals and
        tautologies, and ``cnf.num_vars`` bounds every variable, so each
        clause goes straight to the level-0 simplification.
        """
        self._register_var(cnf.num_vars)
        for clause in cnf:
            if not (self.ok and self._add_simplified(clause)):
                return False
        return True

    def _add_simplified(self, clause: Sequence[int]) -> bool:
        """Level-0 simplification of a clause whose variables are
        registered and whose literals are distinct and not complementary;
        then store and watch it, or enqueue it as a unit."""
        vals = self.vals
        simplified: list[int] = []
        for lit in clause:
            val = vals[lit]
            if val > 0:
                return True
            if val == 0:
                simplified.append(lit)
        if not simplified:
            self.ok = False
            return False
        if len(simplified) == 1:
            self._enqueue(simplified[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        self.clauses.append(simplified)
        self.watches[simplified[0]].append(simplified)
        self.watches[simplified[1]].append(simplified)
        return True

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        """Make the unassigned literal ``lit`` true at the current level."""
        var = lit if lit > 0 else -lit
        self.vals[lit] = 1
        self.vals[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        trail = self.trail
        vals = self.vals
        watches = self.watches
        level = self.level
        reason = self.reason
        current = len(self.trail_lim)
        start = qhead = self.qhead
        conflict: list[int] | None = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchlist = watches[false_lit]
            moved = False
            for pos, clause in enumerate(watchlist):
                # Keep the false watch at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first] > 0:
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if vals[lit] >= 0:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        watchlist[pos] = _MOVED
                        moved = True
                        break
                else:
                    if vals[first] < 0:
                        conflict = clause
                        break
                    vals[first] = 1
                    vals[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = current
                    reason[var] = clause
                    trail.append(first)
            if moved:
                watchlist[:] = filter(None, watchlist)
            if conflict is not None:
                break
        self.propagations += qhead - start
        self.qhead = len(trail) if conflict is not None else qhead
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """Derive the 1UIP learned clause and its backjump level."""
        level = self.level
        seen = self.seen
        trail = self.trail
        activity = self.activity
        heap = self.order_heap
        learnt: list[int] = []
        counter = 0
        p = 0  # no literal is 0, so the conflict clause skips nothing
        clause = conflict
        index = len(trail) - 1
        current = len(self.trail_lim)
        while True:
            for q in clause:
                if q == p:
                    continue
                var = q if q > 0 else -q
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                # Bump the activity; rescale everything past 1e100.
                act = activity[var] + self.var_inc
                activity[var] = act
                if act > 1e100:
                    for v in range(len(activity)):
                        activity[v] *= 1e-100
                    self.var_inc *= 1e-100
                    act = activity[var]
                heapq.heappush(heap, (-act, var))
                if level[var] == current:
                    counter += 1
                else:
                    learnt.append(q)
            while True:
                p = trail[index]
                index -= 1
                var = p if p > 0 else -p
                if seen[var]:
                    break
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[var]
            if reason is None:
                raise SolverError("non-UIP literal without a reason")
            clause = reason
        # Recursive minimisation (MiniSat's ccmin_mode 2): drop every
        # literal that the others imply through reason clauses.
        abstract_levels = 0
        for q in learnt:
            abstract_levels |= 1 << (level[q if q > 0 else -q] & 31)
        reasons = self.reason
        to_clear = learnt[:]
        learnt = [q for q in learnt
                  if reasons[q if q > 0 else -q] is None
                  or not self._redundant(q, abstract_levels, to_clear)]
        for q in to_clear:
            seen[q if q > 0 else -q] = False
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause, and put a
        # literal of that level in watch position 1.
        back_level = max(level[abs(q)] for q in learnt[1:])
        for k in range(1, len(learnt)):
            if level[abs(learnt[k])] == back_level:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back_level

    def _redundant(self, lit: int, abstract_levels: int,
                   to_clear: list[int]) -> bool:
        """MiniSat's ``litRedundant``: is the learnt literal ``lit`` implied?

        Walks the reason side of ``lit``'s implication graph.  It is
        redundant when every path ends in a ``seen`` literal (one of the
        clause, or one proved redundant earlier).  The walk gives up at a
        decision, or at a level outside ``abstract_levels`` (the clause's
        levels, hashed mod 32).  Reason clauses keep their implied literal
        at index 0.  Literals marked on a successful walk stay in
        ``to_clear``; a failed walk unmarks its own.
        """
        seen = self.seen
        level = self.level
        reasons = self.reason
        stack = [lit]
        top = len(to_clear)
        while stack:
            q = stack.pop()
            clause = reasons[q if q > 0 else -q]
            assert clause is not None
            for k in range(1, len(clause)):
                r = clause[k]
                var = r if r > 0 else -r
                if seen[var] or level[var] == 0:
                    continue
                if (reasons[var] is not None
                        and (1 << (level[var] & 31)) & abstract_levels):
                    seen[var] = True
                    stack.append(r)
                    to_clear.append(r)
                    continue
                for stale in to_clear[top:]:
                    seen[stale if stale > 0 else -stale] = False
                del to_clear[top:]
                return False
        return True

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        trail = self.trail
        vals = self.vals
        phase = self.saved_phase
        activity = self.activity
        heap = self.order_heap
        boundary = self.trail_lim[target_level]
        for lit in reversed(trail[boundary:]):
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            vals[lit] = 0
            vals[-lit] = 0
            heapq.heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del self.trail_lim[target_level:]
        self.qhead = len(trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int | None:
        # Lazy-deletion heap: stale entries only perturb the order, never
        # correctness, so the first unassigned entry is good enough.
        heap = self.order_heap
        vals = self.vals
        while heap:
            var = heapq.heappop(heap)[1]
            if vals[var] == 0:
                return var
        for var in range(1, self.num_vars + 1):
            if vals[var] == 0:
                return var
        return None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: int | None = None) -> bool | None:
        """Decide satisfiability.

        Args:
            assumptions: literals assumed true for this call only.
            conflict_budget: optional conflict cap; ``None`` result on budget
                exhaustion.

        Returns:
            True (SAT — model available via :meth:`model`), False (UNSAT),
            or None when the budget ran out.  The solver is back at
            decision level 0 afterwards, so clauses may be added between
            calls.
        """
        if not self.ok:
            return False
        for lit in assumptions:
            self._register_var(abs(lit))
        if self._propagate() is not None:
            self.ok = False
            return False
        vals = self.vals
        watches = self.watches
        trail_lim = self.trail_lim
        restart_count = 0
        conflicts_until_restart = 100 * luby(1)
        total_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                total_conflicts += 1
                if not trail_lim:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                # Backjumping may undo assumption levels; the decision loop
                # re-establishes them and detects contradicted assumptions.
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.clauses.append(learnt)
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc *= self.var_decay
                if conflict_budget is not None and total_conflicts >= conflict_budget:
                    self._backtrack(0)
                    return None
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    conflicts_until_restart = 100 * luby(restart_count + 1)
                    self._backtrack(min(len(assumptions), len(trail_lim)))
                continue
            # No conflict: extend the assignment.
            if len(trail_lim) < len(assumptions):
                lit = assumptions[len(trail_lim)]
                val = vals[lit]
                if val < 0:
                    self._backtrack(0)
                    return False
                trail_lim.append(len(self.trail))
                if val == 0:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                self._model = [v > 0 for v in vals[:self.num_vars + 1]]
                self._backtrack(0)
                return True
            self.decisions += 1
            trail_lim.append(len(self.trail))
            self._enqueue(var if self.saved_phase[var] else -var, None)

    # ------------------------------------------------------------------
    def model(self) -> dict[int, bool]:
        """The satisfying assignment of the last True result."""
        return {var: self._model[var] for var in range(1, len(self._model))}

    def statistics(self) -> dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "clauses": len(self.clauses),
            "vars": self.num_vars,
        }


def solve_cnf(cnf: Cnf, assumptions: Sequence[int] = ()) -> dict[int, bool] | None:
    """One-shot convenience wrapper: returns a model dict or ``None``."""
    solver = Solver()
    if not solver.add_cnf(cnf):
        return None
    result = solver.solve(assumptions)
    if result is True:
        model = solver.model()
        return model
    return None


def brute_force_cnf(cnf: Cnf) -> dict[int, bool] | None:
    """Exponential reference solver used to validate the CDCL engine."""
    n = cnf.num_vars
    if n > 22:
        raise ValueError("brute force limited to 22 variables")
    for bits in range(1 << n):
        model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
        if cnf.evaluate(model):
            return model
    return None
