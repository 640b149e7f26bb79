"""CNF formula container.

Literals use the DIMACS convention: variables are positive integers and a
negative integer denotes negation.  :class:`Cnf` owns the variable counter
so encoders can allocate fresh variables without collisions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class Cnf:
    """A growable CNF formula."""

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("variable count must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; deduplicates literals, keeps tautologies out."""
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = abs(lit)
            if var > self.num_vars:
                self.num_vars = var
            if -lit in seen:
                return  # tautology: x | ~x
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        self.clauses.append(tuple(clause))

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"Cnf(vars={self.num_vars}, clauses={len(self.clauses)})"

    # ------------------------------------------------------------------
    def evaluate(self, model: dict[int, bool] | Sequence[bool]) -> bool:
        """Check a model (dict var->bool, or 0-indexed sequence) satisfies."""

        def value(lit: int) -> bool:
            var = abs(lit)
            if isinstance(model, dict):
                val = model.get(var, False)
            else:
                val = bool(model[var - 1]) if var - 1 < len(model) else False
            return val if lit > 0 else not val

        return all(any(value(lit) for lit in clause) for clause in self.clauses)
