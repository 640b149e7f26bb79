"""Reusable CNF encodings: the cardinality constraints of the exact
lattice synthesiser's one-hot site labels."""

from __future__ import annotations

from typing import Sequence

from .cnf import Cnf


def at_least_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """ALO: the disjunction of the literals."""
    if not literals:
        raise ValueError("at_least_one of an empty set is unsatisfiable")
    cnf.add_clause(literals)


def at_most_one_pairwise(cnf: Cnf, literals: Sequence[int]) -> None:
    """AMO via pairwise exclusion: O(k^2) binary clauses, no new variables."""
    for i, a in enumerate(literals):
        for b in literals[i + 1:]:
            cnf.add_clause([-a, -b])


def exactly_one(cnf: Cnf, literals: Sequence[int]) -> None:
    """EO = ALO + pairwise AMO."""
    at_least_one(cnf, literals)
    at_most_one_pairwise(cnf, literals)
