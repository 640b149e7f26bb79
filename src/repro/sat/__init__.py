"""Pure-Python SAT substrate (CNF, CDCL solver, cardinality encodings)."""

from .cnf import Cnf
from .encodings import at_least_one, at_most_one_pairwise, exactly_one
from .solver import Solver, SolverError, brute_force_cnf, luby, solve_cnf

__all__ = [
    "Cnf",
    "Solver",
    "SolverError",
    "at_least_one",
    "at_most_one_pairwise",
    "brute_force_cnf",
    "exactly_one",
    "luby",
    "solve_cnf",
]
