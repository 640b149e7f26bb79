"""P-circuit decomposition for lattice synthesis (Section III-B.1, [5],[7]).

A P-circuit decomposes ``f`` around one splitting variable ``x_i`` and
polarity ``p``::

    P-circuit(f) = (x_i = p) f^=  +  (x_i = ~p) f^!=  +  f^I

where, with ``I`` the intersection of the two cofactor on-sets,

1. ``(f|x_i=p  \\ I)  subset-of  f^=   subset-of  f|x_i=p``
2. ``(f|x_i=~p \\ I)  subset-of  f^!=  subset-of  f|x_i=~p``
3. ``empty            subset-of  f^I   subset-of  I``

The sub-functions live in the (n-1)-variable space, have smaller on-sets
than ``f``, and usually admit smaller lattices; the full lattice is
recomposed with the OR/AND padding algebra of [3].  The interval freedom in
(1)-(3) is exactly the *flexibility* of [7]: here each block is minimized
with the interval encoded as a don't-care set, and ``f^I = I`` so exactness
never depends on the block minimizer's choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..boolean.cube import Literal
from ..boolean.function import BooleanFunction
from ..boolean.minimize import minimize
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from .compose import (
    lattice_and,
    lattice_or_many,
    lift_lattice,
    literal_lattice,
)
from .lattice_dual import synthesize_lattice_dual


@dataclass(frozen=True)
class PCircuitDecomposition:
    """The three blocks of one P-circuit split.

    ``f_eq``/``f_neq`` carry their interval flexibility as (on, dc) pairs;
    ``intersection`` is the fixed ``f^I = I`` block.  All three are
    functions of the (n-1)-variable space with ``var`` removed.
    """

    var: int
    polarity: bool
    f_eq_on: TruthTable
    f_eq_dc: TruthTable
    f_neq_on: TruthTable
    f_neq_dc: TruthTable
    intersection: TruthTable


def pcircuit_decompose(table: TruthTable, var: int,
                       polarity: bool = True) -> PCircuitDecomposition:
    """Split ``f`` on ``x_var = polarity`` into the P-circuit blocks.

    The returned blocks use the *disjoint* lower bounds as on-sets and the
    intersection ``I`` as don't-care set, matching the flexibility of [7].
    """
    if not 0 <= var < table.n:
        raise ValueError(f"variable {var} out of range")
    cof_eq = table.cofactor(var, polarity)
    cof_neq = table.cofactor(var, not polarity)
    intersection = cof_eq & cof_neq
    return PCircuitDecomposition(
        var=var,
        polarity=polarity,
        f_eq_on=cof_eq.difference(intersection),
        f_eq_dc=intersection,
        f_neq_on=cof_neq.difference(intersection),
        f_neq_dc=intersection,
        intersection=intersection,
    )


def recompose_table(dec: PCircuitDecomposition, f_eq: TruthTable,
                    f_neq: TruthTable, f_int: TruthTable) -> TruthTable:
    """Evaluate the P-circuit formula back into the n-variable space.

    Used by tests to confirm that *any* choice inside the intervals
    reconstructs ``f`` (with ``f^I = I``).
    """
    n = f_eq.n + 1
    lit_eq = TruthTable.variable(n, dec.var)
    if not dec.polarity:
        lit_eq = ~lit_eq
    expand = lambda t: _lift_table(t, dec.var)  # noqa: E731
    return (lit_eq & expand(f_eq)) | (~lit_eq & expand(f_neq)) | expand(f_int)


def _lift_table(table: TruthTable, var: int) -> TruthTable:
    """Insert an ignored variable at position ``var``."""
    import numpy as np

    n = table.n + 1
    idx = np.arange(1 << n)
    low = idx & ((1 << var) - 1)
    high = idx >> (var + 1)
    sub = low | (high << var)
    return TruthTable(n, table.values[sub])


@dataclass(frozen=True)
class PCircuitLattice:
    """Result of the decompose-synthesize-recompose flow."""

    decomposition: PCircuitDecomposition
    block_lattices: dict[str, Lattice]
    lattice: Lattice

    @property
    def area(self) -> int:
        return self.lattice.area

    @property
    def block_areas(self) -> dict[str, int]:
        return {k: v.area for k, v in self.block_lattices.items()}


#: Block lattices of one call, by the block's (on, dc) pair; ``dc`` is
#: ``None`` for a completely specified block, which is not minimized.
_Blocks = dict[tuple[TruthTable, TruthTable | None], Lattice]


def _block(blocks: _Blocks, on: TruthTable,
           dc: TruthTable | None) -> Lattice:
    key = (on, dc)
    if key not in blocks:
        # Resolve the flexibility once, by two-level minimization, then
        # synthesize the resolved (completely specified) function with
        # the dual-based construction.
        resolved = on if dc is None else minimize(on, dc).to_truth_table()
        blocks[key] = synthesize_lattice_dual(resolved)
    return blocks[key]


def _synthesize_split(table: TruthTable, var: int, polarity: bool,
                      blocks: _Blocks) -> PCircuitLattice:
    """One split's P-circuit lattice, its blocks taken from ``blocks``."""
    dec = pcircuit_decompose(table, var, polarity)
    lat_eq = _block(blocks, dec.f_eq_on, dec.f_eq_dc)
    lat_neq = _block(blocks, dec.f_neq_on, dec.f_neq_dc)
    lat_int = _block(blocks, dec.intersection, None)

    n = table.n
    lit_eq = Literal(var, polarity)
    lit_neq = Literal(var, not polarity)
    branch_eq = lattice_and(literal_lattice(n, lit_eq),
                            lift_lattice(lat_eq, var))
    branch_neq = lattice_and(literal_lattice(n, lit_neq),
                             lift_lattice(lat_neq, var))
    parts = [branch_eq, branch_neq]
    if not dec.intersection.is_contradiction():
        parts.append(lift_lattice(lat_int, var))
    lattice = lattice_or_many(parts)
    if not lattice.implements(table):
        raise RuntimeError("P-circuit recomposition failed verification")
    return PCircuitLattice(
        decomposition=dec,
        block_lattices={"f_eq": lat_eq, "f_neq": lat_neq, "f_I": lat_int},
        lattice=lattice,
    )


def best_pcircuit(function: BooleanFunction | TruthTable) -> PCircuitLattice:
    """Try every (var, polarity) split and keep the smallest lattice.

    Each distinct block is built once per call: the splits (v, p) and
    (v, ~p) share their three blocks, swapped, and a symmetric function
    shares blocks across variables.
    """
    table = function.on if isinstance(function, BooleanFunction) else function
    blocks: _Blocks = {}
    best: PCircuitLattice | None = None
    for var in range(table.n):
        for polarity in (True, False):
            candidate = _synthesize_split(table, var, polarity, blocks)
            if best is None or candidate.area < best.area:
                best = candidate
    if best is None:
        raise ValueError("function has no variables to split on")
    return best
