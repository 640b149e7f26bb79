"""Dual-based lattice synthesis (Altun & Riedel [2],[3]; Fig. 5).

The construction: minimize ``f`` and its dual ``f^D``; build a lattice with
one **column per product of f** and one **row per product of f^D**; assign
to site (i, j) a literal shared by column product ``p_j`` and row product
``q_i``.  The duality lemma guarantees such a literal exists for every
pair, and the resulting lattice computes exactly ``f``:

* if ``f(x) = 1`` some ``p_j`` is true, so every site of column ``j`` (all
  literals of ``p_j``) conducts — a straight top-bottom path;
* if ``f(x) = 0`` then ``f^D(~x) = 1``, so some ``q_i`` has all its
  literals false at ``x`` — row ``i`` is fully OFF and cuts every path.

The size ``#products(f^D) x #products(f)`` (Fig. 5) is correct but not
always minimal — the motivation for the preprocessing flows and the SAT
optimal synthesiser.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..boolean.cover import Cover
from ..boolean.cube import Cube, Literal
from ..boolean.function import BooleanFunction
from ..boolean.minimize import minimize
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from ..xbareval import implements_table
from .compose import constant_lattice


class SynthesisError(RuntimeError):
    """Raised when a construction invariant is violated."""


def lattice_size_formula(cover: Cover, dual_cover: Cover) -> tuple[int, int]:
    """Fig. 5 size formula: (products of f^D, products of f)."""
    return dual_cover.num_products, cover.num_products


def pick_shared_literal(column_product: Cube, row_product: Cube) -> Literal:
    """Deterministically choose a literal shared by the two products."""
    shared = column_product.shared_literals(row_product)
    if not shared:
        raise SynthesisError(
            f"duality lemma violated: products {column_product} and "
            f"{row_product} share no literal (are these really covers of a "
            "function and its dual?)"
        )
    return shared[0]


def lattice_from_covers(cover: Cover, dual_cover: Cover) -> Lattice:
    """Altun-Riedel lattice for explicit covers of ``f`` and ``f^D``.

    Site (i, j) holds the first literal, in variable order, that column
    product ``p_j`` shares with row product ``q_i``.
    """
    n = cover.n
    if cover.num_products == 0:
        return constant_lattice(n, False)
    if dual_cover.num_products == 0:
        return constant_lattice(n, True)
    return Lattice(n, [[pick_shared_literal(p, q) for p in cover]
                       for q in dual_cover])


def synthesize_lattice_dual(function: BooleanFunction | TruthTable) -> Lattice:
    """Synthesize a lattice for a function via the dual-based construction.

    Args:
        function: target (don't-cares, if any, are resolved to 0 — lattice
            synthesis with flexibility is delegated to the P-circuit flow).

    Returns:
        A :class:`~repro.crossbar.lattice.Lattice` computing the function.
    """
    table = function.on if isinstance(function, BooleanFunction) else function
    cover = minimize(table)
    dual_cover = minimize(table.dual())
    lattice = lattice_from_covers(cover, dual_cover)
    # Candidate check through the batched evaluation core (one flood call
    # over all 2^n assignments).
    if not implements_table(lattice, table):
        raise SynthesisError("dual-based lattice failed verification")
    return lattice


@dataclass(frozen=True)
class DualSynthesisReport:
    """Everything the Fig. 5 experiment rows need."""

    label: str
    n: int
    products: int
    dual_products: int
    formula_shape: tuple[int, int]
    lattice: Lattice


def dual_synthesis_report(function: BooleanFunction) -> DualSynthesisReport:
    """Run the flow and capture the size-formula quantities alongside."""
    cover = minimize(function.on)
    dual_cover = minimize(function.on.dual())
    lattice = lattice_from_covers(cover, dual_cover)
    if not implements_table(lattice, function.on):
        raise SynthesisError("dual-based lattice failed verification")
    return DualSynthesisReport(
        label=function.label or "f",
        n=function.n,
        products=cover.num_products,
        dual_products=dual_cover.num_products,
        formula_shape=lattice_size_formula(cover, dual_cover),
        lattice=lattice,
    )
