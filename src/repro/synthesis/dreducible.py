"""D-reducible preprocessing for lattice synthesis (Section III-B.2, [4],[6]).

A D-reducible function satisfies ``f = chi_A * f_A`` where ``A`` is the
affine hull of the on-set, ``chi_A`` its characteristic function and
``f_A`` the projection of ``f`` onto ``A``.  The flow synthesises the two
factors as independent lattices and recomposes them with the AND padding
rule; when ``dim(A)`` is much smaller than ``n``, the ``f_A`` lattice
shrinks dramatically and the total beats direct synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..boolean.affine import AffineSpace, d_reduction, embed_projection, parity_table
from ..boolean.function import BooleanFunction
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice
from .compose import constant_lattice, lattice_and, lattice_and_many
from .lattice_dual import synthesize_lattice_dual
from .optimize import fold_lattice


def synthesize_characteristic(space: AffineSpace) -> Lattice:
    """Lattice for ``chi_A`` built constraint-by-constraint ([6]).

    ``chi_A`` is the conjunction of independent parity constraints; each
    constraint usually touches few variables, so synthesising one small
    parity lattice per constraint (dual-based, then folded) and
    AND-composing them is far cheaper than synthesising the monolithic
    product function.  The composition is folded once more.
    """
    if not space.constraints:
        return constant_lattice(space.n, True)
    factors = []
    for mask, rhs in space.constraints:
        table = parity_table(space.n, mask, rhs)
        factors.append(fold_lattice(synthesize_lattice_dual(table), table))
    return fold_lattice(lattice_and_many(factors),
                        space.characteristic_table())


@dataclass(frozen=True)
class DReducibleLattice:
    """Result of the D-reducible decomposition flow."""

    space: AffineSpace
    chi_lattice: Lattice
    projection_lattice: Lattice
    lattice: Lattice

    @property
    def dimension_drop(self) -> int:
        """How many dimensions the affine restriction removed."""
        return self.space.n - self.space.dim


def synthesize_dreducible(function: BooleanFunction | TruthTable
                          ) -> DReducibleLattice | None:
    """Synthesize ``f`` as ``chi_A AND f_A`` when ``f`` is D-reducible.

    ``chi_A`` is built constraint-wise (:func:`synthesize_characteristic`),
    ``f_A`` by the dual-based construction, and both factors are folded
    before composition.  Returns ``None`` when the function is constant-0
    or its affine hull is the full space (no reduction available).
    """
    table = function.on if isinstance(function, BooleanFunction) else function
    decomposition = d_reduction(table)
    if decomposition is None:
        return None
    space, projected = decomposition
    # The embedded projection depends only on the free variables of A but is
    # expressed in the full n-variable space, so the AND composition needs
    # no re-indexing.
    embedded = embed_projection(projected, space)
    chi_lattice = synthesize_characteristic(space)
    projection_lattice = fold_lattice(synthesize_lattice_dual(embedded),
                                      embedded)
    lattice = lattice_and(chi_lattice, projection_lattice)
    if not lattice.implements(table):
        raise RuntimeError("D-reducible recomposition failed verification")
    return DReducibleLattice(
        space=space,
        chi_lattice=chi_lattice,
        projection_lattice=projection_lattice,
        lattice=lattice,
    )
