"""Sum-of-products covers.

A :class:`Cover` is an ordered collection of :class:`~repro.boolean.cube.Cube`
objects interpreted as their disjunction.  Covers are what the nano-crossbar
synthesis flows consume: the paper's two-terminal arrays (Fig. 3) and
four-terminal lattices (Fig. 5) are sized directly by a cover's product and
literal counts, because nano-crossbar arrays cannot realise factored or BDD
forms (Section III-A).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .cube import Cube, Literal
from .truthtable import TruthTable


class Cover:
    """An immutable SOP cover over ``n`` variables."""

    __slots__ = ("n", "_cubes")

    def __init__(self, n: int, cubes: Iterable[Cube] = ()):
        cube_list = tuple(cubes)
        for cube in cube_list:
            if cube.n != n:
                raise ValueError(
                    f"cube {cube} has dimension {cube.n}, cover expects {n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_cubes", cube_list)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cover is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_strings(rows: Sequence[str]) -> "Cover":
        """Build from positional cube strings such as ``["1-0", "01-"]``."""
        if not rows:
            raise ValueError("cannot infer dimension from an empty list")
        cubes = [Cube.from_string(row) for row in rows]
        n = cubes[0].n
        return Cover(n, cubes)

    @staticmethod
    def empty(n: int) -> "Cover":
        """The empty cover (constant 0)."""
        return Cover(n, ())

    @staticmethod
    def tautology(n: int) -> "Cover":
        """The cover consisting of the universal cube (constant 1)."""
        return Cover(n, (Cube.universe(n),))

    @staticmethod
    def from_truth_table(table: TruthTable) -> "Cover":
        """The canonical minterm cover of a truth table's on-set."""
        return Cover(table.n, (Cube.from_minterm(table.n, m)
                               for m in table.minterms()))

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Cube]:
        return iter(self._cubes)

    def __len__(self) -> int:
        return len(self._cubes)

    def __getitem__(self, index: int) -> Cube:
        return self._cubes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return self.n == other.n and self._cubes == other._cubes

    def __hash__(self) -> int:
        return hash((self.n, self._cubes))

    def __str__(self) -> str:
        return " + ".join(str(c) for c in self._cubes) if self._cubes else "0"

    def __repr__(self) -> str:
        return f"Cover(n={self.n}, products={len(self)})"

    def to_expression(self, names: Sequence[str] | None = None) -> str:
        """Render as e.g. ``x1 & x2  |  x1' & x3``; ``0`` when empty."""
        if not self._cubes:
            return "0"
        return " | ".join(c.to_expression(names) for c in self._cubes)

    # ------------------------------------------------------------------
    # Cost metrics (the quantities in Fig. 3 / Fig. 5)
    # ------------------------------------------------------------------
    @property
    def num_products(self) -> int:
        """Number of product terms — rows of a diode plane."""
        return len(self._cubes)

    @property
    def num_literal_occurrences(self) -> int:
        """Total literal count over all products."""
        return sum(cube.num_literals for cube in self._cubes)

    def distinct_literals(self) -> list[Literal]:
        """Sorted list of the distinct literals used by the cover.

        Each distinct literal needs one input column in a diode plane and
        one input row in a FET plane (Fig. 3).
        """
        seen: set[Literal] = set()
        for cube in self._cubes:
            seen.update(cube.literals())
        return sorted(seen)

    @property
    def num_distinct_literals(self) -> int:
        return len(self.distinct_literals())

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def to_truth_table(self) -> TruthTable:
        """Dense semantics of the cover."""
        return TruthTable.from_cubes(self.n, self._cubes)

    # ------------------------------------------------------------------
    # Clean-up passes: absorption and duplicate removal
    # ------------------------------------------------------------------
    def drop_contained(self) -> "Cover":
        """Remove cubes single-cube-contained in another cube (absorption)."""
        kept: list[Cube] = []
        # Sort large-to-small so a containing cube is kept before its victims.
        order = sorted(self._cubes, key=lambda c: c.num_literals)
        for cube in order:
            if not any(other.contains(cube) for other in kept):
                kept.append(cube)
        return Cover(self.n, kept)

    def deduplicate(self) -> "Cover":
        """Remove exact duplicate cubes, preserving first-seen order."""
        seen: set[Cube] = set()
        kept = []
        for cube in self._cubes:
            if cube not in seen:
                seen.add(cube)
                kept.append(cube)
        return Cover(self.n, kept)
