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
        return Cover(table.n, table.minterm_cubes())

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def cubes(self) -> tuple[Cube, ...]:
        return self._cubes

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

    def support(self) -> list[int]:
        """Variables appearing in at least one cube."""
        mask = 0
        for cube in self._cubes:
            mask |= cube.care_mask
        return [v for v in range(self.n) if (mask >> v) & 1]

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def evaluate(self, assignment: int) -> bool:
        """True iff any product evaluates to 1."""
        return any(cube.evaluate(assignment) for cube in self._cubes)

    def to_truth_table(self) -> TruthTable:
        """Dense semantics of the cover."""
        return TruthTable.from_cubes(self.n, self._cubes)

    def covers_cube(self, cube: Cube) -> bool:
        """True iff every minterm of ``cube`` is covered.

        Uses the exact recursive tautology test on the cofactored cover, so
        it works without enumerating minterms.
        """
        bound = cube.care_mask
        shrunk = []
        for c in self._cubes:
            meet = c.intersection(cube)
            if meet is None:
                continue
            # Literals on the cube's bound variables are satisfied by every
            # minterm of the cube, so they can be stripped inside its space.
            shrunk.append(Cube(self.n, meet.pos & ~bound, meet.neg & ~bound))
        free = [v for v in range(self.n) if not (bound >> v) & 1]
        return _tautology_on(shrunk, free)

    def equivalent(self, other: "Cover") -> bool:
        """Semantic equality of two covers."""
        if self.n != other.n:
            return False
        return self.to_truth_table() == other.to_truth_table()

    # ------------------------------------------------------------------
    # Algebraic operations
    # ------------------------------------------------------------------
    def disjunction(self, other: "Cover") -> "Cover":
        """OR of two covers: concatenation."""
        if self.n != other.n:
            raise ValueError("covers live in different spaces")
        return Cover(self.n, self._cubes + other._cubes)

    def conjunction(self, other: "Cover") -> "Cover":
        """AND of two covers: pairwise cube products, dropping conflicts."""
        if self.n != other.n:
            raise ValueError("covers live in different spaces")
        products = []
        for a in self._cubes:
            for b in other._cubes:
                ab = a.intersection(b)
                if ab is not None:
                    products.append(ab)
        return Cover(self.n, products).drop_contained()

    def cofactor(self, var: int, value: bool) -> "Cover":
        """Cofactor cover, re-indexed into the (n-1)-variable space."""
        cubes = []
        for cube in self._cubes:
            cof = cube.cofactor(var, value)
            if cof is not None:
                cubes.append(cof.project_out(var))
        return Cover(self.n - 1, cubes)

    def restrict(self, var: int, value: bool) -> "Cover":
        """Cofactor that stays in the n-variable space."""
        cubes = []
        for cube in self._cubes:
            cof = cube.cofactor(var, value)
            if cof is not None:
                cubes.append(cof)
        return Cover(self.n, cubes)

    def lift(self, var: int) -> "Cover":
        """Inverse of :meth:`cofactor` re-indexing (insert fresh variable)."""
        return Cover(self.n + 1, (cube.lift(var) for cube in self._cubes))

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

    def without_index(self, index: int) -> "Cover":
        return Cover(self.n, self._cubes[:index] + self._cubes[index + 1:])

    def complement_inputs(self) -> "Cover":
        """The cover of ``f(~x)`` (every literal's polarity flipped)."""
        return Cover(self.n, (cube.complement_literals() for cube in self._cubes))

    def is_tautology(self) -> bool:
        """Exact recursive tautology check (no truth-table materialisation)."""
        return _tautology_on(list(self._cubes), list(range(self.n)))

    def irredundant(self) -> "Cover":
        """Remove cubes whose minterms are covered by the remaining cubes."""
        cubes = list(self.deduplicate().drop_contained())
        changed = True
        while changed:
            changed = False
            for i, cube in enumerate(cubes):
                rest = Cover(self.n, cubes[:i] + cubes[i + 1:])
                if rest.covers_cube(cube):
                    cubes.pop(i)
                    changed = True
                    break
        return Cover(self.n, cubes)


def _tautology_on(cubes: list[Cube], free_vars: list[int]) -> bool:
    """Recursive tautology check of a cube list over the given variables.

    Standard unate-style recursion: succeed on a universal-over-free cube,
    fail on an empty list, otherwise split on the most constrained variable.
    """
    if not cubes:
        return False
    free_mask = 0
    for v in free_vars:
        free_mask |= 1 << v
    for cube in cubes:
        if cube.care_mask & free_mask == 0:
            # A cube with no constraint on the free space covers all of it.
            return True
    if not free_vars:
        return False
    # Pick the free variable appearing in the most cubes (fastest shrink).
    counts = {v: 0 for v in free_vars}
    for cube in cubes:
        for v in free_vars:
            if (cube.care_mask >> v) & 1:
                counts[v] += 1
    var = max(free_vars, key=lambda v: counts[v])
    remaining = [v for v in free_vars if v != var]
    for value in (False, True):
        branch = []
        for cube in cubes:
            cof = cube.cofactor(var, value)
            if cof is not None:
                branch.append(cof)
        if not _tautology_on(branch, remaining):
            return False
    return True
