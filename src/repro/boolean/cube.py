"""Ternary cubes (product terms) and literals.

A *cube* over ``n`` Boolean variables is a product of literals, represented
positionally: each variable is either required positive (``1``), required
negative (``0``) or absent / don't-care (``-``).  Cubes are the basic unit of
two-level (SOP) logic in this package: covers (:mod:`repro.boolean.cover`)
are lists of cubes, and both the diode/FET array synthesis of Fig. 3 and the
lattice synthesis of Fig. 5 of the DATE'17 paper consume cubes directly.

Internally a cube stores two bit masks, ``pos`` and ``neg``: bit ``i`` of
``pos`` is set when literal ``x_i`` appears, bit ``i`` of ``neg`` when
``~x_i`` appears.  The masks are always disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Literal:
    """A single literal: variable index plus polarity.

    ``Literal(2, True)`` is ``x2`` and ``Literal(2, False)`` is ``~x2``.
    Lattice sites, array columns and cube iterators all traffic in
    ``Literal`` objects.
    """

    var: int
    positive: bool = True

    def __post_init__(self) -> None:
        if self.var < 0:
            raise ValueError(f"variable index must be >= 0, got {self.var}")

    def negated(self) -> "Literal":
        """Return the literal with opposite polarity on the same variable."""
        return Literal(self.var, not self.positive)

    def evaluate(self, assignment: int) -> bool:
        """Evaluate under an integer assignment (bit ``i`` = value of x_i)."""
        bit = (assignment >> self.var) & 1
        return bool(bit) == self.positive

    def name(self, names: Sequence[str] | None = None) -> str:
        """Render the literal, optionally with symbolic variable names."""
        base = names[self.var] if names is not None else f"x{self.var + 1}"
        return base if self.positive else base + "'"

    def __str__(self) -> str:
        return self.name()


@dataclass(frozen=True)
class Cube:
    """An immutable product term over ``n`` variables.

    Attributes:
        n: number of variables in the space the cube lives in.
        pos: bitmask of variables appearing as positive literals.
        neg: bitmask of variables appearing as negative literals.
    """

    n: int
    pos: int = 0
    neg: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("cube dimension must be non-negative")
        full = (1 << self.n) - 1
        if self.pos & ~full or self.neg & ~full:
            raise ValueError("literal mask references a variable outside the cube space")
        if self.pos & self.neg:
            raise ValueError("a variable cannot appear in both polarities within one cube")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_string(text: str) -> "Cube":
        """Parse positional notation, e.g. ``"1-0"`` = x1 & ~x3 (n=3)."""
        pos = neg = 0
        for i, ch in enumerate(text):
            if ch == "1":
                pos |= 1 << i
            elif ch == "0":
                neg |= 1 << i
            elif ch not in "-2~":
                raise ValueError(f"bad cube character {ch!r} in {text!r}")
        return Cube(len(text), pos, neg)

    @staticmethod
    def from_literals(n: int, literals: Iterable[Literal]) -> "Cube":
        """Build a cube from an iterable of :class:`Literal`."""
        pos = neg = 0
        for lit in literals:
            if lit.var >= n:
                raise ValueError(f"literal {lit} outside space of {n} variables")
            if lit.positive:
                pos |= 1 << lit.var
            else:
                neg |= 1 << lit.var
        if pos & neg:
            raise ValueError("contradictory literals produce an empty product")
        return Cube(n, pos, neg)

    @staticmethod
    def from_minterm(n: int, minterm: int) -> "Cube":
        """The full cube (all ``n`` literals) matching exactly one minterm."""
        full = (1 << n) - 1
        if minterm & ~full:
            raise ValueError(f"minterm {minterm} outside space of {n} variables")
        return Cube(n, minterm, full & ~minterm)

    @staticmethod
    def universe(n: int) -> "Cube":
        """The empty product (tautology cube) covering the whole space."""
        return Cube(n, 0, 0)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def care_mask(self) -> int:
        """Bitmask of variables the cube constrains."""
        return self.pos | self.neg

    @property
    def num_literals(self) -> int:
        """Number of literals in the product."""
        return bin(self.care_mask).count("1")

    def literals(self) -> Iterator[Literal]:
        """Iterate the literals of the cube in variable order."""
        mask = self.care_mask
        var = 0
        while mask:
            if mask & 1:
                yield Literal(var, bool((self.pos >> var) & 1))
            mask >>= 1
            var += 1

    def __str__(self) -> str:
        return "".join("1" if (self.pos >> i) & 1 else
                       "0" if (self.neg >> i) & 1 else "-"
                       for i in range(self.n))

    def to_expression(self, names: Sequence[str] | None = None) -> str:
        """Render as a conjunction such as ``x1 & x3'`` (``1`` if empty)."""
        lits = [lit.name(names) for lit in self.literals()]
        return " & ".join(lits) if lits else "1"

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def minterms(self) -> Iterator[int]:
        """Enumerate all minterms covered by the cube (2^free of them)."""
        free = [i for i in range(self.n) if not (self.care_mask >> i) & 1]
        base = self.pos
        for combo in range(1 << len(free)):
            m = base
            for j, var in enumerate(free):
                if (combo >> j) & 1:
                    m |= 1 << var
            yield m

    # ------------------------------------------------------------------
    # Relations and operations
    # ------------------------------------------------------------------
    def contains(self, other: "Cube") -> bool:
        """True iff ``other``'s minterms are a subset of this cube's.

        Containment holds when every literal of ``self`` also appears in
        ``other`` (fewer constraints cover more space).
        """
        if self.n != other.n:
            raise ValueError("cubes live in different spaces")
        return (self.pos & ~other.pos) == 0 and (self.neg & ~other.neg) == 0

    def shared_literals(self, other: "Cube") -> list[Literal]:
        """Literals appearing (same polarity) in both cubes.

        The Altun-Riedel lattice construction relies on the duality lemma:
        any product of ``f`` shares at least one literal with any product of
        ``f^D``; the shared literal becomes the lattice site assignment.
        """
        if self.n != other.n:
            raise ValueError("cubes live in different spaces")
        shared_pos = self.pos & other.pos
        shared_neg = self.neg & other.neg
        result = []
        for var in range(self.n):
            if (shared_pos >> var) & 1:
                result.append(Literal(var, True))
            elif (shared_neg >> var) & 1:
                result.append(Literal(var, False))
        return result

    def merge(self, other: "Cube") -> "Cube | None":
        """Quine-McCluskey adjacency merge.

        Two cubes with identical care masks differing in exactly one
        variable's polarity combine into one cube with that variable freed.
        Returns ``None`` when the cubes are not adjacent.
        """
        if self.n != other.n:
            raise ValueError("cubes live in different spaces")
        if self.care_mask != other.care_mask:
            return None
        conflict = (self.pos & other.neg) | (self.neg & other.pos)
        if bin(conflict).count("1") != 1:
            return None
        return Cube(self.n, self.pos & ~conflict, self.neg & ~conflict)

    def remove_variable(self, var: int) -> "Cube":
        """Drop any literal on ``var`` (existential quantification)."""
        bit = 1 << var
        return Cube(self.n, self.pos & ~bit, self.neg & ~bit)

    def with_literal(self, lit: Literal) -> "Cube | None":
        """Add one literal; ``None`` when it contradicts the cube."""
        bit = 1 << lit.var
        if lit.positive:
            if self.neg & bit:
                return None
            return Cube(self.n, self.pos | bit, self.neg)
        if self.pos & bit:
            return None
        return Cube(self.n, self.pos, self.neg | bit)

    def lift(self, var: int) -> "Cube":
        """Insert an unconstrained variable at ``var``; higher indices
        shift up by one."""
        low = (1 << var) - 1
        pos = (self.pos & low) | ((self.pos & ~low) << 1)
        neg = (self.neg & low) | ((self.neg & ~low) << 1)
        return Cube(self.n + 1, pos, neg)
