"""Four-terminal switching lattices (Section III-B, Fig. 4 / Fig. 5).

A :class:`Lattice` is an R x C grid of four-terminal switches.  Each site is
controlled by a literal (or a constant): when the literal evaluates to 1 the
site's four terminals are mutually connected, otherwise disconnected.  The
lattice computes 1 exactly when the top edge is connected to the bottom edge
through ON sites — equivalently, the OR over all top-to-bottom paths of the
AND of the literals along the path.

Sites are :class:`~repro.boolean.cube.Literal` objects or the Python
constants ``True``/``False``.  Constant sites are what the lattice algebra
of [3] uses for padding (a column of 0s for OR, a row of 1s for AND); see
:mod:`repro.synthesis.compose`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..boolean.cover import Cover
from ..boolean.cube import Cube, Literal
from ..boolean.truthtable import TruthTable
from ..xbareval.lattice_eval import lattice_truthtable
from .paths import enumerate_top_bottom_paths, top_bottom_connected

Site = Literal | bool


def _site_value(site: Site, assignment: int) -> bool:
    if site is True or site is False:
        return site
    return site.evaluate(assignment)


def _site_str(site: Site, names: Sequence[str] | None = None) -> str:
    if site is True:
        return "1"
    if site is False:
        return "0"
    return site.name(names)


class Lattice:
    """An immutable four-terminal switching lattice."""

    def __init__(self, n: int, sites: Sequence[Sequence[Site]]):
        rows = [tuple(row) for row in sites]
        if not rows or not rows[0]:
            raise ValueError("lattice must have at least one row and column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("all lattice rows must have equal length")
        for row in rows:
            for site in row:
                if isinstance(site, Literal) and site.var >= n:
                    raise ValueError(f"site literal {site} outside {n}-variable space")
                if not isinstance(site, (Literal, bool)):
                    raise TypeError(f"bad site {site!r}: expected Literal or bool")
        self.n = n
        self.sites = tuple(rows)

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return len(self.sites)

    @property
    def cols(self) -> int:
        return len(self.sites[0])

    @property
    def area(self) -> int:
        """Site count R*C — the cost metric of Fig. 5 and [2],[9]."""
        return self.rows * self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def site(self, r: int, c: int) -> Site:
        return self.sites[r][c]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.n == other.n and self.sites == other.sites

    def __hash__(self) -> int:
        return hash((self.n, self.sites))

    def __repr__(self) -> str:
        return f"Lattice({self.rows}x{self.cols}, n={self.n})"

    def render(self, names: Sequence[str] | None = None) -> str:
        """ASCII drawing with TOP/BOTTOM rails, matching Fig. 4's layout."""
        cells = [[_site_str(s, names) for s in row] for row in self.sites]
        width = max(len(text) for row in cells for text in row)
        lines = ["TOP".center((width + 3) * self.cols)]
        for row in cells:
            lines.append(" | ".join(text.center(width) for text in row))
        lines.append("BOTTOM".center((width + 3) * self.cols))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def conduction_grid(self, assignment: int,
                        site_override: Callable[[int, int, bool], bool] | None = None
                        ) -> list[list[bool]]:
        """Per-site ON/OFF states for one input assignment.

        ``site_override(r, c, nominal)`` lets fault models force sites
        stuck-ON / stuck-OFF (see :mod:`repro.reliability.faults`).
        """
        grid = []
        for r, row in enumerate(self.sites):
            grid_row = []
            for c, site in enumerate(row):
                value = _site_value(site, assignment)
                if site_override is not None:
                    value = site_override(r, c, value)
                grid_row.append(value)
            grid.append(grid_row)
        return grid

    def evaluate(self, assignment: int,
                 site_override: Callable[[int, int, bool], bool] | None = None) -> bool:
        """Operational semantics: top-bottom percolation through ON sites."""
        return top_bottom_connected(self.conduction_grid(assignment, site_override))

    def to_truth_table(self) -> TruthTable:
        """Dense semantics via the batched evaluation core.

        All ``2^n`` conduction grids are materialised in one broadcast and
        flooded together (:func:`repro.xbareval.lattice_truthtable`);
        bit-exact against :meth:`to_truth_table_scalar`.
        """
        return lattice_truthtable(self)

    def to_truth_table_scalar(self) -> TruthTable:
        """Scalar reference semantics (2^n union-find percolation checks).

        Kept as the bit-exact reference the batched
        :meth:`to_truth_table` fast path is property-tested against
        (``tests/test_xbareval.py``).
        """
        return TruthTable.from_callable(self.n, self.evaluate)

    def implements(self, table: TruthTable) -> bool:
        """True iff the lattice computes exactly ``table``."""
        if table.n != self.n:
            raise ValueError("variable space mismatch")
        return self.to_truth_table() == table

    def path_cover(self) -> Cover:
        """Symbolic semantics: one cube per self-avoiding top-bottom path.

        The OR of the returned cubes equals the lattice function; cubes with
        contradictory literals (paths through x and ~x) are dropped, and the
        result is not minimized.
        """
        cubes = []
        for path in enumerate_top_bottom_paths(self.rows, self.cols):
            literals: list[Literal] = []
            ok = True
            for r, c in path:
                site = self.sites[r][c]
                if site is True:
                    continue
                if site is False:
                    ok = False
                    break
                literals.append(site)
            if not ok:
                continue
            try:
                cubes.append(Cube.from_literals(self.n, literals))
            except ValueError:
                continue  # contradictory product conducts for no input
        return Cover(self.n, cubes).drop_contained()

    # ------------------------------------------------------------------
    # Constructors / transforms
    # ------------------------------------------------------------------
    @staticmethod
    def from_strings(n: int, rows: Sequence[str],
                     names: Sequence[str] | None = None) -> "Lattice":
        """Build from whitespace-separated tokens, e.g. ``["x1 x4", "x2 x5"]``.

        Tokens: ``0``/``1`` for constants, a variable name for a positive
        literal, a trailing ``'`` for a negative literal.
        """
        name_index = {name: i for i, name in enumerate(names)} if names else None

        def parse_site(token: str) -> Site:
            if token == "0":
                return False
            if token == "1":
                return True
            negative = token.endswith("'")
            base = token[:-1] if negative else token
            if name_index is not None:
                var = name_index[base]
            else:
                if not base.startswith("x"):
                    raise ValueError(f"bad site token {token!r}")
                var = int(base[1:]) - 1
            return Literal(var, not negative)

        return Lattice(n, [[parse_site(tok) for tok in row.split()] for row in rows])

    def with_site(self, r: int, c: int, site: Site) -> "Lattice":
        rows = [list(row) for row in self.sites]
        rows[r][c] = site
        return Lattice(self.n, rows)

    def map_sites(self, fn: Callable[[int, int, Site], Site]) -> "Lattice":
        return Lattice(self.n, [
            [fn(r, c, site) for c, site in enumerate(row)]
            for r, row in enumerate(self.sites)
        ])
