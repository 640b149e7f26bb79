"""SAT-based exact lattice synthesis (the approach of [9], Gange et al.).

For a candidate shape R x C, a CNF encodes "some labelling of the R*C sites
with literals/constants computes exactly f":

* one-hot site labels ``s[r][c][k]`` over the 2n literals plus constants;
* per input assignment ``a``, a conduction variable ``g[r][c][a]`` tied to
  the chosen label's value under ``a``;
* for every ON minterm: some enumerated self-avoiding top-bottom path has
  all its sites conducting (Tseitin path selectors + one OR clause);
* for every OFF minterm: every top-bottom path is broken (one clause per
  path: the disjunction of its sites' ``~g``);
* symmetry clauses over Aut(f), the input permutations and negations that
  fix f (:func:`~repro.boolean.npn.input_automorphisms`, computed once per
  search).  Relabelling every site by one of them maps an f-lattice to an
  f-lattice of the same shape, so the last site in row-major order may
  hold only a constant or the least literal of its orbit, and the site
  before it only a constant or the least literal of its orbit under the
  stabiliser of the last site's label.  They cut the conflicts spent
  refuting the shapes below the optimum; above six inputs the group is
  taken as trivial and no clause is added.

Shapes are tried in increasing area; the first satisfiable shape is a
provably minimal-area lattice.  The dual-based construction (folded)
provides the upper bound that terminates the search.  Practical for the
same regime [9] reports exact results in (areas up to ~12-16 sites, few
variables); beyond that the search degrades gracefully to the heuristic
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from ..boolean.cube import Literal
from ..boolean.npn import NpnTransform, input_automorphisms
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Lattice, Site
from ..crossbar.paths import enumerate_top_bottom_paths
from ..sat.cnf import Cnf
from ..sat.encodings import exactly_one
from ..sat.solver import Solver
from ..xbareval import implements_table
from .compose import constant_lattice
from .lattice_dual import synthesize_lattice_dual
from .optimize import fold_lattice

#: Shapes whose path count exceeds this are skipped (encoding blow-up).
MAX_PATHS_PER_SHAPE = 4000


@lru_cache(maxsize=256)
def _paths_for_shape(rows: int, cols: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(enumerate_top_bottom_paths(rows, cols))


def _labels(n: int) -> list[Site]:
    labels: list[Site] = []
    for var in range(n):
        labels.append(Literal(var, True))
        labels.append(Literal(var, False))
    labels.append(True)
    labels.append(False)
    return labels


def _label_value(label: Site, assignment: int) -> bool:
    if label is True or label is False:
        return label
    return label.evaluate(assignment)


def _label_images(n: int, group: Sequence[NpnTransform]) -> list[list[int]]:
    """Each group element's action on the indices of :func:`_labels`.

    A transform sends the literal on input ``v`` to one on input
    ``perm[v]``, flipped when that input is negated: the input-only
    substitution the NPN cache rewrites lattices with
    (:func:`repro.engine.cache.transform_lattice_from_canonical`).
    Constants stay fixed.
    """
    images = []
    for transform in group:
        image = list(range(2 * n + 2))
        for var, old in enumerate(transform.permutation):
            flip = (transform.input_negation_mask >> old) & 1
            image[2 * var] = 2 * old + flip
            image[2 * var + 1] = 2 * old + (1 - flip)
        images.append(image)
    return images


def _symmetry_clauses(n: int, group: Sequence[NpnTransform],
                      first: Sequence[int],
                      second: Sequence[int] | None) -> list[list[int]]:
    """Stabiliser-chain symmetry break over two sites.

    Relabelling every site of an f-lattice by some ``sigma`` in Aut(f)
    gives another f-lattice of the same shape, so a shape has a solution
    iff it has one where site ``first`` (its label selectors) holds a
    constant or the least literal of its orbit, and site ``second`` holds
    a constant or the least literal of its orbit under the stabiliser of
    the first site's label.  Nothing is added once the group left is
    trivial.
    """
    clauses: list[list[int]] = []
    images = _label_images(n, group)
    if len(images) == 1:
        return clauses
    literals = range(2 * n)
    least = [min(image[k] for image in images) for k in literals]
    clauses.extend([-first[k]] for k in literals if least[k] < k)
    if second is None:
        return clauses
    for label in range(2 * n + 2):
        if label < 2 * n and least[label] < label:
            continue  # the first site never holds it
        stabiliser = [image for image in images if image[label] == label]
        if len(stabiliser) == 1:
            continue
        least_here = [min(image[k] for image in stabiliser) for k in literals]
        clauses.extend([-first[label], -second[k]]
                       for k in literals if least_here[k] < k)
    return clauses


def encode_shape(table: TruthTable, rows: int, cols: int,
                 group: Sequence[NpnTransform] | None = None
                 ) -> tuple[Cnf, list[list[list[int]]]]:
    """Build the CNF for one candidate shape.

    ``group`` is Aut(f) as :func:`~repro.boolean.npn.input_automorphisms`
    returns it (computed here when omitted); its symmetry clauses are
    part of the formula.  Returns the formula and the site-label selector
    variables ``site_vars[r][c][k]``.
    """
    n = table.n
    if group is None:
        group = input_automorphisms(table)
    labels = _labels(n)
    cnf = Cnf()
    site_vars = [[[cnf.new_var() for _ in labels] for _ in range(cols)]
                 for _ in range(rows)]
    # The break sits on the last two row-major sites, which the solver's
    # initial variable order decides last.  On the first two, the break
    # doubled the conflicts of the satisfiable shapes: 22.7k-25.5k
    # conflicts per ``exact`` pass at seeds 0, 13 and 29, against
    # 20.4k-20.8k here.
    sites = [site for row in site_vars for site in row]
    second = sites[-2] if len(sites) > 1 else None
    for clause in _symmetry_clauses(n, group, sites[-1], second):
        cnf.add_clause(clause)
    for site in sites:
        exactly_one(cnf, site)
    paths = _paths_for_shape(rows, cols)
    for assignment in range(1 << n):
        target = table.evaluate(assignment)
        g = [[cnf.new_var() for _ in range(cols)] for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                for k, label in enumerate(labels):
                    if _label_value(label, assignment):
                        cnf.add_clause([-site_vars[r][c][k], g[r][c]])
                    else:
                        cnf.add_clause([-site_vars[r][c][k], -g[r][c]])
        if target:
            selectors = []
            for path in paths:
                p = cnf.new_var()
                for r, c in path:
                    cnf.add_clause([-p, g[r][c]])
                selectors.append(p)
            cnf.add_clause(selectors)
        else:
            for path in paths:
                cnf.add_clause([-g[r][c] for r, c in path])
    return cnf, site_vars


def decode_lattice(table: TruthTable, rows: int, cols: int,
                   site_vars: list[list[list[int]]],
                   model: dict[int, bool]) -> Lattice:
    """Read the chosen labels out of a satisfying model."""
    labels = _labels(table.n)
    sites: list[list[Site]] = []
    for r in range(rows):
        row: list[Site] = []
        for c in range(cols):
            chosen = [k for k, var in enumerate(site_vars[r][c]) if model[var]]
            if len(chosen) != 1:
                raise RuntimeError("one-hot site labelling violated")
            row.append(labels[chosen[0]])
        sites.append(row)
    return Lattice(table.n, sites)


def candidate_shapes(max_area: int) -> list[tuple[int, int]]:
    """All shapes with area < max_area, by increasing area then squareness."""
    shapes = [
        (r, c)
        for r in range(1, max_area + 1)
        for c in range(1, max_area + 1)
        if r * c < max_area
    ]
    shapes.sort(key=lambda shape: (shape[0] * shape[1],
                                   abs(shape[0] - shape[1]), shape))
    return shapes


@dataclass
class OptimalSynthesisResult:
    """Outcome of the exact search."""

    lattice: Lattice
    proved_optimal: bool
    shapes_tried: list[tuple[int, int]] = field(default_factory=list)
    shapes_skipped: list[tuple[int, int]] = field(default_factory=list)
    conflicts: int = 0

    @property
    def area(self) -> int:
        return self.lattice.area

    @property
    def shape(self) -> tuple[int, int]:
        return self.lattice.shape


def synthesize_lattice_optimal(table: TruthTable,
                               conflict_budget: int | None = 200_000,
                               upper_bound: Lattice | None = None
                               ) -> OptimalSynthesisResult:
    """Find a minimum-area lattice for ``table``.

    Args:
        table: the target function (completely specified).
        conflict_budget: per-shape CDCL conflict cap; exceeding it skips the
            shape and forfeits the optimality proof.  Shapes with more than
            ``MAX_PATHS_PER_SHAPE`` top-bottom paths are skipped the same way.
        upper_bound: a known-correct lattice to cap the search (defaults to
            the folded dual-based construction).

    Returns:
        The best lattice found; ``proved_optimal`` is True when every
        smaller shape was refuted by the SAT solver.
    """
    if table.is_contradiction():
        return OptimalSynthesisResult(constant_lattice(table.n, False), True)
    if table.is_tautology():
        return OptimalSynthesisResult(constant_lattice(table.n, True), True)
    if upper_bound is None:
        upper_bound = fold_lattice(synthesize_lattice_dual(table), table)
    best = upper_bound
    group = input_automorphisms(table)
    proved = True
    tried: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    conflicts = 0
    for rows, cols in candidate_shapes(best.area):
        paths = _paths_for_shape(rows, cols)
        if not paths or len(paths) > MAX_PATHS_PER_SHAPE:
            if len(paths) > MAX_PATHS_PER_SHAPE:
                skipped.append((rows, cols))
                proved = False
            continue
        cnf, site_vars = encode_shape(table, rows, cols, group)
        solver = Solver()
        if not solver.add_cnf(cnf):
            tried.append((rows, cols))
            continue
        outcome = solver.solve(conflict_budget=conflict_budget)
        conflicts += solver.conflicts
        tried.append((rows, cols))
        if outcome is True:
            lattice = decode_lattice(table, rows, cols, site_vars, solver.model())
            if not implements_table(lattice, table):
                raise RuntimeError("SAT-synthesised lattice failed verification")
            return OptimalSynthesisResult(lattice, proved, tried, skipped, conflicts)
        if outcome is None:
            skipped.append((rows, cols))
            proved = False
    return OptimalSynthesisResult(best, proved, tried, skipped, conflicts)
