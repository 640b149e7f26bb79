"""Lattice expressiveness enumeration.

Which Boolean functions fit a given lattice shape?  For small shapes and
variable counts this is answerable exhaustively: enumerate every site
labelling (literals + constants), evaluate the lattice, and collect the
distinct functions — optionally collapsed to NPN classes (synthesis cost is
NPN-invariant on crossbars).

This quantifies the expressiveness trade-off behind [3]/[9]: how much
function coverage each extra site buys, and which functions *require*
area k (the optimality frontier the SAT synthesiser proves per-instance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..boolean.cube import Literal
from ..boolean.npn import npn_canonical
from ..boolean.truthtable import TruthTable
from ..crossbar.lattice import Site
from ..xbareval import evaluate_labellings

#: Labellings evaluated per batched flood call (bounds the dense
#: ``(chunk * 2^n, rows, cols)`` conduction tensor).
_CHUNK_LABELLINGS = 4096

#: Most labellings one enumeration may evaluate (guards the blow-up).
ENUMERATION_LIMIT = 2_000_000

#: Largest area :func:`minimal_area_map` enumerates shapes up to.
MINIMAL_AREA_MAX = 4


def _labels(n: int) -> list[Site]:
    labels: list[Site] = []
    for var in range(n):
        labels.append(Literal(var, True))
        labels.append(Literal(var, False))
    labels.extend([True, False])
    return labels


def _label_value_table(labels: list[Site], n: int) -> np.ndarray:
    """Boolean ``(num_labels, 2^n)`` value table of the candidate labels."""
    assignments = np.arange(1 << n, dtype=np.int64)
    values = np.empty((len(labels), 1 << n), dtype=bool)
    for k, label in enumerate(labels):
        if isinstance(label, Literal):
            values[k] = (((assignments >> label.var) & 1) == 1) == label.positive
        else:
            values[k] = bool(label)
    return values


def enumerate_lattice_functions(rows: int, cols: int,
                                n: int) -> set[TruthTable]:
    """All functions computable by some rows x cols lattice over n vars.

    Exhaustive over ``(2n+2)^(rows*cols)`` labellings;
    ``ENUMERATION_LIMIT`` guards the combinatorial blow-up.  Labellings are
    evaluated in chunks through the batched flood of
    :func:`repro.xbareval.evaluate_labellings` — one
    conduction tensor per chunk instead of one union-find call per
    (labelling, assignment) pair.
    """
    labels = _labels(n)
    sites = rows * cols
    num_labels = len(labels)
    total = num_labels ** sites
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"{total} labellings exceed the enumeration "
                         f"limit {ENUMERATION_LIMIT}")
    label_values = _label_value_table(labels, n)
    seen: set[bytes] = set()
    for start in range(0, total, _CHUNK_LABELLINGS):
        stop = min(start + _CHUNK_LABELLINGS, total)
        # Mixed-radix decode of the labelling indices (itertools.product
        # order: the last site varies fastest).
        codes = np.arange(start, stop, dtype=np.int64)
        grids = np.empty((stop - start, sites), dtype=np.int64)
        for s in range(sites - 1, -1, -1):
            grids[:, s] = codes % num_labels
            codes //= num_labels
        tables = evaluate_labellings(
            label_values, grids.reshape(stop - start, rows, cols))
        packed = np.packbits(tables, axis=1)
        seen.update(row.tobytes() for row in packed)
    return {
        TruthTable(n, np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                                    count=1 << n).astype(bool))
        for packed in seen
    }


@dataclass(frozen=True)
class ExpressivenessRow:
    """One (shape, n) entry of the expressiveness table."""

    rows: int
    cols: int
    n: int
    labellings: int
    distinct_functions: int
    npn_classes: int
    total_functions: int

    @property
    def coverage(self) -> float:
        return self.distinct_functions / self.total_functions


def expressiveness(rows: int, cols: int, n: int) -> ExpressivenessRow:
    """Distinct functions and NPN classes a shape realises over n vars."""
    functions = enumerate_lattice_functions(rows, cols, n)
    classes = {
        npn_canonical(f)[0].values.tobytes() for f in functions
    }
    labels = len(_labels(n))
    return ExpressivenessRow(
        rows=rows,
        cols=cols,
        n=n,
        labellings=labels ** (rows * cols),
        distinct_functions=len(functions),
        npn_classes=len(classes),
        total_functions=1 << (1 << n),
    )


def minimal_area_map(n: int) -> dict[TruthTable, int]:
    """Smallest lattice area, up to ``MINIMAL_AREA_MAX``, realising each
    reachable function.

    Enumerates shapes by increasing area; functions first reached at area k
    provably need k sites (every smaller shape was fully enumerated).
    """
    result: dict[TruthTable, int] = {}
    top = MINIMAL_AREA_MAX
    shapes = sorted(
        ((r, c) for r in range(1, top + 1) for c in range(1, top + 1)
         if r * c <= top),
        key=lambda shape: shape[0] * shape[1],
    )
    for r, c in shapes:
        area = r * c
        for function in enumerate_lattice_functions(r, c, n):
            # shapes arrive in increasing area, so first reach is minimal
            result.setdefault(function, area)
    return result
