"""Property suite for the batched evaluation core (repro.xbareval).

Every kernel is asserted bit-exact against its scalar reference on
hypothesis-generated inputs:

* :func:`top_bottom_connected_batch` vs the union-find
  :func:`repro.crossbar.paths.top_bottom_connected`, on every flood of its
  dispatch (label pass, packed, unpacked) and on both sides of the 64-row
  packed limit, plus the percolation duality: the batched flood equals
  ``not`` :func:`repro.crossbar.paths.left_right_blocked_8` grid for grid;
* :func:`lattice_truthtable` / :func:`evaluate_masks` vs the scalar
  ``Lattice.to_truth_table_scalar`` / ``Lattice.evaluate`` loop,
  including the stuck-site overlay path;
* :func:`evaluate_labellings` vs building each lattice and evaluating it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.cube import Literal
from repro.crossbar.lattice import Lattice
from repro.crossbar.paths import (
    left_right_blocked_8,
    top_bottom_connected,
)
from repro.xbareval import (
    conduction_tensor,
    evaluate_labellings,
    evaluate_masks,
    implements_table,
    lattice_eval,
    lattice_truthtable,
    top_bottom_connected_batch,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def grid_batches(draw):
    batch = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=batch * rows * cols,
                         max_size=batch * rows * cols))
    return np.array(bits, dtype=bool).reshape(batch, rows, cols)


@st.composite
def lattices(draw, max_vars: int = 4, max_side: int = 4):
    n = draw(st.integers(1, max_vars))
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    site = st.one_of(
        st.just(True),
        st.just(False),
        st.builds(Literal, st.integers(0, n - 1), st.booleans()),
    )
    sites = draw(st.lists(st.lists(site, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    return Lattice(n, sites)


# ----------------------------------------------------------------------
# Connectivity kernels vs the scalar union-find
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(grid_batches())
def test_top_bottom_connected_batch_matches_scalar(grids):
    got = top_bottom_connected_batch(grids)
    want = [top_bottom_connected(g.tolist()) for g in grids]
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(grid_batches())
def test_all_kernel_variants_agree(grids):
    """Label-pass, packed-bitset and unpacked floods are interchangeable
    (whichever the dispatch picks, the others must match it)."""
    from repro.xbareval import connectivity as conn

    tb = [top_bottom_connected(g.tolist()) for g in grids]
    assert conn._top_bottom_connected_packed(grids).tolist() == tb
    assert conn._top_bottom_connected_unpacked(grids).tolist() == tb
    if conn._ndimage is not None:
        assert conn._top_bottom_connected_label(grids).tolist() == tb


@settings(max_examples=120, deadline=None)
@given(grid_batches())
def test_percolation_duality_invariant(grids):
    """Top-bottom ON disconnection <=> an 8-connected OFF left-right path."""
    assert top_bottom_connected_batch(grids).tolist() == [
        not left_right_blocked_8(g.tolist()) for g in grids]


def test_degenerate_shapes():
    assert top_bottom_connected_batch(
        np.zeros((3, 0, 4), dtype=bool)).tolist() == [False] * 3
    assert top_bottom_connected_batch(
        np.zeros((2, 4, 0), dtype=bool)).tolist() == [False] * 2
    with pytest.raises(ValueError):
        top_bottom_connected_batch(np.zeros((4, 4), dtype=bool))


def test_serpentine_worst_case():
    """A maximally bent path still floods to the bottom."""
    rows, cols = 7, 7
    grid = np.zeros((rows, cols), dtype=bool)
    col = 0
    for r in range(rows):
        if r % 2 == 0:
            grid[r, :] = True
        else:
            grid[r, col] = True
            col = cols - 1 - col
    assert top_bottom_connected_batch(grid[None])[0]
    assert top_bottom_connected(grid.tolist())
    # cutting the last connector disconnects both implementations
    cut = grid.copy()
    cut[rows - 2, :] = False
    assert not top_bottom_connected_batch(cut[None])[0]
    assert not top_bottom_connected(cut.tolist())


# ----------------------------------------------------------------------
# Tall grids: both sides of the 64-row packed limit
# ----------------------------------------------------------------------
#: The heights the tall-grid suite pins: both sides of the packed flood's
#: 64-row limit plus genuinely tall fabrics.
TALL_ROW_REGIMES = (63, 64, 65, 128, 200)


@st.composite
def tall_grid_batches(draw):
    rows = draw(st.sampled_from(TALL_ROW_REGIMES))
    batch = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.floats(0.3, 0.8))
    rng = np.random.default_rng(seed)
    return rng.random((batch, rows, cols)) < density


@settings(max_examples=30, deadline=None)
@given(tall_grid_batches())
def test_tall_grid_floods_match_scalar(grids):
    """The dispatched flood equals the scalar union-find at every pinned
    height, as dispatched and with scipy hidden (packed up to 64 rows,
    unpacked above)."""
    from repro.xbareval import connectivity as conn

    want = [top_bottom_connected(g.tolist()) for g in grids]
    assert top_bottom_connected_batch(grids).tolist() == want
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conn, "_ndimage", None)
        assert top_bottom_connected_batch(grids).tolist() == want


def test_one_cell_wide_path_across_row_64(monkeypatch):
    """A single one-cell-wide path crossing rows 63 -> 64, and its cut at
    row 64, through the dispatch with scipy hidden."""
    from repro.xbareval import connectivity as conn

    monkeypatch.setattr(conn, "_ndimage", None)
    for rows in (65, 128, 200):
        grid = np.zeros((1, rows, 3), dtype=bool)
        grid[0, :, 1] = True
        assert top_bottom_connected_batch(grid)[0]
        cut = grid.copy()
        cut[0, 64, 1] = False
        assert not top_bottom_connected_batch(cut)[0]
        assert not top_bottom_connected(cut[0].tolist())


def test_dispatch_without_scipy_floods_by_height(monkeypatch):
    """Without scipy, grids of up to 64 rows take the packed flood and
    taller ones the unpacked flood."""
    from repro.xbareval import connectivity as conn

    calls = []
    for name in ("_top_bottom_connected_packed",
                 "_top_bottom_connected_unpacked"):
        real = getattr(conn, name)
        monkeypatch.setattr(
            conn, name,
            lambda grids, name=name, real=real:
                calls.append(name) or real(grids))
    monkeypatch.setattr(conn, "_ndimage", None)
    rng = np.random.default_rng(5)
    for rows, flood in ((64, "_top_bottom_connected_packed"),
                        (65, "_top_bottom_connected_unpacked")):
        calls.clear()
        grids = rng.random((2, rows, 4)) < 0.6
        got = top_bottom_connected_batch(grids)
        assert calls == [flood]
        assert got.tolist() == [top_bottom_connected(g.tolist())
                                for g in grids]


def test_scipy_label_failure_degrades_once(monkeypatch):
    """A scipy ABI failure mid-call falls back to the numpy floods for
    the rest of the process instead of raising mid-campaign."""
    from repro.xbareval import connectivity as conn

    if conn._ndimage is None:
        pytest.skip("scipy not installed")

    calls = []

    class _BrokenNdimage:
        @staticmethod
        def label(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("simulated ABI break")

    monkeypatch.setattr(conn, "_ndimage", _BrokenNdimage)
    monkeypatch.setattr(conn, "_label_healthy", True)
    rng = np.random.default_rng(9)
    grids = rng.random((3, 5, 5)) < 0.5
    want = conn._top_bottom_connected_unpacked(grids)
    assert np.array_equal(top_bottom_connected_batch(grids), want)
    assert conn._label_healthy is False  # flag flipped, logged once
    # later batches skip the broken accelerator entirely
    assert np.array_equal(top_bottom_connected_batch(grids), want)
    assert calls == [1]


# ----------------------------------------------------------------------
# Lattice truth tables vs the scalar 2^n loop
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(lattices())
def test_lattice_truthtable_matches_scalar(lattice):
    fast = lattice_truthtable(lattice)
    slow = lattice.to_truth_table_scalar()
    assert fast == slow
    assert lattice.to_truth_table() == slow
    assert implements_table(lattice, slow)


@settings(max_examples=50, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_evaluate_assignments_matches_scalar(lattice, seed):
    rng = random.Random(seed)
    assignments = [rng.randrange(1 << lattice.n) for _ in range(8)]
    got = evaluate_masks(lattice.n, lattice_eval.site_masks(lattice),
                         np.array(assignments))
    assert got.tolist() == [lattice.evaluate(a) for a in assignments]


@settings(max_examples=50, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 3, 1 << 14]))
def test_evaluate_masks_on_chosen_assignments(lattice, seed, chunk):
    """Entry b of a chosen-assignment evaluation is the lattice's output on
    assignments[b], whatever the chunk size; by default all 2^n in order."""
    rng = random.Random(seed)
    assignments = [rng.randrange(1 << lattice.n) for _ in range(rng.randrange(9))]
    masks = lattice_eval.site_masks(lattice)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_eval, "CHUNK_ASSIGNMENTS", chunk)
        chosen = evaluate_masks(lattice.n, masks, np.array(assignments))
        every = evaluate_masks(lattice.n, masks)
    assert chosen.tolist() == [lattice.evaluate(a) for a in assignments]
    assert every.tolist() == lattice.to_truth_table_scalar().values.tolist()


@settings(max_examples=50, deadline=None)
@given(lattices(max_side=3), st.integers(0, 2 ** 32 - 1))
def test_overlays_match_scalar_site_override(lattice, seed):
    """force_on/force_off agree with the scalar site_override hook."""
    rng = random.Random(seed)
    force_on = np.array([[rng.random() < 0.2 for _ in range(lattice.cols)]
                         for _ in range(lattice.rows)])
    force_off = np.array([[rng.random() < 0.2 for _ in range(lattice.cols)]
                          for _ in range(lattice.rows)]) & ~force_on

    def override(r, c, nominal):
        if force_on[r, c]:
            return True
        if force_off[r, c]:
            return False
        return nominal

    fast = lattice_truthtable(lattice, force_on=force_on,
                              force_off=force_off)
    for assignment in range(1 << lattice.n):
        assert fast.evaluate(assignment) == \
            lattice.evaluate(assignment, override)


@settings(max_examples=40, deadline=None)
@given(lattices(max_side=3), st.integers(0, 2 ** 32 - 1))
def test_conduction_tensor_matches_scalar_grid(lattice, seed):
    rng = random.Random(seed)
    assignments = [rng.randrange(1 << lattice.n) for _ in range(4)]
    tensor = conduction_tensor(lattice, np.array(assignments))
    for b, assignment in enumerate(assignments):
        assert tensor[b].tolist() == lattice.conduction_grid(assignment)


# ----------------------------------------------------------------------
# Batched labelling enumeration vs per-lattice evaluation
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_evaluate_labellings_matches_lattice_eval(n, rows, cols, seed):
    rng = random.Random(seed)
    labels = []
    for var in range(n):
        labels.extend([Literal(var, True), Literal(var, False)])
    labels.extend([True, False])
    assignments = np.arange(1 << n)
    label_values = np.array([
        [lab.evaluate(int(a)) if isinstance(lab, Literal) else bool(lab)
         for a in assignments]
        for lab in labels
    ])
    grids = np.array([
        [[rng.randrange(len(labels)) for _ in range(cols)]
         for _ in range(rows)]
        for _ in range(5)
    ])
    tables = evaluate_labellings(label_values, grids)
    for b in range(5):
        lattice = Lattice(n, [[labels[grids[b, r, c]] for c in range(cols)]
                              for r in range(rows)])
        assert tables[b].tolist() == \
            lattice.to_truth_table_scalar().values.tolist()
