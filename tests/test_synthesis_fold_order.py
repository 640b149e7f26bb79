"""The fold passes accept exactly the deletions and rewrites they always did.

``fold_lattice`` and ``simplify_sites`` scan candidates in a fixed order
and keep the first one that preserves the target, so a rewrite of how a
candidate is checked must not change which candidate wins.  The oracle
below is the plain formulation: build every candidate ``Lattice`` and ask
``Lattice.implements``.  The production passes must return equal
lattices on every case, through either flood dispatch (the scipy label
pass where scipy is installed, the packed floods with it hidden), also
when the target is not the input lattice's function.
"""

import random

import pytest

from repro.boolean import TruthTable
from repro.boolean.cube import Literal
from repro.crossbar.lattice import Lattice
from repro.eval.benchsuite import suite
from repro.synthesis import (
    fold_lattice,
    optimize_lattice,
    simplify_sites,
    synthesize_lattice_dual,
)
from repro.synthesis.optimize import remove_col, remove_row
from repro.xbareval import connectivity


def _oracle_fold(lattice, target):
    current = lattice
    improved = True
    while improved:
        improved = False
        r = 0
        while current.rows > 1 and r < current.rows:
            candidate = remove_row(current, r)
            if candidate.implements(target):
                current = candidate
                improved = True
            else:
                r += 1
        c = 0
        while current.cols > 1 and c < current.cols:
            candidate = remove_col(current, c)
            if candidate.implements(target):
                current = candidate
                improved = True
            else:
                c += 1
    return current


def _oracle_simplify(lattice, target):
    current = lattice
    for r in range(current.rows):
        for c in range(current.cols):
            site = current.site(r, c)
            if site is True or site is False:
                continue
            for replacement in (True, False):
                candidate = current.with_site(r, c, replacement)
                if candidate.implements(target):
                    current = candidate
                    break
    return current


def _suite_cases():
    return [(b.name, synthesize_lattice_dual(b.function.on), b.function.on)
            for b in suite(max_vars=6)]


def _random_lattice(rng: random.Random) -> Lattice:
    n = rng.randint(1, 4)
    shape = rng.choice([(1, rng.randint(1, 5)), (rng.randint(1, 5), 1),
                        (rng.randint(1, 5), rng.randint(1, 5))])
    constant_share = rng.choice([0.0, 0.25, 0.5])

    def site():
        if rng.random() < constant_share:
            return rng.random() < 0.5
        return Literal(rng.randrange(n), rng.random() < 0.5)

    return Lattice(n, [[site() for _ in range(shape[1])]
                       for _ in range(shape[0])])


def _random_cases():
    rng = random.Random(2017)
    cases = []
    for index in range(300):
        lattice = _random_lattice(rng)
        cases.append((f"random-{index}", lattice,
                      lattice.to_truth_table_scalar()))
    return cases


@pytest.fixture(scope="module", params=[_suite_cases, _random_cases],
                ids=["suite-duals", "random-lattices"])
def oracle_cases(request):
    """Each case with the oracle's fold, simplify and optimize results."""
    expected = []
    for name, lattice, target in request.param():
        folded = _oracle_fold(lattice, target)
        optimized = _oracle_fold(_oracle_simplify(folded, target), target)
        expected.append((name, lattice, target, folded,
                         _oracle_simplify(lattice, target), optimized))
    return expected


def _wrong_target_cases():
    """Each lattice of a few cases against two tables it does not compute:
    its function with one assignment flipped, and a random table of the
    same n."""
    rng = random.Random(21)
    cases = []
    for name, lattice, table in _suite_cases()[::3] + _random_cases()[:150]:
        flipped = list(table.values)
        flipped[rng.randrange(len(flipped))] ^= True
        cases.append((f"{name}-flipped", lattice,
                      TruthTable(table.n, flipped)))
        noise = [rng.random() < 0.5 for _ in range(len(flipped))]
        if noise != list(table.values):
            cases.append((f"{name}-random", lattice,
                          TruthTable(table.n, noise)))
    return cases


@pytest.fixture(scope="module")
def wrong_target_cases():
    """As ``oracle_cases``, for targets the input lattice does not compute."""
    expected = []
    for name, lattice, target in _wrong_target_cases():
        folded = _oracle_fold(lattice, target)
        optimized = _oracle_fold(_oracle_simplify(folded, target), target)
        expected.append((name, lattice, target, folded,
                         _oracle_simplify(lattice, target), optimized))
    return expected


@pytest.fixture(params=["dispatched", "no-scipy"])
def dispatch(request, monkeypatch):
    if request.param == "no-scipy":
        monkeypatch.setattr(connectivity, "_ndimage", None)
    return request.param


def test_fold_passes_match_the_oracle(oracle_cases, dispatch):
    for name, lattice, target, folded, simplified, optimized in oracle_cases:
        assert fold_lattice(lattice, target) == folded, name
        assert simplify_sites(lattice, target) == simplified, name
        assert optimize_lattice(lattice, target).lattice == optimized, name


def test_random_cases_cover_the_edge_shapes():
    lattices = [lattice for _, lattice, _ in _random_cases()]
    assert any(lattice.rows == 1 for lattice in lattices)
    assert any(lattice.cols == 1 for lattice in lattices)
    assert any(site is True or site is False
               for lattice in lattices for row in lattice.sites
               for site in row)


def test_fold_passes_match_the_oracle_on_a_wrong_target(wrong_target_cases,
                                                        dispatch):
    for name, lattice, target, folded, simplified, optimized in \
            wrong_target_cases:
        assert not lattice.implements(target), name
        assert fold_lattice(lattice, target) == folded, name
        assert simplify_sites(lattice, target) == simplified, name
        if optimized.implements(target):
            assert optimize_lattice(lattice, target).lattice == optimized, name
        else:
            with pytest.raises(RuntimeError):
                optimize_lattice(lattice, target)


def test_wrong_target_cases_reach_both_outcomes(wrong_target_cases):
    # An accepted rewrite makes the lattice compute the target, so a wrong
    # input is either repaired or returned as it is; both happen here.
    repaired = kept = 0
    for name, lattice, target, _, simplified, _ in wrong_target_cases:
        if simplified == lattice:
            kept += 1
        else:
            assert simplified.implements(target), name
            repaired += 1
    assert repaired and kept, (repaired, kept)
