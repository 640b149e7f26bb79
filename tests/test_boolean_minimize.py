"""Tests for two-level minimization: QM primes, exact covering, espresso loop."""

from hypothesis import given, settings, strategies as st

from repro.boolean import (
    Cover,
    Cube,
    TruthTable,
    exact_minimize,
    heuristic_minimize,
    isop,
    minimize,
    prime_implicants,
    verify_cover,
)


def tables(n=4):
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


def brute_force_min_products(t: TruthTable) -> int:
    """Minimum cover cardinality by exhaustive search over prime subsets."""
    primes = prime_implicants(t)
    target = set(t.minterms())
    if not target:
        return 0
    from itertools import combinations

    for k in range(1, len(primes) + 1):
        for subset in combinations(primes, k):
            covered = set()
            for cube in subset:
                covered |= set(cube.minterms())
            if target <= covered:
                return k
    raise AssertionError("primes cannot cover the function")


class TestPrimeImplicants:
    def test_known_example(self):
        # f = m(0,1,2,5,6,7) over 3 vars: classic QM teaching example with
        # primes: x0'x1', x0x2', x1'x2... let's check via semantics instead.
        t = TruthTable.from_minterms(3, [0, 1, 2, 5, 6, 7])
        primes = prime_implicants(t)
        for p in primes:
            # every prime is an implicant
            assert all(t.evaluate(m) for m in p.minterms())
            # and maximal: removing any literal escapes the on-set
            for lit in p.literals():
                bigger = p.remove_variable(lit.var)
                assert not all(t.evaluate(m) for m in bigger.minterms())

    def test_tautology_prime_is_universe(self):
        t = TruthTable.constant(3, True)
        assert prime_implicants(t) == [Cube.universe(3)]

    def test_contradiction_has_no_primes(self):
        assert prime_implicants(TruthTable.constant(3, False)) == []

    def test_dont_cares_extend_primes(self):
        on = TruthTable.from_minterms(2, [3])
        dc = TruthTable.from_minterms(2, [1])
        primes = prime_implicants(on, dc)
        # with dc at 01, x1 (i.e. "-1" in bit order var0=1) becomes a prime
        assert Cube.from_string("1-") in primes

    @given(tables())
    @settings(max_examples=60)
    def test_primes_are_maximal_implicants(self, t):
        primes = prime_implicants(t)
        for p in primes:
            assert all(t.evaluate(m) for m in p.minterms())
            for lit in p.literals():
                bigger = p.remove_variable(lit.var)
                assert not all(t.evaluate(m) for m in bigger.minterms())


class TestExactMinimize:
    def test_xor_needs_two_products(self):
        t = TruthTable.from_minterms(2, [1, 2])
        cover = exact_minimize(t)
        assert cover.num_products == 2
        assert verify_cover(cover, t)

    def test_parity_n_needs_2_to_nminus1(self):
        for n in (2, 3, 4):
            t = TruthTable.from_callable(n, lambda m: bin(m).count("1") % 2 == 1)
            cover = exact_minimize(t)
            assert cover.num_products == 1 << (n - 1)
            assert verify_cover(cover, t)

    def test_constants(self):
        assert exact_minimize(TruthTable.constant(3, False)).num_products == 0
        taut = exact_minimize(TruthTable.constant(3, True))
        assert taut.num_products == 1 and taut[0].num_literals == 0

    def test_dont_cares_reduce_cover(self):
        # on = {3}, dc = {1, 2}: a single literal suffices
        on = TruthTable.from_minterms(2, [3])
        dc = TruthTable.from_minterms(2, [1])
        cover = exact_minimize(on, dc)
        assert cover.num_products == 1
        assert cover[0].num_literals == 1
        assert verify_cover(cover, on, dc)

    def test_all_dc_gives_empty_cover(self):
        on = TruthTable.constant(2, False)
        dc = TruthTable.constant(2, True)
        assert exact_minimize(on, dc).num_products == 0

    @given(tables(3))
    @settings(max_examples=40)
    def test_matches_brute_force_cardinality(self, t):
        cover = exact_minimize(t)
        assert verify_cover(cover, t)
        assert cover.num_products == brute_force_min_products(t)

    @given(tables(4))
    @settings(max_examples=30)
    def test_exact_is_valid_and_irredundant(self, t):
        cover = exact_minimize(t)
        assert verify_cover(cover, t)
        cubes = list(cover)
        for i in range(len(cubes)):
            rest = Cover(cover.n, cubes[:i] + cubes[i + 1:])
            assert rest.to_truth_table() != t or t.is_contradiction()


class TestIsop:
    @given(tables())
    @settings(max_examples=60)
    def test_isop_covers_exactly(self, t):
        cover = isop(t)
        assert cover.to_truth_table() == t

    @given(tables(3))
    @settings(max_examples=40)
    def test_isop_with_dc_stays_in_interval(self, t):
        dc = TruthTable.from_callable(3, lambda m: m % 3 == 0)
        on = t.difference(dc)
        cover = isop(on, dc)
        sem = cover.to_truth_table()
        assert on.difference(dc).implies(sem)
        assert sem.implies(on | dc)

    def test_isop_irredundant_on_sample(self):
        t = TruthTable.from_minterms(3, [1, 3, 5, 7, 6])
        cover = isop(t)
        cubes = list(cover)
        for i in range(len(cubes)):
            rest = Cover(cover.n, cubes[:i] + cubes[i + 1:])
            assert not rest.to_truth_table() == t


class TestHeuristic:
    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_valid(self, t):
        cover = heuristic_minimize(t)
        assert verify_cover(cover, t)

    @given(tables(3))
    @settings(max_examples=25, deadline=None)
    def test_heuristic_close_to_exact(self, t):
        h = heuristic_minimize(t)
        e = exact_minimize(t)
        assert h.num_products <= e.num_products + 2

    def test_heuristic_on_majority5(self):
        t = TruthTable.from_callable(5, lambda m: bin(m).count("1") >= 3)
        cover = heuristic_minimize(t)
        assert verify_cover(cover, t)
        assert cover.num_products == 10  # C(5,3) products of 3 literals


class TestMinimizeDispatch:
    def test_auto_small_uses_exact(self):
        t = TruthTable.from_minterms(2, [1, 2])
        assert minimize(t).num_products == 2

    def test_methods_agree_semantically(self):
        t = TruthTable.from_minterms(4, [0, 2, 5, 7, 8, 10, 13, 15])
        for engine in (exact_minimize, heuristic_minimize, isop):
            cover = engine(t)
            assert cover.to_truth_table() == t

    def test_verify_cover_rejects_bad_cover(self):
        t = TruthTable.from_minterms(2, [1, 2])
        bad = Cover.from_strings(["1-"])
        assert not verify_cover(bad, t)
