"""NPN-canonical cache keys, witness rewrites, and the cache rows."""

from __future__ import annotations

import random

import pytest

from repro.boolean.npn import apply_transform, npn_canonical
from repro.boolean.truthtable import TruthTable
from repro.engine import portfolio
from repro.engine.cache import (
    CachedResult,
    cache_key,
    canonical_cache_key,
    canonical_polarity_table,
    lattice_from_text,
    lattice_to_text,
    result_from_json,
    result_to_json,
    transform_lattice_from_canonical,
    transform_lattice_to_canonical,
)
from repro.engine.jobs import StrategyOutcome
from repro.engine.store import JsonStore
from repro.synthesis.compose import constant_lattice
from repro.synthesis.lattice_dual import synthesize_lattice_dual
from repro.synthesis.optimize import fold_lattice


def _random_tables(count: int, seed: int, max_vars: int = 4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_vars)
        bits = rng.getrandbits(1 << n)
        yield TruthTable.from_bits(n, bits)


def _synthesize(table: TruthTable):
    if table.is_constant():
        return constant_lattice(table.n, bool(table.evaluate(0)))
    return fold_lattice(synthesize_lattice_dual(table), table)


class TestCanonicalRoundTrip:
    def test_canonicalize_synthesize_untransform(self):
        """The satellite contract: canonicalize -> synthesize on the
        canonical-polarity function -> rewrite back through the stored
        witness -> the recovered lattice evaluates the original function
        on all 2^n inputs."""
        for table in _random_tables(40, seed=2017):
            canon, transform = canonical_cache_key(table)
            g = canonical_polarity_table(table, transform)
            lattice_g = _synthesize(g)
            recovered = transform_lattice_from_canonical(lattice_g, transform)
            assert recovered.implements(table), (
                f"witness rewrite broke {table!r} via {transform}")

    def test_forward_transform_is_inverse(self):
        """to_canonical(from_canonical(L)) and vice versa are identities."""
        for table in _random_tables(25, seed=7):
            _, transform = canonical_cache_key(table)
            g = canonical_polarity_table(table, transform)
            lattice_f = _synthesize(table)
            lattice_g = transform_lattice_to_canonical(lattice_f, transform)
            assert lattice_g.implements(g)
            back = transform_lattice_from_canonical(lattice_g, transform)
            assert back == lattice_f

    def test_canonical_polarity_reaches_g_by_input_transforms(self):
        """g(x) = f(sigma(x)): re-deriving g through apply_transform with
        the output negation stripped must agree."""
        for table in _random_tables(25, seed=99):
            _, transform = canonical_cache_key(table)
            g = canonical_polarity_table(table, transform)
            canonical = apply_transform(table, transform)
            expected = ~canonical if transform.output_negate else canonical
            assert g == expected

    def test_npn_class_members_share_keys(self):
        base = TruthTable.from_bits(3, 0b10010110)  # xor3
        canon_base, _ = canonical_cache_key(base)
        rng = random.Random(5)
        for _ in range(5):
            perm = list(range(3))
            rng.shuffle(perm)
            variant = base.permute(perm)
            canon, _ = canonical_cache_key(variant)
            assert canon == canon_base

    def test_complement_shares_npn_key_distinct_polarity_table(self):
        f = TruthTable.from_bits(3, 0b11101000)  # maj3
        g = ~f
        key_f, t_f = canonical_cache_key(f)
        key_g, t_g = canonical_cache_key(g)
        assert key_f == key_g  # same NPN class
        # but the canonical-polarity functions each round-trip correctly
        for table, transform in ((f, t_f), (g, t_g)):
            gp = canonical_polarity_table(table, transform)
            lattice = _synthesize(gp)
            assert transform_lattice_from_canonical(
                lattice, transform).implements(table)

    def test_large_n_uses_semicanonical_witness(self):
        """Past n = 6 the key comes from npn_semicanonical: still a real
        witness (g reachable from f by input transforms alone), and
        classmates share the key when the invariants are tie-free."""
        from repro.boolean.npn import NpnTransform, npn_semicanonical

        rng = random.Random(13)
        table = TruthTable.from_bits(7, rng.getrandbits(128))
        canon, transform = canonical_cache_key(table)
        rep, semi_transform = npn_semicanonical(table)
        assert transform == semi_transform
        assert canon == rep.content_hash()
        # the witness is real: the canonical-polarity g round-trips
        g = canonical_polarity_table(table, transform)
        assert apply_transform(table, transform) == \
            (~g if transform.output_negate else g)
        # classmates land on the same key (random n=7 tables are tie-free)
        for _ in range(5):
            mate = apply_transform(table, NpnTransform(
                tuple(rng.sample(range(7), 7)), rng.getrandbits(7),
                rng.random() < 0.5))
            mate_canon, _ = canonical_cache_key(mate)
            assert mate_canon == canon

    def test_n6_gets_exact_npn_keys(self):
        """The lifted limit: n = 6 classmates share one canonical key
        (no identity-witness fallback hashing)."""
        rng = random.Random(11)
        from repro.boolean.npn import NpnTransform, apply_transform

        table = TruthTable.from_bits(6, rng.getrandbits(64))
        canon, transform = canonical_cache_key(table)
        assert transform.permutation != tuple(range(6)) or \
            transform.input_negation_mask != 0 or transform.output_negate or \
            apply_transform(table, transform) == table
        for _ in range(5):
            mate = apply_transform(table, NpnTransform(
                tuple(rng.sample(range(6), 6)), rng.getrandbits(6),
                rng.random() < 0.5))
            mate_canon, mate_transform = canonical_cache_key(mate)
            assert mate_canon == canon
            g = canonical_polarity_table(mate, mate_transform)
            assert apply_transform(mate, mate_transform) == \
                (~g if mate_transform.output_negate else g)

    def test_exhaustive_n2(self):
        """Every 2-variable function round-trips (16 functions, cheap)."""
        for bits in range(16):
            table = TruthTable.from_bits(2, bits)
            _, transform = canonical_cache_key(table)
            g = canonical_polarity_table(table, transform)
            lattice = _synthesize(g)
            assert transform_lattice_from_canonical(
                lattice, transform).implements(table)


class TestLatticeSerialisation:
    def test_round_trip(self):
        for table in _random_tables(15, seed=3):
            lattice = _synthesize(table)
            text = lattice_to_text(lattice)
            assert lattice_from_text(lattice.n, text) == lattice


class TestResultCache:
    """The NPN result cache: codec rows in the shared ``JsonStore``."""

    def _entry(self, table: TruthTable) -> CachedResult:
        lattice = _synthesize(table)
        outcome = StrategyOutcome("dual", "ok", lattice.area, lattice.shape,
                                  0.1, "")
        return CachedResult("dual", lattice, (outcome,))

    @staticmethod
    def _get(store, n, canon, polarity, config):
        return result_from_json(n, store.get(cache_key(n, canon, polarity,
                                                       config)))

    @staticmethod
    def _put(store, n, canon, polarity, config, result):
        store.put(cache_key(n, canon, polarity, config),
                  result_to_json(result))

    def test_put_get_memory(self):
        table = TruthTable.from_bits(3, 0b10010110)
        canon, _ = canonical_cache_key(table)
        with JsonStore() as cache:
            assert self._get(cache, 3, canon, False, "cfg") is None
            self._put(cache, 3, canon, False, "cfg", self._entry(table))
            got = self._get(cache, 3, canon, False, "cfg")
            assert got is not None
            assert got.strategy == "dual"
            assert got.lattice.implements(table)
            assert got.outcomes[0].strategy == "dual"
            assert len(cache) == 1

    def test_config_isolation(self):
        table = TruthTable.from_bits(3, 0b10010110)
        canon, _ = canonical_cache_key(table)
        with JsonStore() as cache:
            self._put(cache, 3, canon, False, "cfg-a", self._entry(table))
            assert self._get(cache, 3, canon, False, "cfg-b") is None

    def test_polarity_slots_are_distinct(self):
        """A class stores up to two lattices: one per witness polarity."""
        f = TruthTable.from_bits(2, 0b1000)  # AND2
        g = ~f                                # NAND2: same NPN class
        key_f, t_f = canonical_cache_key(f)
        key_g, t_g = canonical_cache_key(g)
        assert key_f == key_g
        assert t_f.output_negate != t_g.output_negate
        with JsonStore() as cache:
            self._put(cache, 2, key_f, t_f.output_negate, "cfg",
                      self._entry(f))
            assert self._get(cache, 2, key_g, t_g.output_negate,
                             "cfg") is None
            self._put(cache, 2, key_g, t_g.output_negate, "cfg",
                      self._entry(g))
            assert len(cache) == 2
            got = self._get(cache, 2, key_f, t_f.output_negate, "cfg")
            assert got is not None and got.lattice.implements(f)

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        table = TruthTable.from_bits(4, 0x6996)
        canon, _ = canonical_cache_key(table)
        with JsonStore(path) as cache:
            self._put(cache, 4, canon, False, "cfg", self._entry(table))
        with JsonStore(path) as cache:
            got = self._get(cache, 4, canon, False, "cfg")
            assert got is not None
            assert got.lattice.implements(table)


def test_cache_key_width_is_stable():
    """Keys are fixed-width content hashes so ranges of n never collide
    textually (the wire format serialises n, so equal-bits tables of
    different arity hash apart)."""
    canon1, _ = canonical_cache_key(TruthTable.from_bits(1, 0b01))
    canon4, _ = canonical_cache_key(TruthTable.from_bits(4, 1))
    assert len(canon1) == 64
    assert len(canon4) == 64
    assert canon1 != canon4


def test_portfolio_fingerprint_text_is_pinned(monkeypatch):
    """The gates' fingerprint is part of every cache key: any change to
    its text makes every existing on-disk cache miss."""
    assert portfolio.fingerprint() == (
        '{"dreducible_max_vars": 8, "optimal_conflict_budget": 20000, '
        '"optimal_max_upper_area": 16, "optimal_max_vars": 4, '
        '"pcircuit_max_vars": 6, '
        '"strategies": ["dual", "dreducible", "pcircuit", "optimal"]}')
    pinned = portfolio.fingerprint()
    monkeypatch.setattr(portfolio, "DREDUCIBLE_MAX_VARS", 3)
    assert portfolio.fingerprint() != pinned


def test_npn_canonical_matches_module_for_small_n():
    table = TruthTable.from_bits(4, 0x1234)
    canon_text, transform = canonical_cache_key(table)
    canonical, expected = npn_canonical(table)
    assert transform == expected
    assert canon_text == canonical.content_hash()


@pytest.mark.parametrize("bits", [0, 0xFF])
def test_constant_tables_round_trip(bits):
    table = TruthTable.from_bits(3, bits)
    _, transform = canonical_cache_key(table)
    g = canonical_polarity_table(table, transform)
    lattice = _synthesize(g)
    assert transform_lattice_from_canonical(lattice, transform).implements(table)
