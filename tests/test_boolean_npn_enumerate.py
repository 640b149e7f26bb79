"""Tests for NPN classification and lattice expressiveness enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import (
    TruthTable,
    apply_transform,
    npn_canonical,
    npn_semicanonical,
)
from repro.boolean.npn import NpnTransform
from repro.synthesis import (
    enumerate_lattice_functions,
    expressiveness,
    minimal_area_map,
)


def tables(n=3):
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


def canonical(table):
    return npn_canonical(table)[0]


def class_count(n):
    """Number of NPN classes among all n-variable functions."""
    return len({canonical(TruthTable.from_bits(n, bits))
                for bits in range(1 << (1 << n))})


class TestNpn:
    def test_classic_class_counts(self):
        assert class_count(1) == 2   # constants vs. the literal
        assert class_count(2) == 4
        assert class_count(3) == 14

    def test_and_or_same_class(self):
        a = TruthTable.from_minterms(2, [3])          # x1 & x2
        o = TruthTable.from_minterms(2, [1, 2, 3])    # x1 | x2
        assert canonical(a) == canonical(o)   # complement inputs + output

    def test_xor_not_equivalent_to_and(self):
        x = TruthTable.from_minterms(2, [1, 2])
        a = TruthTable.from_minterms(2, [3])
        assert canonical(x) != canonical(a)

    @given(tables())
    @settings(max_examples=30, deadline=None)
    def test_canonical_transform_is_witness(self, t):
        canonical, transform = npn_canonical(t)
        assert apply_transform(t, transform) == canonical

    @given(tables(2), st.permutations([0, 1]),
           st.integers(min_value=0, max_value=3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_canonical_invariant_under_transforms(self, t, perm, neg, out):
        transformed = apply_transform(t, NpnTransform(tuple(perm), neg, out))
        assert npn_canonical(t)[0] == npn_canonical(transformed)[0]

    def test_classes_grouping(self):
        all_two_var = [TruthTable.from_bits(2, bits) for bits in range(16)]
        groups = {}
        for table in all_two_var:
            groups.setdefault(canonical(table), []).append(table)
        assert len(groups) == 4
        assert sum(len(v) for v in groups.values()) == 16

    def test_large_n_rejected(self):
        # the pruned search is exact through n = 6; beyond that it refuses
        with pytest.raises(ValueError):
            npn_canonical(TruthTable.constant(7, True))


class TestNpnSemicanonical:
    """The wide-n semi-canonical key: always a valid witness, never merges
    distinct classes, and in practice agrees across random classmates."""

    @given(tables())
    @settings(max_examples=30, deadline=None)
    def test_transform_is_witness(self, t):
        rep, transform = npn_semicanonical(t)
        assert apply_transform(t, transform) == rep

    @given(tables(2), st.permutations([0, 1]),
           st.integers(min_value=0, max_value=3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_never_merges_classes(self, t, perm, neg, out):
        # two tables mapping to the same representative ARE NPN-equivalent
        # (the representative is itself an NPN transform of each)
        other = apply_transform(t, NpnTransform(tuple(perm), neg, out))
        rep_t, _ = npn_semicanonical(t)
        rep_o, _ = npn_semicanonical(other)
        if rep_t == rep_o:
            assert canonical(t) == canonical(other)

    def test_wide_n_classmates_usually_agree(self):
        # semi-canonical means a class MAY split, but random n=7 functions
        # should near-always collapse (the engine cache relies on this for
        # its hit rate; exactness is guaranteed separately by the stored
        # g-table probe)
        import random

        rng = random.Random(99)
        agree = trials = 0
        for _ in range(12):
            t = TruthTable.from_bits(7, rng.getrandbits(1 << 7))
            rep, _ = npn_semicanonical(t)
            for _ in range(3):
                perm = list(range(7))
                rng.shuffle(perm)
                mate = apply_transform(
                    t, NpnTransform(tuple(perm), rng.getrandbits(7),
                                    bool(rng.getrandbits(1))))
                trials += 1
                agree += npn_semicanonical(mate)[0] == rep
        assert trials == 36
        assert agree >= 34  # near-perfect collapse on random functions


class TestEnumeration:
    def test_single_site_functions(self):
        functions = enumerate_lattice_functions(1, 1, 2)
        # 4 literals + 2 constants = 6 distinct functions
        assert len(functions) == 6

    def test_row_of_two_is_or_of_sites(self):
        functions = enumerate_lattice_functions(1, 2, 1)
        # over 1 variable: {0, 1, x, ~x, x|~x=1, ...} = {0,1,x,~x}
        assert len(functions) == 4

    def test_column_of_two_is_and_of_sites(self):
        functions = enumerate_lattice_functions(2, 1, 1)
        assert len(functions) == 4

    def test_2x2_realises_everything_over_two_vars(self):
        functions = enumerate_lattice_functions(2, 2, 2)
        assert len(functions) == 16

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            enumerate_lattice_functions(4, 4, 3)

    def test_expressiveness_row_fields(self):
        row = expressiveness(2, 2, 2)
        assert row.coverage == 1.0
        assert row.npn_classes == 4
        assert row.labellings == 6 ** 4

    def test_minimal_area_map_known_entries(self):
        frontier = minimal_area_map(2)
        and2 = TruthTable.from_minterms(2, [3])
        or2 = TruthTable.from_minterms(2, [1, 2, 3])
        xor2 = TruthTable.from_minterms(2, [1, 2])
        lit = TruthTable.variable(2, 0)
        assert frontier[lit] == 1
        assert frontier[and2] == 2
        assert frontier[or2] == 2
        assert frontier[xor2] == 4
        # the frontier covers the entire 2-variable space by area 4
        assert len(frontier) == 16


class TestPrunedCanonicalSearch:
    """The packed-uint64 pruned search vs the blind-enumeration reference."""

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pruned_matches_exhaustive(self, n, data):
        from repro.boolean.npn import npn_canonical_exhaustive

        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        t = TruthTable.from_bits(n, bits)
        pruned, witness = npn_canonical(t)
        blind, _ = npn_canonical_exhaustive(t)
        assert pruned == blind
        assert apply_transform(t, witness) == pruned

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_n6_witness_round_trip(self, data):
        """The lifted-limit contract: n = 6 canonicalisation is exact —
        the witness reproduces the canonical form, and every transformed
        classmate lands on the same representative."""
        bits = data.draw(st.integers(0, (1 << 64) - 1))
        t = TruthTable.from_bits(6, bits)
        canonical, witness = npn_canonical(t)
        assert apply_transform(t, witness) == canonical

        perm = tuple(data.draw(st.permutations(list(range(6)))))
        neg = data.draw(st.integers(0, 63))
        out = data.draw(st.booleans())
        mate = apply_transform(t, NpnTransform(perm, neg, out))
        mate_canonical, mate_witness = npn_canonical(mate)
        assert mate_canonical == canonical
        assert apply_transform(mate, mate_witness) == mate_canonical

    def test_rejects_beyond_exact_limit(self):
        from repro.boolean.npn import MAX_EXACT_NPN_VARS

        assert MAX_EXACT_NPN_VARS == 6
        with pytest.raises(ValueError):
            npn_canonical(TruthTable.constant(MAX_EXACT_NPN_VARS + 1, False))
