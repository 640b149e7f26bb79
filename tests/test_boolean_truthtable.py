"""Unit and property tests for dense truth tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.boolean import Cover, Cube, TruthTable


def random_tables(n=4):
    return st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
        lambda bits: TruthTable.from_bits(n, bits)
    )


class TestConstruction:
    def test_constant_tables(self):
        zero = TruthTable.constant(3, False)
        one = TruthTable.constant(3, True)
        assert zero.is_contradiction() and not zero.is_tautology()
        assert one.is_tautology() and not one.is_contradiction()

    def test_variable_projection(self):
        t = TruthTable.variable(3, 1)
        for m in range(8):
            assert t.evaluate(m) == bool((m >> 1) & 1)

    def test_from_minterms_roundtrip(self):
        t = TruthTable.from_minterms(4, [0, 5, 9])
        assert sorted(t.minterms()) == [0, 5, 9]

    def test_from_minterms_range_check(self):
        with pytest.raises(ValueError):
            TruthTable.from_minterms(2, [4])

    def test_from_cubes_is_or_of_cubes(self):
        t = TruthTable.from_cubes(3, [Cube.from_string("1--"), Cube.from_string("-1-")])
        for m in range(8):
            assert t.evaluate(m) == bool((m & 1) or (m & 2))

    def test_from_bits_roundtrip(self):
        t = TruthTable.from_bits(3, 0b10110010)
        assert t.bits == 0b10110010

    @pytest.mark.parametrize("n", range(11))
    def test_from_bits_is_the_per_bit_definition(self, n):
        """Bit ``m`` of ``bits`` is ``f(m)`` for every n; only the low 2^n
        bits count, and a negative ``bits`` reads as two's complement."""
        size = 1 << n
        gen = np.random.default_rng(n)
        wide = int.from_bytes(gen.bytes(size // 8 + 9), "little")
        for bits in (0, (1 << size) - 1, wide % (1 << size), -1, -wide,
                     wide, np.int64(-5)):
            t = TruthTable.from_bits(n, bits)
            want = [bool((int(bits) >> m) & 1) for m in range(size)]
            assert t.values.tolist() == want
            assert t.bits == int(bits) & ((1 << size) - 1)
            assert TruthTable.from_bits(n, t.bits) == t

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(2, [True, False])

    def test_too_many_variables_rejected(self):
        with pytest.raises(ValueError):
            TruthTable.constant(30, False)

    def test_immutability(self):
        t = TruthTable.constant(2, False)
        with pytest.raises(AttributeError):
            t.n = 3
        with pytest.raises(ValueError):
            t.values[0] = True


class TestAlgebra:
    def test_and_or_xor_not(self):
        a = TruthTable.variable(2, 0)
        b = TruthTable.variable(2, 1)
        assert sorted((a & b).minterms()) == [3]
        assert sorted((a | b).minterms()) == [1, 2, 3]
        assert sorted((a ^ b).minterms()) == [1, 2]
        assert sorted((~a).minterms()) == [0, 2]

    def test_implies(self):
        a = TruthTable.from_minterms(3, [1, 3])
        b = TruthTable.from_minterms(3, [1, 3, 5])
        assert a.implies(b)
        assert not b.implies(a)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            TruthTable.constant(2, True) & TruthTable.constant(3, True)


class TestDual:
    def test_dual_of_and_is_or(self):
        a = TruthTable.variable(2, 0)
        b = TruthTable.variable(2, 1)
        assert (a & b).dual() == (a | b)

    def test_parity_is_self_dual_for_odd_vars(self):
        t = TruthTable.from_callable(3, lambda m: bin(m).count("1") % 2 == 1)
        assert t.dual() == t

    def test_majority_is_self_dual(self):
        t = TruthTable.from_callable(3, lambda m: bin(m).count("1") >= 2)
        assert t.dual() == t

    @given(random_tables())
    def test_dual_is_involution(self, t):
        assert t.dual().dual() == t

    @given(random_tables())
    def test_dual_pointwise_definition(self, t):
        full = (1 << t.n) - 1
        d = t.dual()
        for m in range(1 << t.n):
            assert d.evaluate(m) == (not t.evaluate(m ^ full))


class TestStructure:
    def test_cofactor_shannon_expansion(self):
        t = TruthTable.from_callable(3, lambda m: (m & 1) and not (m & 4))
        f0, f1 = t.cofactor(0, False), t.cofactor(0, True)
        # f = ~x0 f0 + x0 f1 reconstructed pointwise
        for m in range(8):
            sub = ((m >> 1) & 0b11)
            expected = f1.evaluate(sub) if (m & 1) else f0.evaluate(sub)
            assert t.evaluate(m) == expected

    def test_permute_swaps_roles(self):
        t = TruthTable.from_callable(2, lambda m: bool(m & 1))  # f = x0
        swapped = t.permute([1, 0])
        assert swapped == TruthTable.variable(2, 1)

    def test_permute_validation(self):
        with pytest.raises(ValueError):
            TruthTable.constant(2, True).permute([0, 0])

    @given(random_tables(), st.integers(min_value=0, max_value=3), st.booleans())
    def test_cofactor_pointwise(self, t, var, value):
        cof = t.cofactor(var, value)
        for sub in range(1 << 3):
            low = sub & ((1 << var) - 1)
            high = (sub >> var) << (var + 1)
            full = high | low | ((1 << var) if value else 0)
            assert cof.evaluate(sub) == t.evaluate(full)

    @given(random_tables())
    def test_minterm_cubes_reconstruct(self, t):
        again = Cover.from_truth_table(t).to_truth_table()
        assert again == t

    @given(random_tables())
    def test_hash_consistent_with_eq(self, t):
        clone = TruthTable(t.n, np.array(t.values))
        assert clone == t and hash(clone) == hash(t)


class TestSerialization:
    """Packed-bit wire format (to_bytes/from_bytes/content_hash)."""

    @given(random_tables())
    def test_round_trip(self, t):
        again = TruthTable.from_bytes(t.to_bytes())
        assert again == t

    def test_round_trip_all_arities(self):
        import random as _random

        rng = _random.Random(3)
        for n in range(0, 8):
            bits = rng.getrandbits(1 << n)
            t = TruthTable.from_bits(n, bits)
            assert TruthTable.from_bytes(t.to_bytes()) == t

    def test_content_hash_distinguishes_arity(self):
        """Equal bit patterns over different variable counts hash apart
        (the header serialises n)."""
        t1 = TruthTable.from_bits(1, 0b01)
        t2 = TruthTable.from_bits(2, 0b0101)  # same function, extended
        assert t1.content_hash() != t2.content_hash()
        assert t1.content_hash() == TruthTable.from_bits(1, 0b01).content_hash()

    def test_bits_content_hash_is_the_tables(self):
        import random as _random

        rng = _random.Random(11)
        for n in range(0, 13):
            size = 1 << n
            for bits in (0, (1 << size) - 1, rng.getrandbits(size),
                         -rng.getrandbits(size), rng.getrandbits(size + 9)):
                assert (TruthTable.bits_content_hash(n, bits)
                        == TruthTable.from_bits(n, bits).content_hash())

    def test_bad_payloads_rejected(self):
        import pytest

        t = TruthTable.from_bits(3, 0b10110001)
        data = t.to_bytes()
        with pytest.raises(ValueError):
            TruthTable.from_bytes(data[:3])               # truncated header
        with pytest.raises(ValueError):
            TruthTable.from_bytes(b"XX1\x00" + data[4:])  # bad magic
        with pytest.raises(ValueError):
            TruthTable.from_bytes(data + b"\x00")          # size mismatch
        mangled = bytearray(TruthTable.from_bits(1, 0b01).to_bytes())
        mangled[-1] |= 0x80                                # padding bit set
        with pytest.raises(ValueError):
            TruthTable.from_bytes(bytes(mangled))
