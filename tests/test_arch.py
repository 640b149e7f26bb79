"""Tests for the architecture extensions: blocks, arithmetic, memory, SSM."""

import pytest

from repro.arch import (
    CrossbarMemory,
    RegisterBank,
    SynchronousStateMachine,
    address_decoder,
    adder_reference,
    comparator_reference,
    counter_spec,
    sequence_detector_spec,
    synthesize_adder,
    synthesize_block,
    synthesize_comparator,
)
from repro.boolean import BooleanFunction, TruthTable


class TestBlocks:
    def test_block_implements_its_function(self):
        f = BooleanFunction.from_expression("x1 x2 + x3", label="t")
        block = synthesize_block("t", f)
        assert block.array.implements(f.on)
        for m in range(8):
            assert block.evaluate(m) == f.evaluate(m)

    def test_constant_function_degenerates_to_lattice(self):
        f = BooleanFunction.from_truth_table(TruthTable.constant(2, True))
        block = synthesize_block("one", f)
        assert block.shape == (1, 1)
        assert block.evaluate(0)

    def test_area_positive(self):
        f = BooleanFunction.from_expression("x1 x2")
        assert synthesize_block("t", f).area >= 2


class TestAdder:
    @pytest.mark.parametrize("width", [1, 2])
    def test_adder_exhaustive(self, width):
        adder = synthesize_adder(width)
        reference = adder_reference(width)
        assert adder.verify_against(reference)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            synthesize_adder(0)


class TestComparator:
    @pytest.mark.parametrize("width", [1, 2])
    def test_comparator_exhaustive(self, width):
        comparator = synthesize_comparator(width)
        assert comparator.verify_against(comparator_reference(width))

    def test_outputs_mutually_exclusive(self):
        comparator = synthesize_comparator(2)
        for m in range(16):
            out = comparator.evaluate(m)
            assert bin(out).count("1") == 1  # exactly one of lt/eq/gt


class TestMemory:
    def test_decoder_one_hot(self):
        decoder = address_decoder(3)
        for address in range(8):
            selected = [r for r in range(decoder.num_rows)
                        if decoder.row_value(r, address)]
            assert selected == [address]

    def test_memory_read_write(self):
        memory = CrossbarMemory(2, 4)
        memory.write(0, 0b1010)
        memory.write(3, 0b0110)
        assert memory.read(0) == 0b1010
        assert memory.read(3) == 0b0110
        assert memory.read(1) == 0

    def test_memory_overwrite(self):
        memory = CrossbarMemory(2, 2)
        memory.write(1, 0b11)
        memory.write(1, 0b01)
        assert memory.read(1) == 0b01

    def test_memory_validation(self):
        memory = CrossbarMemory(2, 2)
        with pytest.raises(ValueError):
            memory.read(4)
        with pytest.raises(ValueError):
            memory.write(0, 4)
        with pytest.raises(ValueError):
            CrossbarMemory(0, 2)

    def test_memory_area_includes_decoder(self):
        memory = CrossbarMemory(2, 4)
        assert memory.total_area > 4 * 4


class TestRegisterBank:
    def test_capture_clock(self):
        reg = RegisterBank(3)
        reg.capture(5)
        assert reg.state == 0
        assert reg.clock() == 5
        assert reg.state == 5

    def test_clock_without_capture_raises(self):
        reg = RegisterBank(2)
        with pytest.raises(RuntimeError):
            reg.clock()

    def test_width_validation(self):
        with pytest.raises(ValueError):
            RegisterBank(2, state=7)
        reg = RegisterBank(2)
        with pytest.raises(ValueError):
            reg.capture(9)


class TestSsm:
    def test_counter_counts(self):
        ssm = SynchronousStateMachine(counter_spec(3))
        assert ssm.verify_against_spec()
        outputs = ssm.run([1, 1, 0, 1])
        # Moore-style: output sampled before the edge
        assert outputs == [0, 1, 2, 2]
        assert ssm.state == 3

    def test_counter_wraps(self):
        ssm = SynchronousStateMachine(counter_spec(2))
        ssm.run([1] * 5)
        assert ssm.state == 1  # 5 mod 4

    def test_input_validation(self):
        ssm = SynchronousStateMachine(counter_spec(2))
        with pytest.raises(ValueError):
            ssm.step(2)

    @pytest.mark.parametrize("pattern", [[1, 0, 1], [1, 1], [0, 0, 1]])
    def test_sequence_detector_matches_naive_scan(self, pattern):
        ssm = SynchronousStateMachine(sequence_detector_spec(pattern))
        assert ssm.verify_against_spec()
        stream = [1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1]
        outputs = ssm.run(stream)
        # naive overlapping matcher: output[t] == 1 iff the pattern ends at
        # position t-1 of the stream
        for t in range(len(stream)):
            window = stream[max(0, t - len(pattern)):t]
            expected = 1 if (t >= len(pattern)
                             and stream[t - len(pattern):t] == list(pattern)) else 0
            assert outputs[t] == expected, (pattern, t)

    def test_detector_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            sequence_detector_spec([])
        with pytest.raises(ValueError):
            sequence_detector_spec([0, 2])

    def test_ssm_area_reported(self):
        ssm = SynchronousStateMachine(counter_spec(2))
        assert ssm.total_area > 0
