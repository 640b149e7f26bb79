"""Unit tests for SOP covers."""

import pytest

from repro.boolean import Cover, Cube, TruthTable


class TestConstruction:
    def test_from_strings(self):
        cover = Cover.from_strings(["1-0", "01-"])
        assert cover.n == 3 and len(cover) == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Cover(3, [Cube.from_string("1-")])

    def test_empty_is_constant_zero(self):
        assert Cover.empty(3).to_truth_table().is_contradiction()

    def test_tautology_is_constant_one(self):
        assert Cover.tautology(3).to_truth_table().is_tautology()

    def test_from_truth_table_roundtrip(self):
        t = TruthTable.from_minterms(3, [1, 4, 6])
        assert Cover.from_truth_table(t).to_truth_table() == t


class TestMetrics:
    def test_fig3_example_counts(self):
        # f = x1 x2 + x1' x2' from Section III-A: 4 literals, 2 products.
        cover = Cover.from_strings(["11", "00"])
        assert cover.num_products == 2
        assert cover.num_literal_occurrences == 4
        assert cover.num_distinct_literals == 4

    def test_distinct_literals_shared_between_cubes(self):
        cover = Cover.from_strings(["1-", "10"])
        # literals: x1 (twice, counted once) and x2'
        assert cover.num_distinct_literals == 2
        assert cover.num_literal_occurrences == 3


class TestSemantics:
    def test_evaluate_is_or_of_products(self):
        table = Cover.from_strings(["11-", "--1"]).to_truth_table()
        for m in range(8):
            expected = ((m & 1) and (m & 2)) or (m & 4)
            assert table.evaluate(m) == bool(expected)


class TestOperations:
    def test_drop_contained_removes_absorbed(self):
        cover = Cover.from_strings(["1--", "11-", "110"])
        slim = cover.drop_contained()
        assert len(slim) == 1
        assert slim.to_truth_table() == cover.to_truth_table()
