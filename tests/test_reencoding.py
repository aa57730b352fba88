"""Unit tests for repro.encoding.reencoding (dynamic re-encoding)."""

import pytest

from repro.encoding.heuristics import (
    random_encoding,
    sequential_encoding,
)
from repro.encoding.reencoding import (
    apply_reencoding,
    evaluate_reencoding,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import InList
from repro.table.table import Table

DOMAIN = list("abcdefgh")
PREDICATES = [list("abcd"), list("cdef")]


class TestEvaluateReencoding:
    def test_bad_current_encoding_is_worth_replacing(self):
        current = random_encoding(DOMAIN, seed=1234,
                                  reserve_void_zero=False)
        decision = evaluate_reencoding(
            current, PREDICATES, table_size=100_000,
            horizon_executions=10_000,
        )
        assert decision.candidate_cost <= decision.current_cost
        if decision.saving_per_execution > 0:
            assert decision.break_even_executions < float("inf")

    def test_good_encoding_not_replaced(self):
        from repro.encoding.heuristics import encode_for_predicates

        current = encode_for_predicates(
            DOMAIN, PREDICATES, reserve_void_zero=False, seed=0
        )
        decision = evaluate_reencoding(
            current, PREDICATES, table_size=1000,
            horizon_executions=100,
        )
        # nothing to gain -> infinite break-even, not worthwhile
        assert decision.saving_per_execution <= 0.5
        if decision.saving_per_execution <= 0:
            assert not decision.worthwhile

    def test_short_horizon_blocks_rebuild(self):
        current = random_encoding(DOMAIN, seed=1234,
                                  reserve_void_zero=False)
        generous = evaluate_reencoding(
            current, PREDICATES, table_size=10**6,
            horizon_executions=10**9,
        )
        stingy = evaluate_reencoding(
            current, PREDICATES, table_size=10**6,
            horizon_executions=0,
        )
        assert not stingy.worthwhile
        if generous.saving_per_execution > 0:
            assert generous.worthwhile

    def test_rebuild_cost_scales_with_table(self):
        current = sequential_encoding(DOMAIN, reserve_void_zero=False)
        small = evaluate_reencoding(
            current, PREDICATES, table_size=1000,
            horizon_executions=100,
        )
        large = evaluate_reencoding(
            current, PREDICATES, table_size=100_000,
            horizon_executions=100,
        )
        assert large.rebuild_cost > small.rebuild_cost

    def test_negative_horizon_rejected(self):
        current = sequential_encoding(DOMAIN, reserve_void_zero=False)
        with pytest.raises(ValueError):
            evaluate_reencoding(
                current, PREDICATES, table_size=10,
                horizon_executions=-1,
            )


class TestApplyReencoding:
    def _table(self):
        table = Table("t", ["A"])
        for i in range(200):
            table.append({"A": DOMAIN[i % 8]})
        return table

    def test_rebuild_preserves_results(self):
        table = self._table()
        index = EncodedBitmapIndex(table, "A")
        predicate = InList("A", ["a", "b", "c", "d"])
        before = index.lookup(predicate)
        decision = evaluate_reencoding(
            index.mapping, PREDICATES, table_size=len(table),
            horizon_executions=10**6,
        )
        apply_reencoding(index, decision)
        after = index.lookup(predicate)
        assert before == after

    def test_rebuild_improves_cost(self):
        table = self._table()
        bad_mapping = random_encoding(DOMAIN, seed=1234)
        index = EncodedBitmapIndex(table, "A", encoding=bad_mapping)
        predicate = InList("A", PREDICATES[0])
        index.lookup(predicate)
        cost_before = index.last_cost.vectors_accessed

        decision = evaluate_reencoding(
            index.mapping, PREDICATES, table_size=len(table),
            horizon_executions=10**6,
        )
        apply_reencoding(index, decision)
        index.lookup(predicate)
        cost_after = index.last_cost.vectors_accessed
        assert cost_after <= cost_before

    def test_rebuild_charges_maintenance(self):
        table = self._table()
        index = EncodedBitmapIndex(table, "A")
        before_ops = index.stats.maintenance_ops
        decision = evaluate_reencoding(
            index.mapping, PREDICATES, table_size=len(table),
            horizon_executions=10**6,
        )
        apply_reencoding(index, decision)
        assert index.stats.maintenance_ops - before_ops >= len(table)

    def test_domain_mismatch_rejected(self):
        table = self._table()
        index = EncodedBitmapIndex(table, "A")
        other = evaluate_reencoding(
            sequential_encoding(["x", "y"], reserve_void_zero=False),
            [["x", "y"]],
            table_size=10,
            horizon_executions=10,
        )
        with pytest.raises(ValueError):
            apply_reencoding(index, other)
