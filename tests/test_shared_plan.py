"""Plans shared across partitions: one plan, reduction and compile per
predicate and batch, for every partition whose mapping equals the
leader's.  Each case compares the parallel executor with planning
every partition on its own (``run_partition_batch`` without shared
plans): rows, per-partition and summed ``c_e`` and the merged metrics
must be identical."""

import numpy as np
import pytest

from repro.bitmap.bitvector import BitVector
from repro.encoding.mapping import MappingTable
from repro.obs.metrics import MetricsRegistry, merge_metric_deltas, use_registry
from repro.query.options import QueryOptions
from repro.query.predicates import AndPredicate, Equals, InList, IsNull, Range
from repro.shard import ParallelExecutor, PartitionedIndex, PartitionedTable
from repro.shard.executor import run_partition_batch

ROWS_PER_PARTITION = 64
PARTITIONS = 4
VALUES = ["a", "b", "c", "d", "e"]

PREDICATES = (
    InList("v", ["d", "e"]),
    Equals("v", "b"),
    Range("v", "b", "d"),
    InList("v", ["zz"]),
    IsNull("v"),
    AndPredicate((InList("v", ["a", "c"]), Equals("g", 1))),
)

#: Counters that count derivations (reductions, compiles), which a
#: shared plan makes once instead of once per partition.
DERIVATION = (
    "index.reduction_cache_",
    "boolean.reduction_cache.",
    "kernels.compile_cache.",
)


def evaluation_metrics(metrics):
    return {
        name: value
        for name, value in metrics.items()
        if not name.startswith(DERIVATION)
    }


def build(overrides=None):
    """A 4-partition table over ``VALUES`` and NULL with encoded
    indexes on ``v`` and ``g``.  Every partition holds every value, so
    the default partition-local mappings are equal.  ``overrides``
    maps a global row id to the value of ``v`` it holds instead."""
    n = ROWS_PER_PARTITION * PARTITIONS
    v = [VALUES[(i * 7) % len(VALUES)] for i in range(n)]
    for partition in range(PARTITIONS):
        v[partition * ROWS_PER_PARTITION + 5] = None
    for row_id, value in (overrides or {}).items():
        v[row_id] = value
    g = [i % 3 for i in range(n)]
    ptable = PartitionedTable.from_columns(
        "t", {"v": v, "g": g}, partitions=PARTITIONS
    )
    index = PartitionedIndex(ptable, "v")
    PartitionedIndex(ptable, "g")
    return ptable, index


def per_partition(ptable, predicates):
    """Rows, per-partition ``c_e`` and merged metrics with every
    partition planning itself."""
    outcomes = [
        run_partition_batch(partition, predicates)
        for partition in ptable.partitions
    ]
    answers = []
    for q in range(len(predicates)):
        results = [records[q].result for records, _ in outcomes]
        answers.append(
            (
                BitVector.concat([r.vector for r in results]).indices(),
                [r.cost.vectors_accessed for r in results],
                merge_metric_deltas(r.metrics for r in results),
            )
        )
    return answers


def shared(ptable, predicates):
    return ParallelExecutor(ptable).execute_many(
        predicates, QueryOptions(workers=1)
    )


def assert_same(results, answers):
    for result, (rows, costs, metrics) in zip(results, answers):
        assert np.array_equal(result.row_ids(), rows)
        assert [s.cost.vectors_accessed for s in result.partitions] == costs
        assert result.cost.vectors_accessed == sum(costs)
        assert evaluation_metrics(result.metrics) == evaluation_metrics(
            metrics
        )


def flags(result):
    return [s.shared_plan for s in result.partitions]


def test_equal_mappings_share_one_derivation_per_leaf():
    ptable, index = build()
    reference = per_partition(build()[0], list(PREDICATES))
    for child in index.children:
        child.clear_caches()
    results = shared(ptable, list(PREDICATES))
    assert_same(results, reference)
    assert all(all(flags(result)) for result in results)
    # One InList leaf: one reduced function and one compile for all
    # four partitions.
    metrics = results[0].metrics
    derivations = metrics.get("index.reduction_cache_misses", 0) + metrics.get(
        "index.reduction_cache_hits", 0
    )
    compiles = metrics.get("kernels.compile_cache.misses", 0) + metrics.get(
        "kernels.compile_cache.hits", 0
    )
    assert (derivations, compiles) == (1, 1)


#: Partition 3 also holds "f".
EXTRA_F = {3 * ROWS_PER_PARTITION + 1: "f"}

#: Partition 2 holds "a" where the others hold "c".
LACKS_C = {
    row_id: "a"
    for row_id in range(2 * ROWS_PER_PARTITION, 3 * ROWS_PER_PARTITION)
    if VALUES[(row_id * 7) % len(VALUES)] == "c"
}


def test_partition_with_an_extra_value_plans_itself():
    ptable, _ = build(EXTRA_F)
    results = shared(ptable, list(PREDICATES))
    assert_same(results, per_partition(build(EXTRA_F)[0], list(PREDICATES)))
    assert flags(results[0]) == [True, True, True, False]
    text = ParallelExecutor(ptable).explain(PREDICATES[0])
    assert text.count("plan: shared") == 3
    assert "plan: own (mapping or modes of v differ)" in text


def test_partition_lacking_a_value_plans_itself():
    ptable, _ = build(LACKS_C)
    results = shared(ptable, list(PREDICATES))
    assert_same(results, per_partition(build(LACKS_C)[0], list(PREDICATES)))
    assert flags(results[0]) == [True, True, False, True]


def test_fingerprint_collision_is_confirmed_by_equality(monkeypatch):
    # Partition 2 lacks "c", so its codes for "d" and "e" differ from
    # the leader's; with every fingerprint equal only == can tell.
    reference = per_partition(build(LACKS_C)[0], list(PREDICATES))
    monkeypatch.setattr(MappingTable, "fingerprint", lambda self: 0)
    ptable, index = build(LACKS_C)
    assert index.child(2).mapping != index.child(0).mapping
    results = shared(ptable, list(PREDICATES))
    assert_same(results, reference)
    assert flags(results[0]) == [True, True, False, True]


def update_before_first_lookup(child, row_id, value):
    """Make ``child``'s first lookup begin with an update of local row
    ``row_id`` to ``value`` — after planning and binding, before the
    index evaluates anything."""
    original = child.lookup
    done = []

    def lookup(predicate, *args, **kwargs):
        if not done:
            done.append(True)
            child.table.update(row_id, "v", value)
        return original(predicate, *args, **kwargs)

    child.lookup = lookup


def test_mapping_change_between_planning_and_evaluation():
    # The leader reduces {d, e} (codes 5 and 6) with the free code 7 as
    # a don't-care.  Partition 1 then gives code 7 to a new value on a
    # row it already holds: its lookup must see that its mapping moved
    # and derive its own function, or it selects that row.
    predicates = [InList("v", ["d", "e"])]
    ptable, index = build()
    reference_table, reference_index = build()
    for child in (index.child(1), reference_index.child(1)):
        update_before_first_lookup(child, 0, "new")
    reference = per_partition(reference_table, predicates)
    results = shared(ptable, predicates)
    assert_same(results, reference)
    assert index.child(1).mapping.encode("new") == 7
    assert ROWS_PER_PARTITION not in results[0].row_ids()


@pytest.mark.parametrize("degraded", [0, 2])
def test_degraded_partition_plans_itself(degraded):
    ptable, index = build()
    reference_table, reference_index = build()
    index.child(degraded).degraded = True
    reference_index.child(degraded).degraded = True
    results = shared(ptable, list(PREDICATES))
    assert_same(results, per_partition(reference_table, list(PREDICATES)))
    expected = [partition != degraded for partition in range(PARTITIONS)]
    assert flags(results[0]) == expected
    assert results[0].degraded
    text = ParallelExecutor(ptable).explain(PREDICATES[0])
    assert f"shared plan: made on #{1 if degraded == 0 else 0}" in text
    assert "plan: own (degraded index on v)" in text


def test_workers_one_and_four_are_identical():
    ptable, _ = build(EXTRA_F)
    executor = ParallelExecutor(ptable)
    executor.execute_many(list(PREDICATES))  # warm the caches

    def run(workers):
        registry = MetricsRegistry()
        with use_registry(registry):
            results = executor.execute_many(
                list(PREDICATES), QueryOptions(workers=workers)
            )
        return results, registry.collect()

    one, one_totals = run(1)
    four, four_totals = run(4)
    reference = per_partition(build(EXTRA_F)[0], list(PREDICATES))
    assert_same(one, reference)
    assert_same(four, reference)
    assert one_totals == four_totals
    assert one_totals["shard.shared_plan_partitions"] == 3 * len(PREDICATES)
    for a, b in zip(one, four):
        assert a.vector == b.vector
        assert a.cost == b.cost
        assert a.metrics == b.metrics
        assert flags(a) == flags(b)
        assert [s.cost for s in a.partitions] == [s.cost for s in b.partitions]
