"""Range search three ways (paper Sections 2.3 and 4).

Shows the three range-capable encodings on one numeric attribute:

1. range-based encoding over pre-defined predicates (Figures 7-8),
2. total-order preserving encoding with a hot IN-list (Figure 6),
3. the bit-sliced index with the O'Neil-Quass slice algorithm.

Run:  python examples/range_queries.py
"""

from __future__ import annotations

import random

from repro import (
    BitSlicedIndex,
    Range,
    Table,
    order_preserving_encoding,
    partition_from_predicates,
    range_encoding,
    reduce_values,
)


def range_based_demo() -> None:
    print("=== 1. range-based encoding (paper Figures 7-8) ===")
    predicates = [(6, 10), (8, 12), (10, 13), (16, 20)]
    partition = partition_from_predicates(6, 20, predicates)
    print("partitions:", ", ".join(str(i) for i in partition.intervals))

    mapping = range_encoding(partition, predicates, seed=0)
    print("interval encoding:")
    for value, code in mapping.to_rows():
        print(f"  {value:>8} -> {code}")

    for low, high in predicates:
        covering = partition.covering(low, high)
        codes = [mapping.encode(interval) for interval in covering]
        reduced = reduce_values(
            codes, mapping.width, dont_cares=mapping.unused_codes()
        )
        print(
            f"  {low:>2} <= A < {high:<2}: retrieval fn = {reduced}  "
            f"({reduced.vector_count()} vector(s))"
        )


def total_order_demo() -> None:
    print("\n=== 2. total-order preserving encoding (Figure 6) ===")
    domain = [101, 102, 103, 104, 105, 106]
    hot = [101, 102, 104, 105]
    mapping = order_preserving_encoding(domain, hot_sets=[hot])
    print("encoding (order preserved, hot set aligned):")
    for value, code in mapping.to_rows():
        print(f"  {value} -> {code}")
    codes = [mapping.encode(v) for v in hot]
    reduced = reduce_values(
        codes, mapping.width, dont_cares=mapping.unused_codes()
    )
    print(f"hot IN-list {hot}: retrieval fn = {reduced}")


def bit_sliced_demo() -> None:
    print("\n=== 3. bit-sliced index + slice comparison algorithm ===")
    rng = random.Random(3)
    table = Table("measurements", ["temp"])
    for _ in range(5000):
        table.append({"temp": rng.randint(-20, 80)})
    index = BitSlicedIndex(table, "temp")
    print(
        f"{len(table)} rows, domain size "
        f"{table.column('temp').cardinality()}, "
        f"{index.width} bit slices"
    )
    for low, high in ((0, 25), (-20, 0), (60, 80)):
        predicate = Range("temp", low, high)
        result = index.lookup(predicate)
        print(
            f"  {low} <= temp <= {high}: {result.count():>4} rows, "
            f"{index.last_cost.vectors_accessed} slices read "
            "(O'Neil-Quass comparison, no IN-list rewrite)"
        )


if __name__ == "__main__":
    range_based_demo()
    total_order_demo()
    bit_sliced_demo()
