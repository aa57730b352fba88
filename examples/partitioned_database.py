"""Partition-parallel queries and the degraded/fsck recovery loop.

A 20,000-row fact table split into four word-aligned row-range
partitions, one encoded bitmap child index per partition, queried
through the ``repro.Database`` facade: parallel execution with a
per-partition breakdown, batched queries sharing vector reads,
persistence with one ``.ebi`` payload per partition child, and what
happens when one of those payloads is damaged on disk.

Run:  python examples/partitioned_database.py
"""

from __future__ import annotations

import os
import random
import tempfile

import numpy as np

from repro import Database, Equals, InList, QueryOptions, Range


def build() -> Database:
    rng = random.Random(42)
    n = 20_000
    db = Database()
    db.create_table(
        "fact",
        {
            "product": [rng.randrange(64) for _ in range(n)],
            "qty": [rng.randrange(100) for _ in range(n)],
        },
        partitions=4,
    )
    db.create_index("fact", "product")
    return db


def main() -> None:
    db = build()
    table = db.table("fact")
    spans = ", ".join(
        f"p{p.id}[{p.offset}:{p.offset + len(p)}]"
        for p in table.partitions
    )
    print(f"fact table: {len(table):,} rows in 4 partitions ({spans})")

    # 1. One query, four partitions, merged deterministically.
    predicate = InList("product", [3, 17, 42])
    result = db.query("fact", predicate)
    print(
        f"\n{predicate}: {result.count():,} rows, "
        f"workers={result.workers}"
    )
    for part in result.partitions:
        print(
            f"  partition {part.partition_id}: {part.rows:,} rows, "
            f"{part.cost.vectors_accessed} vectors"
        )

    # 2. Worker count never changes the answer — only the schedule.
    one = db.query("fact", predicate, QueryOptions(workers=1))
    print(
        f"\nworkers=1 vs workers=4 identical: "
        f"{one.vector == result.vector}"
    )

    # 3. The unindexed column falls back to whole-column numpy scans.
    scan = db.query("fact", Range("qty", 10, 20))
    print(
        f"qty in [10, 20]: {scan.count():,} rows via "
        f"{'vector scan' if scan.used_scan else 'index'}"
    )

    # 4. A batch runs against one row snapshot.
    batch = db.query_many(
        "fact", [predicate, Equals("product", 17), predicate]
    )
    print(f"batch counts: {[r.count() for r in batch]}")

    # 5. Persistence: one payload per partition child.  Damage one
    #    and the load degrades that child instead of failing.
    expected = result.row_ids()
    with tempfile.TemporaryDirectory() as directory:
        db.save(directory)
        payloads = sorted(
            name for name in os.listdir(directory)
            if name.endswith(".ebi")
        )
        print(f"\nsaved payloads: {payloads}")

        victim = os.path.join(directory, "fact.product.p2.ebi")
        with open(victim, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))

        loaded = Database.load(directory)
        damaged = loaded.query("fact", predicate)
        assert np.array_equal(damaged.row_ids(), expected)
        print(
            f"after corrupting p2: degraded={damaged.degraded}, "
            "rows still correct"
        )
        print(
            "  per-partition degraded flags: "
            f"{[part.degraded for part in damaged.partitions]}"
        )

        # fsck re-audits the rebuilt child and lifts the quarantine.
        reports = loaded.fsck()
        clean = loaded.query("fact", predicate)
        assert np.array_equal(clean.row_ids(), expected)
        print(
            f"after fsck ({len(reports)} indexes audited): "
            f"degraded={clean.degraded}, rows correct"
        )


if __name__ == "__main__":
    main()
