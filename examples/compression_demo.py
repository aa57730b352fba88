"""Compressed execution: row reordering x word-aligned run kernels.

Builds the same Zipf-skewed fact table under each row ordering
(``unordered``, ``lex``, ``gray``, ``hist``), snapshots the encoded
index's bit planes as word-aligned runs, and prints the space x speed
frontier the compression bench measures: plane bytes, page reads for
a query batch, and run-kernel wall time — all checked bit-identical
against the packed kernel.  A second act shows the same pass through
the ``Database`` facade: ``reorder()`` physically rewrites the rows,
rebuilds every attached index, and records the permutation so saved
results still map back to arrival order.

Run:  python examples/compression_demo.py
(See docs/compression.md for the theory and the full 1M-row bench.)
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro import Database, InList, Table
from repro.boolean.evaluator import AccessCounter
from repro.encoding.mapping import MappingTable
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.kernels.compiler import compile_function
from repro.kernels.runs import CompressedPlaneSet
from repro.shard.reorder import ORDERINGS, row_permutation
from repro.storage.page import PAGE_SIZE_DEFAULT
from repro.workload.generators import uniform_column, zipf_column

N = 65_536
DOMAIN = 64


def frontier() -> None:
    fact = zipf_column(N, DOMAIN, seed=31)
    secondary = uniform_column(N, 8, seed=32)
    rng = random.Random(7)
    selections = [sorted(rng.sample(range(DOMAIN), 8)) for _ in range(4)]
    mapping = MappingTable.from_values(
        list(range(DOMAIN)), reserve_void_zero=True
    )

    print(f"{N} rows, cardinality {DOMAIN} (Zipf), 4 IN-list queries\n")
    print(
        f"{'ordering':>10} {'plane bytes':>12} {'vs packed':>10} "
        f"{'page reads':>11} {'batch ms':>9}"
    )
    baseline = None
    for ordering in ORDERINGS:
        table = Table.from_columns(
            f"demo_{ordering}", {"v": fact, "w": secondary}
        )
        perm = row_permutation(table, ["v", "w"], ordering)
        if ordering != "unordered":
            table.apply_permutation(perm)
        index = EncodedBitmapIndex(table, "v", encoding=mapping)
        runs = CompressedPlaneSet.from_vectors(
            [index.vector(i) for i in range(index.width)], len(table)
        )
        packed = index.planes()

        kernels = [
            compile_function(index.reduced_function(values))
            for values in selections
        ]
        pages = 0
        for kernel in kernels:
            counter = AccessCounter()
            rows_runs = kernel.evaluate(runs, counter)
            rows_packed = kernel.evaluate(packed)
            assert rows_runs == rows_packed, "run kernel diverged!"
            for i in counter.touched:
                nbytes = runs.plane(i).nbytes()
                pages += -(-nbytes // PAGE_SIZE_DEFAULT)

        start = time.perf_counter()
        for kernel in kernels:
            kernel.evaluate(runs)
        elapsed = (time.perf_counter() - start) * 1000
        nbytes = runs.nbytes()
        if baseline is None:
            baseline = runs.packed_nbytes()
        print(
            f"{ordering:>10} {nbytes:>12,} "
            f"{baseline / nbytes:>9.1f}x {pages:>11} {elapsed:>9.2f}"
        )
    print(f"\npacked baseline: {baseline:,} bytes per ordering")


def database_reorder() -> None:
    print("\n--- Database.reorder -------------------------------------")
    db = Database()
    rng = random.Random(11)
    db.create_table(
        "sales",
        {"v": [rng.randrange(16) for _ in range(4096)]},
        partitions=4,
    )
    db.create_index("sales", "v")
    before = db.query("sales", InList("v", [3, 5])).row_ids()

    permutations = db.reorder("sales", ["v"], ordering="gray")
    after = db.query("sales", InList("v", [3, 5])).row_ids()
    meta = db.reorder_metadata("sales")
    assert meta is not None and meta["ordering"] == "gray"

    # Map the post-reorder hits back to arrival order via the
    # recorded per-partition permutations.
    offsets = [0, 1024, 2048, 3072]
    mapped = []
    for row_id in after.tolist():
        part = min(row_id // 1024, 3)
        offset = offsets[part]
        mapped.append(offset + permutations[part][row_id - offset])
    assert np.array_equal(np.sort(mapped), before), (
        "reorder changed the selected rows!"
    )
    print(
        f"gray reorder over {len(permutations)} partitions: "
        f"{len(after)} hits, identical original rows before/after"
    )


def main() -> None:
    frontier()
    database_reorder()


if __name__ == "__main__":
    main()
