"""``ebi fsck``: invariant verification, repair, and degradation.

Covers the four audited invariants (each demonstrated on a
hand-corrupted index), the repair path (rebuild only the damaged
vectors), the planner/executor degradation loop (corrupt -> scan
fallback with accounting -> repair -> index trusted again), and the
file-level ``repro fsck`` CLI.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.database import Database
from repro.errors import CorruptIndexError
from repro.index import serialization
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.verify import (
    ALL_INVARIANTS,
    INVARIANT_CACHE,
    INVARIANT_MAPPING,
    INVARIANT_PARTITION,
    INVARIANT_PLANE_FILE,
    INVARIANT_VOID,
    repair,
    verify_index,
    verify_payload,
)
from repro.kernels import PlaneSet
from repro.kernels.mapped import PLANE_DATA_OFFSET
from repro.query.executor import Executor
from repro.query.options import QueryOptions
from repro.query.predicates import Equals, InList
from repro.table.catalog import Catalog
from repro.table.table import Table


def build_table(values=("a", "b", "c", "b", "a", "c", "d", "a")):
    table = Table("T", ["A"])
    for value in values:
        table.append({"A": value})
    return table


def corrupt_planes(index: EncodedBitmapIndex, matrix, nbits=None) -> None:
    """Install a damaged plane matrix behind the index's back (no
    version bump, no cache drop: what bit rot looks like)."""
    planes = index.planes()
    index._planes = PlaneSet(
        matrix, matrix.shape[0], planes.nbits if nbits is None else nbits
    )


def flip_bit(index: EncodedBitmapIndex, vector: int, row: int) -> None:
    matrix = np.array(index.planes().matrix)
    matrix[vector, row // 64] ^= np.uint64(1 << (row % 64))
    corrupt_planes(index, matrix)


# ----------------------------------------------------------------------
# clean indexes pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("void_mode", ["encode", "vector"])
@pytest.mark.parametrize("null_mode", ["encode", "vector"])
def test_freshly_built_index_passes(void_mode, null_mode):
    table = build_table(("a", "b", None, "b", "a", None, "d", "a"))
    index = EncodedBitmapIndex(
        table, "A", void_mode=void_mode, null_mode=null_mode
    )
    report = verify_index(index)
    assert report.ok, report.render()
    assert not index.degraded
    assert report.checked_rows == len(table)


def test_clean_after_maintenance():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    table.attach(index)
    index.lookup(InList("A", ["a", "b"]))  # populate the cache
    table.append({"A": "b"})
    table.delete(2)
    table.update(0, "A", "c")
    report = verify_index(index)
    assert report.ok, report.render()


def test_fixture_tables_pass(abc_table, sales_table):
    for table, column in (
        (abc_table, "A"),
        (sales_table, "region"),
        (sales_table, "product"),
    ):
        index = EncodedBitmapIndex(table, column)
        report = verify_index(index)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# the four invariants, each on a hand-corrupted index
# ----------------------------------------------------------------------
def test_detects_mapping_inconsistency():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    # Drop a plane row: width no longer matches the vector count.
    corrupt_planes(index, np.array(index.planes().matrix[:-1]))
    report = verify_index(index)
    assert INVARIANT_MAPPING in report.invariants_violated()
    assert index.degraded


def test_detects_wrong_length_vector():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    # Lengthen the planes past the table's rows.
    matrix = np.array(index.planes().matrix)
    corrupt_planes(index, matrix, nbits=len(table) + 5)
    report = verify_index(index)
    assert INVARIANT_MAPPING in report.invariants_violated()


def test_detects_void_code_violation():
    table = build_table()
    index = EncodedBitmapIndex(table, "A", void_mode="encode")
    table.attach(index)
    table.delete(3)
    assert verify_index(index).ok
    # Hand a deleted row a non-zero code: Theorem 2.1 broken.
    flip_bit(index, 0, 3)
    report = verify_index(index)
    assert INVARIANT_VOID in report.invariants_violated()
    assert index.degraded


def test_detects_existence_vector_drift():
    table = build_table()
    index = EncodedBitmapIndex(table, "A", void_mode="vector")
    table.attach(index)
    table.delete(2)
    assert verify_index(index).ok
    exists = index._exists_vector
    exists[2] = True  # resurrect the deleted row in the vector
    report = verify_index(index)
    assert INVARIANT_VOID in report.invariants_violated()


def test_detects_row_partition_violation():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    flip_bit(index, 1, 4)  # row 4 now stores the wrong code
    report = verify_index(index)
    assert INVARIANT_PARTITION in report.invariants_violated()
    assert index.degraded


def test_detects_delta_code_drift():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    table.attach(index)
    row = table.append({"A": "b"})
    assert verify_index(index).ok
    # The appended row's code in the delta tier now decodes to "a".
    index._delta_codes[row - index.planes().nbits] = index.mapping.encode("a")
    report = verify_index(index)
    assert INVARIANT_PARTITION in report.invariants_violated()
    assert any(
        "1 row(s) store a code that decodes to the wrong value" in v.message
        for v in report.violations
    )
    assert repair(index) == [0, 1]
    assert verify_index(index).ok


def test_detects_stale_reduction_cache():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    index.lookup(InList("A", ["a", "b"]))
    assert index._reduction_cache
    # Re-key a cached reduction under a different code set: the
    # function no longer covers what the key claims.
    ((codes, width), function) = next(
        iter(index._reduction_cache.items())
    )
    other = tuple(
        c for c in index.mapping.codes() if c not in codes
    )[:1]
    index._reduction_cache[(other, width)] = function
    report = verify_index(index)
    assert INVARIANT_CACHE in report.invariants_violated()


def flip_payload_byte(path: str, offset: int = 0) -> None:
    """Invert one byte of a plane file's matrix, in place."""
    with open(path, "r+b") as handle:
        handle.seek(PLANE_DATA_OFFSET + offset)
        byte = handle.read(1)
        handle.seek(PLANE_DATA_OFFSET + offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def test_detects_plane_file_corruption():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "planes.ebp")
        assert index.spill_planes(path)
        assert verify_index(index).ok
        flip_payload_byte(path)
        report = verify_index(index)
        assert INVARIANT_PLANE_FILE in report.invariants_violated()
        assert any(
            v.invariant == INVARIANT_PLANE_FILE and path in v.message
            for v in report.violations
        )
        assert index.degraded
        index.planes().close()


def test_every_invariant_detectable():
    """Belt and braces: the corruption battery above spans all five."""
    observed = set()
    for corrupt in (
        test_detects_mapping_inconsistency,
        test_detects_void_code_violation,
        test_detects_row_partition_violation,
        test_detects_stale_reduction_cache,
        test_detects_plane_file_corruption,
    ):
        corrupt()
    # Each test asserted its own invariant; ALL_INVARIANTS names them.
    observed = {
        INVARIANT_MAPPING,
        INVARIANT_VOID,
        INVARIANT_PARTITION,
        INVARIANT_CACHE,
        INVARIANT_PLANE_FILE,
    }
    assert observed == set(ALL_INVARIANTS)


def test_database_fsck_reports_corrupt_spilled_plane_file():
    # Eight values over 4 partitions of 1,024 rows; a one-byte budget
    # spills every partition on its first query.
    db = Database(memory_budget_bytes=1)
    try:
        db.create_table(
            "facts", {"v": [i % 8 for i in range(4096)]}, partitions=4
        )
        index = db.create_index("facts", "v")
        db.query("facts", Equals("v", 3), QueryOptions(workers=1))
        child = index.children[2]
        assert child.planes_mapped
        path = child.planes().path
        assert all(report.ok for report in db.fsck().values())
        flip_payload_byte(path, offset=8)
        reports = db.fsck()
        bad = reports["facts.v.p2"]
        assert INVARIANT_PLANE_FILE in bad.invariants_violated()
        assert any(path in v.message for v in bad.violations)
        assert child.degraded
        others = [label for label, r in reports.items() if not r.ok]
        assert others == ["facts.v.p2"]
    finally:
        db.close()


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def test_repair_rebuilds_only_damaged_vectors():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    pristine = [index.vector(i).copy() for i in range(index.width)]
    flip_bit(index, 1, 4)
    verify_index(index)
    assert index.degraded
    repaired = repair(index)
    assert repaired == [1]
    assert not index.degraded
    assert verify_index(index).ok
    # Every vector, damaged or not, holds its pristine bits again.
    for i in range(index.width):
        assert index.vector(i) == pristine[i]


def test_repair_truncates_extra_vectors():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    matrix = np.array(index.planes().matrix)
    corrupt_planes(index, np.vstack([matrix, np.zeros_like(matrix[:1])]))
    repair(index)
    assert index.planes().width == index.width
    assert verify_index(index).ok


def test_repair_prunes_stale_cache_entries():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    index.lookup(InList("A", ["a", "b"]))
    ((codes, width), function) = next(
        iter(index._reduction_cache.items())
    )
    bogus_key = ((1 << width) - 1,), width
    index._reduction_cache[bogus_key] = function
    repair(index)
    assert bogus_key not in index._reduction_cache
    assert verify_index(index).ok


def test_repair_stops_serving_damaged_planes():
    # The plane snapshot, the reductions and the kernels were built
    # from a damaged vector; after repair no lookup may serve them.
    table = Table("T", ["v"])
    for i in range(64):
        table.append({"v": "abcd"[i % 4]})
    index = EncodedBitmapIndex(table, "v")
    expected = list(range(0, 64, 4))
    flip_bit(index, 0, 0)
    damaged = index.lookup(Equals("v", "a"))
    assert damaged.indices().tolist() != expected
    assert repair(index) == [0]
    assert verify_index(index).ok
    assert index.lookup(Equals("v", "a")).indices().tolist() == expected


def test_repair_refuses_corrupt_mapping():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    # A value the mapping has never seen: unrepairable from data.
    table.column("A")._values[0] = "zebra"
    with pytest.raises(CorruptIndexError, match="mapping"):
        repair(index)


# ----------------------------------------------------------------------
# graceful degradation: planner + executor
# ----------------------------------------------------------------------
def _catalog(table, index):
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_index(index)
    return catalog


def test_degraded_index_falls_back_to_scan_and_recovers():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    executor = Executor(_catalog(table, index))
    predicate = Equals("A", "a")
    expected = {0, 4, 7}

    healthy = executor.select(table, predicate)
    assert not healthy.used_scan and not healthy.degraded
    assert set(healthy.row_ids()) == expected

    flip_bit(index, 0, 0)
    verify_index(index)
    degraded = executor.select(table, predicate)
    assert degraded.used_scan and degraded.degraded
    # The scan still answers correctly despite the broken index.
    assert set(degraded.row_ids()) == expected

    repair(index)
    recovered = executor.select(table, predicate)
    assert not recovered.used_scan and not recovered.degraded
    assert set(recovered.row_ids()) == expected


def test_missing_index_scan_is_not_flagged_degraded():
    table = build_table()
    catalog = Catalog()
    catalog.register_table(table)
    executor = Executor(catalog)
    result = executor.select(table, Equals("A", "a"))
    assert result.used_scan
    assert not result.degraded


def test_plan_describe_names_degraded_columns():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    index.degraded = True
    executor = Executor(_catalog(table, index))
    plan = executor.planner.plan(table, Equals("A", "a"))
    assert plan.fallback_scan
    assert plan.degraded_columns == ["A"]
    assert "degraded" in plan.describe()


# ----------------------------------------------------------------------
# file-level fsck + CLI
# ----------------------------------------------------------------------
def test_verify_payload_pass_and_fail():
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    payload = serialization.dumps(index)
    good = verify_payload(payload, path="good")
    assert good.ok
    assert good.rows == len(table)
    assert good.vectors == index.width
    mutated = bytearray(payload)
    mutated[-1] ^= 0x01
    bad = verify_payload(bytes(mutated), path="bad")
    assert not bad.ok
    assert isinstance(bad.error, CorruptIndexError)
    assert "FAIL" in bad.render()


def test_cli_fsck(tmp_path, capsys):
    table = build_table()
    index = EncodedBitmapIndex(table, "A")
    good = tmp_path / "good.ebi"
    serialization.save(index, str(good))
    payload = bytearray(serialization.dumps(index))
    payload[len(payload) // 2] ^= 0x20
    bad = tmp_path / "bad.ebi"
    bad.write_bytes(bytes(payload))

    assert cli_main(["fsck", str(good), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "column: 'A'" in out

    assert cli_main(["fsck", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "1/2 index file(s) passed fsck" in out

    assert cli_main(["fsck", str(tmp_path / "missing.ebi")]) == 1
    assert "cannot read" in capsys.readouterr().out
