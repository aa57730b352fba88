"""Tests for the repro.Database facade: construction, querying,
persistence round-trips, and the fsck/degraded quarantine loop."""

import json
import os
import random

import numpy as np
import pytest

from repro.database import Database
from repro.errors import CorruptIndexError, QueryTimeoutError, SchemaError
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.executor import Executor
from repro.query.options import QueryOptions
from repro.query.predicates import Equals, InList, Range
from repro.shard.executor import PartitionedQueryResult
from repro.table.catalog import Catalog
from repro.table.table import Table


def reference_rows(db, table_name, predicate):
    """Row ids by brute force against the facade's own table."""
    table = db.table(table_name)
    return [
        row_id
        for row_id in range(len(table))
        if not table.is_void(row_id)
        and predicate.matches(table.row(row_id))
    ]


def make_db(nrows=500, partitions=4, seed=11):
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        "sales",
        {
            "product": [rng.randrange(25) for _ in range(nrows)],
            "qty": [rng.randrange(100) for _ in range(nrows)],
        },
        partitions=partitions,
    )
    db.create_index("sales", "product")
    db.create_table("dim", {"k": ["x", "y", "z", "x"]})
    db.create_index("dim", "k")
    return db


class TestConstruction:
    def test_tables_and_partitioning(self):
        db = make_db()
        assert db.tables() == ["dim", "sales"]
        assert db.is_partitioned("sales")
        assert not db.is_partitioned("dim")
        assert len(db.table("sales")) == 500

    def test_empty_schema_table(self):
        db = Database()
        table = db.create_table("t", ["a", "b"])
        assert len(table) == 0
        table.append({"a": 1, "b": 2})
        assert table.row(0) == {"a": 1, "b": 2}

    def test_no_columns_rejected(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.create_table("t", {})

    def test_unknown_index_kind_rejected(self):
        db = make_db()
        with pytest.raises(Exception):
            db.create_index("dim", "k", kind="no-such-kind")

    def test_from_catalog_wraps_existing_indexes(self):
        catalog = Catalog()
        table = Table.from_columns("t", {"v": ["a", "b", "a", "c"]})
        catalog.register_table(table)
        catalog.register_index(EncodedBitmapIndex(table, "v"))
        db = Database.from_catalog(catalog)
        result = db.query("t", Equals("v", "a"))
        assert result.row_ids().tolist() == [0, 2]
        assert "t.v" in db.fsck()


class TestQueries:
    def test_partitioned_query_matches_reference(self):
        db = make_db()
        for predicate in (
            Equals("product", 7),
            InList("product", [2, 9, 24]),
            Range("qty", 30, 70),
        ):
            result = db.query("sales", predicate)
            assert isinstance(result, PartitionedQueryResult)
            assert result.row_ids().tolist() == reference_rows(
                db, "sales", predicate
            )

    def test_plain_query_matches_reference(self):
        db = make_db()
        result = db.query("dim", InList("k", ["x", "z"]))
        assert result.row_ids().tolist() == [0, 2, 3]

    def test_workers_override_is_deterministic(self):
        db = make_db()
        predicate = Equals("product", 3)
        db.query("sales", predicate)  # warm reduction caches
        one = db.query("sales", predicate, QueryOptions(workers=1))
        four = db.query("sales", predicate, QueryOptions(workers=4))
        assert one.vector == four.vector
        assert one.metrics == four.metrics

    def test_query_many_matches_single_queries(self):
        db = make_db()
        predicates = [
            Equals("product", 3),
            Range("qty", 10, 40),
            Equals("product", 3),
        ]
        for name in ("sales", "dim"):
            preds = (
                predicates
                if name == "sales"
                else [Equals("k", "x"), Equals("k", "x")]
            )
            batch = db.query_many(name, preds)
            assert len(batch) == len(preds)
            for predicate, result in zip(preds, batch):
                solo = db.query(name, predicate)
                assert np.array_equal(result.row_ids(), solo.row_ids())

    @pytest.mark.parametrize("partitions", [None, 2])
    @pytest.mark.parametrize("void_mode", ["encode", "vector"])
    def test_snapshot_rows_pin_in_every_void_mode(self, void_mode, partitions):
        values = ["a", "b", "c", "d"] * 32
        db = Database()
        db.create_table("t", {"v": values}, partitions=partitions)
        db.create_index("t", "v", void_mode=void_mode)
        result = db.query(
            "t", Equals("v", "a"), QueryOptions(snapshot_rows=70)
        )
        assert result.row_ids().tolist() == [
            row for row in range(70) if values[row] == "a"
        ]

    def test_explain_both_shapes(self):
        db = make_db()
        parted = db.explain("sales", Equals("product", 1))
        assert "PARTITIONED QUERY PLAN" in parted
        plain = db.explain("dim", Equals("k", "x"))
        assert "PARTITIONED" not in plain

    def test_trace_round_trip(self):
        db = make_db()
        result = db.query(
            "sales", Equals("product", 1), QueryOptions(trace=True)
        )
        assert result.trace is not None
        assert "PARTITIONED" in result.trace.plan_text


class TestPlainTableTimeouts:
    """``timeout_seconds`` on a plain table is checked before execution
    and between batch members, against a stepped clock."""

    DIM = [Equals("k", "x"), Equals("k", "y"), Equals("k", "z")]

    def test_query_raises_once_the_deadline_passes(self, deadline_clock):
        db = make_db()
        opts = QueryOptions(timeout_seconds=5.0)
        assert db.query("dim", self.DIM[0], opts).row_ids().tolist() == [
            0,
            3,
        ]
        deadline_clock.step = 100.0
        with pytest.raises(QueryTimeoutError):
            db.query("dim", self.DIM[0], opts)

    def test_query_many_stops_between_members(
        self, deadline_clock, monkeypatch
    ):
        db = make_db()
        executed = []
        execute = Executor.execute

        def slow_execute(self, plan, trace=False):
            executed.append(plan)
            deadline_clock.advance(100.0)
            return execute(self, plan, trace=trace)

        monkeypatch.setattr(Executor, "execute", slow_execute)
        with pytest.raises(QueryTimeoutError):
            db.query_many("dim", self.DIM, QueryOptions(timeout_seconds=5.0))
        assert len(executed) == 1
        batch = db.query_many("dim", self.DIM)
        assert [r.row_ids().tolist() for r in batch] == [[0, 3], [1], [2]]

    def test_query_many_checks_before_the_first_member(
        self, deadline_clock
    ):
        deadline_clock.step = 100.0
        with pytest.raises(QueryTimeoutError):
            make_db().query_many(
                "dim", self.DIM, QueryOptions(timeout_seconds=5.0)
            )


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        db = make_db()
        predicate = InList("product", [2, 9, 24])
        expected = db.query("sales", predicate).row_ids()
        db.save(str(tmp_path))

        assert (tmp_path / "manifest.json").exists()
        for i in range(4):
            assert (tmp_path / f"sales.product.p{i}.ebi").exists()
        assert (tmp_path / "dim.k.ebi").exists()

        loaded = Database.load(str(tmp_path))
        assert loaded.is_partitioned("sales")
        result = loaded.query("sales", predicate)
        assert np.array_equal(result.row_ids(), expected)
        assert not result.degraded
        assert (
            loaded.query("dim", Equals("k", "x")).row_ids().tolist()
            == [0, 3]
        )

    def test_bounds_survive_append_heavy_tables(self, tmp_path):
        # Appends only grow the last partition, so re-deriving bounds
        # from (nrows, partitions) on load would split differently;
        # the manifest must carry the bounds explicitly.
        db = Database()
        db.create_table(
            "t", {"v": [i % 5 for i in range(128)]}, partitions=2
        )
        table = db.table("t")
        for i in range(100):
            table.append({"v": i % 5})
        db.create_index("t", "v")
        before = [p.offset for p in table.partitions]
        expected = db.query("t", Equals("v", 3)).row_ids()

        db.save(str(tmp_path))
        loaded = Database.load(str(tmp_path))
        reloaded = loaded.table("t")
        assert [p.offset for p in reloaded.partitions] == before
        assert [len(p) for p in reloaded.partitions] == [
            len(p) for p in table.partitions
        ]
        assert np.array_equal(
            loaded.query("t", Equals("v", 3)).row_ids(), expected
        )

    def test_void_rows_survive_round_trip(self, tmp_path):
        db = make_db()
        db.table("sales").delete(70)
        db.table("dim").delete(1)
        db.save(str(tmp_path))
        loaded = Database.load(str(tmp_path))
        assert loaded.table("sales").is_void(70)
        assert loaded.query("dim", Equals("k", "y")).row_ids().tolist() == []

    def test_version_mismatch_rejected(self, tmp_path):
        db = make_db()
        db.save(str(tmp_path))
        manifest = tmp_path / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["version"] = 99
        manifest.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndexError):
            Database.load(str(tmp_path))


class TestDegradedLoop:
    """build → save → corrupt one partition → load → degraded query →
    fsck lifts the quarantine → clean re-query."""

    def corrupt(self, tmp_path, name="sales.product.p2.ebi"):
        path = os.path.join(str(tmp_path), name)
        with open(path, "r+b") as handle:
            handle.seek(50)
            byte = handle.read(1)
            handle.seek(50)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_corrupt_partition_surfaces_degraded(self, tmp_path):
        db = make_db()
        predicate = InList("product", [2, 9, 24])
        expected = db.query("sales", predicate).row_ids()
        db.save(str(tmp_path))
        self.corrupt(tmp_path)

        loaded = Database.load(str(tmp_path))
        result = loaded.query("sales", predicate)
        # Correct answer anyway: the damaged partition fell back to a
        # scan, and only that slice reports degraded.
        assert np.array_equal(result.row_ids(), expected)
        assert result.degraded
        assert [s.degraded for s in result.partitions] == [
            False,
            False,
            True,
            False,
        ]

    def test_fsck_lifts_quarantine(self, tmp_path):
        db = make_db()
        predicate = InList("product", [2, 9, 24])
        expected = db.query("sales", predicate).row_ids()
        db.save(str(tmp_path))
        self.corrupt(tmp_path)

        loaded = Database.load(str(tmp_path))
        assert loaded.query("sales", predicate).degraded
        reports = loaded.fsck()
        # The quarantined child was rebuilt fresh from the column on
        # load, so the audit passes and clears the flag.
        assert all(report.ok for report in reports.values())
        assert "sales.product.p2" in reports
        result = loaded.query("sales", predicate)
        assert not result.degraded
        assert np.array_equal(result.row_ids(), expected)

    def test_missing_payload_also_degrades(self, tmp_path):
        db = make_db()
        db.save(str(tmp_path))
        os.remove(os.path.join(str(tmp_path), "sales.product.p1.ebi"))
        loaded = Database.load(str(tmp_path))
        result = loaded.query("sales", Equals("product", 5))
        assert result.degraded
        assert result.row_ids().tolist() == reference_rows(
            loaded, "sales", Equals("product", 5)
        )

    def test_fsck_repair_rebuilds_damaged_vectors(self):
        db = make_db()
        child = None
        for candidate in db._encoded_indexes():
            if candidate[0] == "sales.product.p0":
                child = candidate[1]
        assert child is not None
        # Flip one bit in one bitmap vector: fsck must notice, repair
        # must rebuild it from the base column.
        child._vectors[0][3] = not child._vectors[0][3]
        reports = db.fsck()
        assert not reports["sales.product.p0"].ok
        reports = db.fsck(repair=True)
        assert reports["sales.product.p0"].ok
        predicate = Equals("product", 5)
        result = db.query("sales", predicate)
        assert not result.degraded
        assert (
            result.row_ids().tolist()
            == reference_rows(db, "sales", predicate)
        )
