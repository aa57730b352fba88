"""Deterministic crash matrix: kill save/ingest/compaction anywhere.

One scripted workload (save, batched appends, an update, a delete, a
compaction, a second save) runs once per registered crash point with a
:class:`~repro.faults.crash.CrashSchedule` armed at that point.  After
the simulated kill, :meth:`repro.database.Database.recover` must bring
the directory back to a consistent state:

* fsck passes on every index;
* every *acknowledged* row (its ingest call returned before the crash)
  is present with its values;
* query results are bit-identical — rows and ``c_e`` — to a fresh
  index built from scratch over the recovered table.

The matrix is exhaustive over crash points and entirely deterministic:
no threads, no timing, each point fires exactly once.
"""

from __future__ import annotations

import pytest

from repro.database import Database
from repro.faults.crash import (
    SimulatedCrash,
    crash_schedule,
    registered_crash_points,
)
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.query.predicates import Equals

PRODUCTS = ["ale", "bock", "cider", "dunkel"]


def build(directory: str) -> Database:
    db = Database()
    db.create_table(
        "sales",
        {
            "product": [PRODUCTS[i % 4] for i in range(40)],
            "qty": list(range(40)),
        },
    )
    db.create_index("sales", "product")
    db.save(directory)
    return db


def workload(db: Database, acked: list) -> None:
    """The scripted mutations; records each ack as it happens."""
    rows_a = [
        {"product": PRODUCTS[i % 4], "qty": 100 + i} for i in range(8)
    ]
    ids = db.append_rows("sales", rows_a)
    acked.extend(zip(ids, rows_a))
    db.update("sales", ids[0], "qty", 999)
    acked[-8] = (ids[0], {**rows_a[0], "qty": 999})
    db.delete("sales", ids[1])
    acked.pop(-7)
    db.compact()
    rows_b = [
        {"product": PRODUCTS[(i + 1) % 4], "qty": 200 + i}
        for i in range(4)
    ]
    ids_b = db.append_rows("sales", rows_b)
    acked.extend(zip(ids_b, rows_b))
    db.save(db._directory)


@pytest.mark.parametrize("point", registered_crash_points())
def test_crash_point_recovers_consistent(point, tmp_path):
    directory = str(tmp_path / "db")
    db = build(directory)
    acked: list = []
    fired = False
    try:
        with crash_schedule(point) as schedule:
            workload(db, acked)
    except SimulatedCrash as crash:
        assert crash.point == point
        fired = True
    # The workload is built to pass through every registered point, so
    # an unfired schedule means matrix coverage silently rotted.
    assert fired and schedule.fired, f"{point} never fired"

    recovered = Database.recover(directory)

    # 1. fsck: every index internally consistent.
    reports = recovered.fsck()
    assert reports, "expected at least one audited index"
    for label, report in reports.items():
        assert report.ok, f"fsck failed for {label}: {report}"

    # 2. zero acknowledged-row loss, with the acknowledged values.
    table = recovered.table("sales")
    for row_id, row in acked:
        assert row_id < len(table), (point, row_id)
        assert not table.is_void(row_id)
        got = table.row(row_id)
        assert got == row, (point, row_id, got, row)

    # 3. bit-identical retrieval vs a from-scratch rebuild: same rows,
    # same c_e, for every domain value.
    index = recovered.catalog.indexes_on("sales", "product")[0].child(0)
    rebuilt = EncodedBitmapIndex(
        index.table, "product", encoding=index.mapping
    )
    for product in PRODUCTS:
        expected = rebuilt.lookup(Equals("product", product))
        actual = index.lookup(Equals("product", product))
        assert list(actual) == list(expected), (point, product)
        assert (
            index.last_cost.vectors_accessed
            == rebuilt.last_cost.vectors_accessed
        ), (point, product)


def test_crash_matrix_covers_save_ingest_and_compaction():
    """The registry names points in all three subsystems (so the
    matrix cannot silently shrink)."""
    points = registered_crash_points()
    assert any(p.startswith("database.save.") for p in points)
    assert any(p.startswith("database.ingest.") for p in points)
    assert any(p.startswith("index.compact.") for p in points)
    assert len(points) >= 10


def test_double_crash_double_recover(tmp_path):
    """Recovery composes: crash, recover, crash again, recover again."""
    directory = str(tmp_path / "db")
    db = build(directory)
    try:
        with crash_schedule("database.ingest.applied"):
            db.append("sales", {"product": "ale", "qty": 500})
    except SimulatedCrash:
        pass
    db2 = Database.recover(directory)
    assert len(db2.table("sales")) == 41
    try:
        with crash_schedule("database.save.post-rename"):
            db2.save(directory)
    except SimulatedCrash:
        pass
    db3 = Database.recover(directory)
    assert len(db3.table("sales")) == 41
    for report in db3.fsck().values():
        assert report.ok
