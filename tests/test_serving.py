"""Serving-tier tests: queue, quotas, server, result-cache identity.

The load-bearing property here is the result cache's *bit-identity*
contract: a cached answer must equal uncached execution in rows AND
in ``c_e`` (``cost.vectors_accessed``), before and after every one of
the five mutation paths (append / update / delete / compact /
reorder).  The paper's bijective-mapping argument is what makes the
cache key sound — the matched-value set identifies the retrieval
function — and these tests are where that soundness is proved against
the executor rather than argued.

The seeded stress section replays the cache-stampede-plus-ingest
scenario across 50 deterministic interleavings under the lock
sanitizer (see tests/test_concurrency.py for the harness).
"""

import random
import threading
import time

import pytest

from repro.database import Database
from repro.errors import (
    InvalidArgumentError,
    QueryTimeoutError,
    QuotaExceededError,
    RequestTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.lint.sanitizer import (
    LockOrderRecorder,
    instrument,
    make_jitter,
    run_stress,
)
from repro.query.options import QueryOptions
from repro.query.predicates import (
    Equals,
    InList,
    IsNull,
    Predicate,
    Range,
)
from repro.serving import (
    BoundedRequestQueue,
    QuotaManager,
    Server,
    SyntheticWorkload,
    canonical_expression,
    percentile,
    results_identical,
)
from repro.serving.workload import ReadOp, WriteOp
from tests.conftest import matching_rows

REGIONS = ["N", "S", "E", "W"]

CACHED = QueryOptions(use_cache=True)
UNCACHED = QueryOptions(use_cache=False)


def make_db(partitions=None, rows=64, seed=0):
    rng = random.Random(seed)
    db = Database()
    db.create_table(
        "sales",
        {
            "region": [
                REGIONS[rng.randrange(len(REGIONS))] for _ in range(rows)
            ],
            "qty": [rng.randrange(50) for _ in range(rows)],
        },
        partitions=partitions,
    )
    db.create_index("sales", "region")
    return db


# ---------------------------------------------------------------------
# bounded admission queue
# ---------------------------------------------------------------------
class TestBoundedQueue:
    def test_fifo_round_trip(self):
        queue = BoundedRequestQueue(capacity=4)
        for item in "abc":
            assert queue.put(item) == []
        assert [queue.get(), queue.get(), queue.get()] == ["a", "b", "c"]

    def test_reject_policy_fails_fast_when_full(self):
        queue = BoundedRequestQueue(capacity=2, policy="reject")
        queue.put("a")
        queue.put("b")
        with pytest.raises(ServerOverloadedError):
            queue.put("c")

    def test_block_policy_times_out(self):
        queue = BoundedRequestQueue(capacity=1, policy="block")
        queue.put("a")
        with pytest.raises(RequestTimeoutError):
            queue.put("b", timeout=0.05)

    def test_shed_policy_drops_the_oldest(self):
        queue = BoundedRequestQueue(capacity=2, policy="shed")
        queue.put("a")
        queue.put("b")
        assert queue.put("c") == ["a"]
        assert [queue.get(), queue.get()] == ["b", "c"]

    def test_get_times_out_when_empty(self):
        queue = BoundedRequestQueue(capacity=1)
        with pytest.raises(RequestTimeoutError):
            queue.get(timeout=0.01)

    def test_close_drains_and_stops_admissions(self):
        queue = BoundedRequestQueue(capacity=4)
        queue.put("a")
        queue.put("b")
        assert queue.close() == ["a", "b"]
        assert queue.closed
        with pytest.raises(ServerClosedError):
            queue.put("c")
        with pytest.raises(ServerClosedError):
            queue.get()

    def test_invalid_configuration_rejected(self):
        with pytest.raises(InvalidArgumentError):
            BoundedRequestQueue(capacity=0)
        with pytest.raises(InvalidArgumentError):
            BoundedRequestQueue(capacity=1, policy="panic")


# ---------------------------------------------------------------------
# per-tenant quotas
# ---------------------------------------------------------------------
class TestQuotaManager:
    def test_anonymous_resolution(self):
        quotas = QuotaManager()
        assert quotas.acquire(None) == "anonymous"
        assert quotas.inflight("anonymous") == 1
        quotas.release("anonymous")
        assert quotas.inflight() == 0

    def test_ceiling_enforced_and_released(self):
        quotas = QuotaManager(default_limit=2)
        quotas.acquire("t")
        quotas.acquire("t")
        with pytest.raises(QuotaExceededError):
            quotas.acquire("t")
        quotas.release("t")
        assert quotas.acquire("t") == "t"

    def test_per_tenant_override_grants_unlimited_lane(self):
        quotas = QuotaManager(
            default_limit=1, limits={"analytics": None}
        )
        for _ in range(5):
            quotas.acquire("analytics")
        quotas.acquire("other")
        with pytest.raises(QuotaExceededError):
            quotas.acquire("other")

    def test_invalid_limits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            QuotaManager(default_limit=0)
        with pytest.raises(InvalidArgumentError):
            QuotaManager(limits={"t": 0})


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 99.0) == 99.0
    assert percentile([], 50.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        percentile([1.0], 0.0)


# ---------------------------------------------------------------------
# server
# ---------------------------------------------------------------------
class _GatedScanPredicate(Predicate):
    """Matches nothing, but parks the scanning worker on an event.

    The table it queries has no index, so execution falls back to a
    scan and calls ``matches`` — a deterministic way to occupy a
    worker for exactly as long as a test needs.
    """

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def matches(self, row):
        self.started.set()
        self.release.wait(timeout=30.0)
        return False

    def columns(self):
        return frozenset(("x",))


def _server_db():
    db = make_db(partitions=2, rows=96)
    # An unindexed one-row table whose queries scan — used to park a
    # worker deterministically.
    db.create_table("gate", {"x": [0]})
    return db


class TestServer:
    def test_round_trip_matches_reference_scan(self):
        db = make_db(rows=96)
        table = db.table("sales")
        with Server(database=db, workers=2) as server:
            for predicate in (
                Equals("region", "N"),
                InList("region", ["S", "E"]),
            ):
                result = server.query("sales", predicate)
                assert (
                    result.row_ids().tolist()
                    == matching_rows(table, predicate)
                )
        db.close()

    def test_second_identical_request_is_served_cached(self):
        db = make_db(partitions=2)
        with Server(database=db, workers=1) as server:
            predicate = Equals("region", "N")
            first = server.query("sales", predicate)
            second = server.query("sales", predicate)
            assert not first.cached
            assert second.cached
            assert results_identical(first, second)
        db.close()

    def test_use_cache_false_serves_strictly_uncached(self):
        db = make_db()
        with Server(database=db, workers=1, use_cache=False) as server:
            predicate = Equals("region", "N")
            server.query("sales", predicate)
            assert not server.query("sales", predicate).cached
        db.close()

    def test_tenant_accounting_and_percentiles(self):
        db = make_db()
        with Server(database=db, workers=2) as server:
            for tenant, count in (("alpha", 3), ("beta", 1)):
                for _ in range(count):
                    server.query(
                        "sales",
                        Equals("region", "N"),
                        options=QueryOptions(tenant=tenant),
                    )
        # the context manager closed (joined) the server, so every
        # fulfilled request has also been recorded
        stats = server.stats()
        db.close()
        assert stats.completed == 4
        assert stats.failed == 0
        assert set(stats.latency_percentiles) == {"p50", "p99"}
        assert stats.tenants["alpha"].completed == 3
        assert stats.tenants["beta"].completed == 1
        assert stats.tenants["alpha"].latency_percentiles["p99"] >= 0.0

    def test_quota_breach_fails_before_the_queue(self):
        db = make_db()
        quotas = QuotaManager(limits={"greedy": 1})
        with Server(database=db, workers=1, quotas=quotas) as server:
            quotas.acquire("greedy")  # simulate one in flight
            with pytest.raises(QuotaExceededError):
                server.submit(
                    "sales",
                    Equals("region", "N"),
                    options=QueryOptions(tenant="greedy"),
                )
            stats = server.stats()
            assert stats.submitted == 0  # rejected before admission
        db.close()

    def test_reject_policy_overload_surfaces_to_submitter(self):
        db = _server_db()
        gate = _GatedScanPredicate()
        server = Server(
            database=db, workers=1, queue_capacity=1, policy="reject"
        )
        try:
            blocker = server.submit("gate", gate)
            assert gate.started.wait(timeout=10.0)
            queued = server.submit("sales", Equals("region", "N"))
            with pytest.raises(ServerOverloadedError):
                server.submit("sales", Equals("region", "S"))
            gate.release.set()
            assert blocker.result(timeout=10.0).count() == 0
            assert queued.result(timeout=10.0).count() > 0
        finally:
            gate.release.set()
            server.close()
            db.close()

    def test_shed_policy_fails_the_oldest_queued_request(self):
        db = _server_db()
        gate = _GatedScanPredicate()
        server = Server(
            database=db, workers=1, queue_capacity=1, policy="shed"
        )
        try:
            blocker = server.submit("gate", gate)
            assert gate.started.wait(timeout=10.0)
            victim = server.submit("sales", Equals("region", "N"))
            newer = server.submit("sales", Equals("region", "S"))
            with pytest.raises(ServerOverloadedError):
                victim.result(timeout=10.0)
            gate.release.set()
            assert blocker.result(timeout=10.0).count() == 0
            assert newer.result(timeout=10.0).count() > 0
            stats = server.stats()
            assert stats.shed == 1
        finally:
            gate.release.set()
            server.close()
            db.close()

    def test_plain_table_request_times_out_in_execution(
        self, deadline_clock
    ):
        db = make_db(rows=96)
        server = Server(database=db, workers=1)
        try:
            # Real time keeps the request inside its deadline while it
            # is queued; the stepped clock behind the query's own
            # deadline check then jumps past it.
            deadline_clock.step = 100.0
            with pytest.raises(QueryTimeoutError):
                server.query(
                    "sales",
                    Equals("region", "N"),
                    options=QueryOptions(timeout_seconds=30.0),
                )
            server.close()  # join workers so the failure is recorded
            stats = server.stats()
            assert stats.timed_out == 1
            assert stats.completed == 0
        finally:
            server.close()
            db.close()

    def test_deadline_expired_in_queue_times_out(self):
        db = _server_db()
        gate = _GatedScanPredicate()
        server = Server(database=db, workers=1, queue_capacity=4)
        try:
            blocker = server.submit("gate", gate)
            assert gate.started.wait(timeout=10.0)
            doomed = server.submit(
                "sales",
                Equals("region", "N"),
                options=QueryOptions(timeout_seconds=0.05),
            )
            time.sleep(0.15)
            gate.release.set()
            blocker.result(timeout=10.0)
            with pytest.raises(RequestTimeoutError):
                doomed.result(timeout=10.0)
            server.close()  # join workers so the failure is recorded
            stats = server.stats()
            assert stats.timed_out == 1
        finally:
            gate.release.set()
            server.close()
            db.close()

    def test_failure_reaches_caller_and_is_counted(self):
        db = make_db()
        with Server(database=db, workers=1) as server:
            request = server.submit("no-such-table", Equals("x", 1))
            with pytest.raises(Exception):
                request.result(timeout=10.0)
        stats = server.stats()  # after close: failure recorded
        assert stats.failed == 1
        db.close()

    def test_closed_server_refuses_submissions(self):
        db = make_db()
        server = Server(database=db, workers=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit("sales", Equals("region", "N"))
        server.close()  # idempotent
        db.close()


# ---------------------------------------------------------------------
# result-cache bit-identity across every mutation path
# ---------------------------------------------------------------------
IDENTITY_PREDICATES = [
    Equals("region", "N"),
    InList("region", ["N", "S"]),
    Equals("region", "N") | Equals("region", "S"),
    Range("qty", 10, 30),
    ~Equals("region", "E"),
    (Equals("region", "E") | Equals("region", "W")) & Range("qty", 0, 40),
    IsNull("region"),
]

MUTATIONS = {
    "append": lambda db: db.append("sales", {"region": "N", "qty": 7}),
    "update": lambda db: db.update("sales", 3, "region", "W"),
    "delete": lambda db: db.delete("sales", 5),
    "compact": lambda db: db.compact(),
    "reorder": lambda db: db.reorder("sales", ["region"]),
}


@pytest.mark.parametrize("partitions", [None, 2])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_cache_bit_identity_across_mutation(mutation, partitions):
    """Cached == uncached (rows and c_e) before AND after a mutation.

    Before: a warm hit reproduces the uncached answer bit-for-bit.
    After: the mutation moved the epoch, so the next cached query
    re-executes (never serves the stale entry) and again matches the
    uncached answer exactly.
    """
    db = make_db(partitions=partitions, rows=96)
    try:
        for predicate in IDENTITY_PREDICATES:
            uncached = db.query("sales", predicate, UNCACHED)
            db.query("sales", predicate, CACHED)  # fill
            hit = db.query("sales", predicate, CACHED)
            assert hit.cached, predicate
            assert results_identical(hit, uncached), predicate

        epoch_before = db.epoch("sales")
        MUTATIONS[mutation](db)
        assert db.epoch("sales") > epoch_before

        refilled = set()
        for predicate in IDENTITY_PREDICATES:
            expr = canonical_expression(predicate, db.catalog, "sales")
            uncached = db.query("sales", predicate, UNCACHED)
            refreshed = db.query("sales", predicate, CACHED)
            if expr not in refilled:
                # First query of this retrieval class since the
                # mutation: the stale entry must NOT be served.
                assert not refreshed.cached, predicate
                refilled.add(expr)
            assert results_identical(refreshed, uncached), predicate
            again = db.query("sales", predicate, CACHED)
            assert again.cached, predicate
            assert results_identical(again, uncached), predicate
    finally:
        db.close()


def test_canonically_equal_spellings_share_entry_and_cost():
    """OR-of-Equals, IN-list: one cache entry, one execution cost.

    The planner normalises the OR spelling into the IN-list before
    planning, so both spellings execute with identical c_e — which is
    what lets the cache soundly serve one entry to both.
    """
    db = make_db(partitions=2, rows=96)
    try:
        in_list = InList("region", ["N", "S"])
        or_form = Equals("region", "S") | Equals("region", "N")
        uncached_in = db.query("sales", in_list, UNCACHED)
        uncached_or = db.query("sales", or_form, UNCACHED)
        assert results_identical(uncached_in, uncached_or)

        filled = db.query("sales", in_list, CACHED)
        shared = db.query("sales", or_form, CACHED)
        assert not filled.cached
        assert shared.cached  # the other spelling's entry served
        assert results_identical(shared, uncached_in)
    finally:
        db.close()


def test_trace_and_snapshot_queries_bypass_the_cache():
    db = make_db(partitions=2, rows=96)
    try:
        predicate = Equals("region", "N")
        db.query("sales", predicate, CACHED)  # fill
        traced = db.query(
            "sales", predicate, QueryOptions(use_cache=True, trace=True)
        )
        assert not traced.cached
        assert traced.trace is not None
        pinned = db.query(
            "sales",
            predicate,
            QueryOptions(use_cache=True, snapshot_rows=48),
        )
        assert not pinned.cached
    finally:
        db.close()


# ---------------------------------------------------------------------
# executor lifecycle
# ---------------------------------------------------------------------
def test_executor_lifecycle_across_reorder_compact_close(tmp_path):
    """The lazily built per-table executor stays valid through every
    table-shape change: reorder (rows permute), compact (index planes
    swap), close (executors released) and recover (fresh process)."""
    db = make_db(partitions=2, rows=96)
    predicate = Equals("region", "N")
    opts = QueryOptions(workers=2)
    directory = str(tmp_path / "db")
    try:
        baseline = db.query("sales", predicate, opts).count()

        db.reorder("sales", ["region"])
        assert db.query("sales", predicate, opts).count() == baseline

        db.compact()
        assert db.query("sales", predicate, opts).count() == baseline

        db.close()  # releases executors; next query rebuilds lazily
        assert db.query("sales", predicate, opts).count() == baseline

        db.save(directory)
    finally:
        db.close()

    recovered = Database.recover(directory)
    try:
        assert (
            recovered.query("sales", predicate, opts).count() == baseline
        )
    finally:
        recovered.close()


# ---------------------------------------------------------------------
# seeded concurrency stress under the lock sanitizer
# ---------------------------------------------------------------------
STRESS_SEEDS = range(50)


def test_cache_stampede_with_ingest_seeded_interleavings():
    """Readers hammer the result cache while a writer appends.

    50 seeded interleavings; invariants per seed: no lock-order
    inversion across the cache/quota/ingest locks, every concurrent
    answer is well-formed, and once writers quiesce the cached answer
    is bit-identical to uncached execution for every predicate.
    """
    predicates = [Equals("region", v) for v in REGIONS] + [
        InList("region", ["N", "S"])
    ]
    for seed in STRESS_SEEDS:
        db = make_db(partitions=2, rows=48, seed=seed)
        rec = LockOrderRecorder()
        jitter = make_jitter(seed)
        instrument(
            db.result_cache, recorder=rec, name="result-cache",
            jitter=jitter,
        )
        instrument(
            db.result_cache._entries, recorder=rec,
            name="result-cache-lru", jitter=jitter,
        )
        instrument(
            db, "_ingest_lock", recorder=rec, name="ingest",
            jitter=jitter,
        )

        def workload(tid, i, db=db, predicates=predicates):
            if tid == 0 and i % 3 == 0:
                db.append(
                    "sales", {"region": REGIONS[i % 4], "qty": i}
                )
            else:
                result = db.query(
                    "sales",
                    predicates[(tid + i) % len(predicates)],
                    CACHED,
                )
                assert len(result.vector) > 0

        report = run_stress(
            workload, threads=4, iterations=9, seed=seed, recorder=rec
        )
        assert report.ok, report.render()
        for predicate in predicates:
            cached = db.query("sales", predicate, CACHED)
            uncached = db.query("sales", predicate, UNCACHED)
            assert results_identical(cached, uncached), (
                seed,
                predicate,
            )
        db.close()


def test_server_seeded_stress_under_sanitizer():
    """Synchronous callers drive a live server across 10 seeds; the
    stats/quota locks must stay inversion-free and every admitted
    request must complete."""
    for seed in range(10):
        db = make_db(partitions=2, rows=48, seed=seed)
        server = Server(
            database=db, workers=2, queue_capacity=16,
            default_timeout=30.0,
        )
        rec = LockOrderRecorder()
        jitter = make_jitter(seed)
        instrument(
            server, "_stats_lock", recorder=rec, name="server-stats",
            jitter=jitter,
        )
        instrument(
            server.quotas, recorder=rec, name="quotas", jitter=jitter
        )
        instrument(
            db.result_cache, recorder=rec, name="result-cache",
            jitter=jitter,
        )

        def workload(tid, i, server=server):
            result = server.query(
                "sales",
                Equals("region", REGIONS[(tid + i) % 4]),
                options=QueryOptions(tenant=f"tenant-{tid}"),
            )
            assert len(result.vector) > 0

        report = run_stress(
            workload, threads=4, iterations=6, seed=seed, recorder=rec
        )
        assert report.ok, report.render()
        # close() joins the workers, so every fulfilled request has
        # also been *recorded* by the time stats are read.
        server.close()
        stats = server.stats()
        assert stats.completed == 4 * 6
        assert stats.failed == 0
        db.close()


# ---------------------------------------------------------------------
# synthetic workload
# ---------------------------------------------------------------------
class TestSyntheticWorkload:
    def test_reproducible_across_instances(self):
        ops_a = list(
            SyntheticWorkload(seed=9, tenants=3).operations(40)
        )
        ops_b = list(
            SyntheticWorkload(seed=9, tenants=3).operations(40)
        )
        assert ops_a == ops_b

    def test_mix_and_shapes(self):
        workload = SyntheticWorkload(seed=2, read_fraction=0.8)
        ops = list(workload.operations(300))
        reads = [op for op in ops if isinstance(op, ReadOp)]
        writes = [op for op in ops if isinstance(op, WriteOp)]
        assert len(reads) + len(writes) == 300
        assert 0.6 < len(reads) / 300 < 0.95
        assert all(
            op.tenant.startswith("tenant-") for op in ops
        )

    def test_table_and_column_override(self):
        workload = SyntheticWorkload(
            seed=1, values=["x", "y"], table="facts", column="dim"
        )
        assert workload.TABLE == "facts"
        assert workload.COLUMN == "dim"
        # the class defaults are untouched
        assert SyntheticWorkload.TABLE == "events"
        read = next(
            op
            for op in workload.operations(50)
            if isinstance(op, ReadOp)
        )
        assert read.predicate.columns() == frozenset(("dim",))

    def test_build_creates_queryable_table(self):
        db = Database()
        workload = SyntheticWorkload(seed=3, rows=256, partitions=2)
        workload.build(db)
        try:
            result = db.query(
                workload.TABLE,
                Equals(workload.COLUMN, workload.values[0]),
            )
            table = db.table(workload.TABLE)
            assert result.row_ids().tolist() == matching_rows(
                table, Equals(workload.COLUMN, workload.values[0])
            )
        finally:
            db.close()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticWorkload(tenants=0)
        with pytest.raises(InvalidArgumentError):
            SyntheticWorkload(values=[])
        with pytest.raises(InvalidArgumentError):
            SyntheticWorkload(read_fraction=1.5)
        with pytest.raises(InvalidArgumentError):
            SyntheticWorkload(rows=0)
