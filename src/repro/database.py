"""``repro.Database`` — the unified facade over the whole stack.

One object ties together tables, index construction, planned and
partition-parallel query execution, EXPLAIN, persistence, and fsck —
the pieces that previously had to be wired by hand through
:class:`~repro.table.catalog.Catalog`,
:class:`~repro.shard.executor.ParallelExecutor` and
:mod:`repro.index.serialization`.

Every table is a :class:`~repro.shard.partition.PartitionedTable`:
``create_table(..., partitions=None)`` makes one partition holding
every row, so each read, EXPLAIN, save and fsck takes the one
partition path.  Index children, fsck labels and payload files are
named per partition (``sales.product.p0``).

Quickstart::

    from repro import Database, Equals

    db = Database()
    db.create_table(
        "sales",
        {"product": ["a", "b", "a"], "qty": [1, 2, 3]},
        partitions=2,
    )
    db.create_index("sales", "product")
    result = db.query("sales", Equals("product", "a"))
    print(result.row_ids())  # [0 2]: an ascending int64 numpy array

Saving writes a directory: a ``manifest.json`` with the table data
(column values, void rows, partition bounds, index specs) plus one
checksummed ``.ebi`` payload per partition child of each encoded or
compressed index.  Loading rebuilds the lot; a damaged ``.ebi``
payload does not fail the load: the affected partition child is
rebuilt from the base data and marked ``degraded`` so the planner
quarantines it until :meth:`Database.fsck` re-audits it.  A manifest
entry without ``bounds`` (written before every table was
partitioned) loads as one partition from its ``<table>.<column>.ebi``
payloads.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
    cast,
)

from repro.encoding.mapping import MappingTable
from repro.errors import (
    CorruptIndexError,
    IndexBuildError,
    InvalidArgumentError,
    SchemaError,
)
from repro.index import serialization
from repro.index.base import Index
from repro.index.bitsliced import BitSlicedIndex
from repro.index.btree import BPlusTreeIndex
from repro.index.compressed import CompressedBitmapIndex
from repro.index.encoded_bitmap import EncodedBitmapIndex
from repro.index.paged import PagedEncodedBitmapIndex
from repro.index.simple_bitmap import SimpleBitmapIndex
from repro.faults.crash import crash_point
from repro.index.verify import FsckReport, verify_index
from repro.index.verify import repair as repair_index
from repro.obs.metrics import MetricsRegistry
from repro.query.executor import QueryResult
from repro.query.options import DEFAULT_OPTIONS, QueryOptions
from repro.query.predicates import Predicate
from repro.query.snapshot import published_rows
from repro.serving.result_cache import (
    CacheKey,
    ResultCache,
    cache_key,
)
from repro.storage.wal import FileWriteAheadLog, WalRecord
from repro.shard.executor import ParallelExecutor
from repro.shard.index import PartitionedIndex
from repro.shard.partition import Partition, PartitionedTable
from repro.shard.reorder import reorder_partitioned
from repro.shard.residency import ResidencyManager
from repro.table.catalog import Catalog
from repro.table.table import Table

#: Index kinds :meth:`Database.create_index` knows how to build (and,
#: for kinds without a payload format, rebuild from base data on load).
INDEX_KINDS: Dict[str, Callable[..., Index]] = {
    "encoded": EncodedBitmapIndex,
    "simple": SimpleBitmapIndex,
    "paged": PagedEncodedBitmapIndex,
    "btree": BPlusTreeIndex,
    "bitsliced": BitSlicedIndex,
    "compressed": CompressedBitmapIndex,
}

#: Kinds whose indexes persist as checksummed ``.ebi`` payloads.
_PAYLOAD_KINDS = (EncodedBitmapIndex, CompressedBitmapIndex)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1
WAL_NAME = "wal.log"


class Database:
    """Facade over catalog, indexes, executors and persistence.

    Parameters
    ----------
    registry:
        Optional metrics sink for every query run through the facade;
        defaults to the calling thread's current registry per query.
    memory_budget_bytes:
        Out-of-core residency budget (``docs/out_of_core.md``): the
        combined dense plane bytes each table may keep in RAM.
        When set, each table gets a
        :class:`~repro.shard.residency.ResidencyManager` that spills
        cold partitions' plane snapshots to CRC-headered plane files
        (LRU by last-query epoch) and faults them back in on demand —
        queries stay bit-identical, plane words page from disk.
        ``None`` (the default) keeps everything resident.  Persisted
        in the manifest by :meth:`save`.
    """

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise InvalidArgumentError(
                f"memory_budget_bytes must be >= 0, got "
                f"{memory_budget_bytes}"
            )
        self.catalog = Catalog()  # ebi: shared-readonly
        self.registry = registry  # ebi: shared-readonly
        self.memory_budget_bytes = memory_budget_bytes  # ebi: shared-readonly
        #: Guards the lazily built per-table executor map — ``query``
        #: is part of the facade's thread-safe surface.
        self._lock = threading.Lock()
        self._executors: Dict[str, ParallelExecutor] = {}
        #: One entry per ``create_index`` call: table, column, kind.
        self._index_specs: List[Dict[str, str]] = []
        #: Last applied row reorder per table: ordering, sort columns
        #: and the per-partition permutations (saved in the manifest).
        self._reorders: Dict[str, Dict[str, Any]] = {}
        #: Serialises WAL logging with the mutation it covers, so the
        #: log order matches the apply order exactly.
        self._ingest_lock = threading.Lock()
        #: Durable home, set by :meth:`save` / :meth:`recover`.  While
        #: attached, every ingest call is WAL-logged (and fsynced)
        #: before it is applied — the ack implies durability.
        self._directory: Optional[str] = None
        self._wal: Optional[FileWriteAheadLog] = None
        #: Monotonic manifest generation; bumped by every save.
        self._generation = 0
        #: Per-table data epoch: bumped on *entry and exit* of every
        #: mutation path (append/update/delete/compact/reorder and
        #: index DDL), so a query overlapping a mutation can never
        #: observe the same epoch before and after executing — the
        #: store-side double-check in :meth:`query` then refuses the
        #: fill and the result cache stays coherent.
        self._epochs: Dict[str, int] = {}
        #: Result cache keyed on canonicalised retrieval expressions
        #: (:mod:`repro.serving.result_cache`); consulted only when a
        #: query opts in via ``QueryOptions(use_cache=True)``.
        self.result_cache = ResultCache()  # ebi: shared-readonly
        #: Lazily-built per-table residency managers (only when a
        #: memory budget is configured).
        self._residency: Dict[str, ResidencyManager] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(
        cls,
        catalog: Catalog,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Database":
        """Wrap an already-populated catalog (CLI scenarios, tests).

        Each registered table becomes a one-partition table over the
        same :class:`~repro.table.table.Table`, and each index its
        partition's child: no index is rebuilt or attached twice.
        """
        db = cls(registry=registry)
        for table in catalog.tables():
            db.catalog.register_table(
                cast(Table, PartitionedTable(table.name, [Partition(0, 0, table)]))
            )
        for index in catalog.all_indexes():
            db.catalog.register_index(
                PartitionedIndex(
                    db.table(index.table.name),
                    index.column_name,
                    factory=lambda _table, _column, child=index: child,
                ),
                attach=False,
            )
            # The spec names the INDEX_KINDS key, which load rebuilds
            # from (an index's own ``kind`` tag, e.g. "encoded-bitmap",
            # is not one).
            kind = next(
                (k for k, build in INDEX_KINDS.items() if type(index) is build),
                getattr(index, "kind", "encoded"),
            )
            db._index_specs.append(
                {
                    "table": index.table.name,
                    "column": index.column_name,
                    "kind": kind,
                }
            )
        return db

    def create_table(
        self,
        name: str,
        columns: Union[Mapping[str, Sequence[Any]], Sequence[str]],
        *,
        partitions: Optional[int] = None,
    ) -> PartitionedTable:
        """Create a table from column data or a bare schema.

        ``columns`` is either a mapping of column name to values
        (the table is populated) or a sequence of column names (an
        empty table).  The table is a
        :class:`~repro.shard.partition.PartitionedTable`:
        ``partitions=N`` splits its rows into up to ``N`` word-aligned
        row-range partitions, ``None`` keeps them in one.
        """
        if isinstance(columns, Mapping):
            data: Mapping[str, Sequence[Any]] = columns
        else:
            data = {column: [] for column in columns}
        if not data:
            raise SchemaError("a table needs at least one column")
        table = PartitionedTable.from_columns(
            name, data, partitions=1 if partitions is None else partitions
        )
        self.catalog.register_table(cast(Table, table))
        self._bump_epoch(name)
        return table

    def table(self, name: str) -> PartitionedTable:
        """The table registered under ``name`` (raises if absent)."""
        return cast(PartitionedTable, self.catalog.table(name))

    def tables(self) -> List[str]:
        return sorted(table.name for table in self.catalog.tables())

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def create_index(
        self,
        table_name: str,
        column_name: str,
        *,
        kind: str = "encoded",
        encoding: Optional[MappingTable] = None,
        factory: Optional[Callable[[Table, str], Index]] = None,
        **options: Any,
    ) -> Index:
        """Build and register an index on one column.

        ``kind`` selects the index class (see :data:`INDEX_KINDS`);
        one child of that kind is built per partition behind a
        :class:`~repro.shard.index.PartitionedIndex`.  ``factory``
        overrides the per-partition constructor entirely.
        """
        if kind not in INDEX_KINDS:
            raise InvalidArgumentError(
                f"unknown index kind {kind!r}; expected one of "
                f"{sorted(INDEX_KINDS)}"
            )
        table = self.table(table_name)
        self._bump_epoch(table_name)
        index = PartitionedIndex(
            table,
            column_name,
            factory=factory or self._child_factory(kind, encoding, options),
        )
        self.catalog.register_index(index, attach=False)
        self._index_specs.append(
            {"table": table_name, "column": column_name, "kind": kind}
        )
        # A residency manager built before this index existed must
        # track the new children too.
        with self._lock:
            manager = self._residency.get(table_name)
        if manager is not None:
            for i, child in enumerate(index.children):
                manager.register(i, child)
        self._bump_epoch(table_name)
        return index

    @staticmethod
    def _child_factory(
        kind: str,
        encoding: Optional[MappingTable],
        options: Dict[str, Any],
    ) -> Callable[[Table, str], Index]:
        build = INDEX_KINDS[kind]
        kwargs = dict(options)
        if encoding is not None:
            kwargs["encoding"] = encoding

        def factory(table: Table, column_name: str) -> Index:
            return build(table, column_name, **kwargs)

        return factory

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(  # ebi: worker-entry
        self,
        table_name: str,
        predicate: Predicate,
        options: Optional[QueryOptions] = None,
    ) -> QueryResult:
        """Plan and run one selection.

        The result is a
        :class:`~repro.shard.executor.PartitionedQueryResult`.
        Everything per-call travels in
        :class:`~repro.query.options.QueryOptions`: worker count,
        snapshot pin, timeout, tenant stamp — and
        ``use_cache=True``, which serves repeat retrievals from
        :attr:`result_cache` bit-identically (rows *and* ``c_e``) to
        uncached execution.  Traced or snapshot-pinned queries bypass
        the cache.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        start = time.perf_counter()
        key: Optional[CacheKey] = None
        epoch = 0
        if (
            opts.use_cache
            and not opts.trace
            and opts.snapshot_rows is None
        ):
            epoch = self._epoch(table_name)
            key = cache_key(
                self.catalog,
                table_name,
                predicate,
                epoch=epoch,
                published=published_rows(self.table(table_name)),
            )
            if key is not None:
                hit = self.result_cache.lookup(key)
                if hit is not None:
                    hit.tenant = opts.tenant
                    hit.wall_seconds = time.perf_counter() - start
                    return hit
        result = self._executor(table_name).execute(predicate, opts)
        if (
            key is not None
            and not result.degraded
            and self._epoch(table_name) == epoch
        ):
            # The double-check refuses stale fills: any mutation that
            # overlapped this execution moved the epoch (mutators bump
            # on entry *and* exit), so a result computed over a
            # half-mutated universe can never land under a live key.
            self.result_cache.store(key, result)
        result.tenant = opts.tenant
        result.wall_seconds = time.perf_counter() - start
        return result

    def query_many(  # ebi: worker-entry
        self,
        table_name: str,
        predicates: Sequence[Predicate],
        options: Optional[QueryOptions] = None,
    ) -> List[QueryResult]:
        """Run a batch of selections against one row snapshot.

        The whole batch is evaluated under one pinned row watermark
        per partition (inside
        :meth:`~repro.shard.executor.ParallelExecutor.execute_many`),
        so every answer sees the same rows.  Per-call configuration
        travels in ``options`` exactly as for :meth:`query`; the batch
        never consults the result cache.  A timeout covers the whole
        batch: once it passes, the call raises
        :class:`~repro.errors.QueryTimeoutError` and returns no part
        of the batch.
        """
        opts = options if options is not None else DEFAULT_OPTIONS
        return list(
            self._executor(table_name).execute_many(predicates, opts)
        )

    # ------------------------------------------------------------------
    # ingest (WAL-logged when a durable home is attached)
    # ------------------------------------------------------------------
    def append(self, table_name: str, row: Any) -> int:
        """Append one row; the ack implies WAL durability.

        See :meth:`append_rows` for the logging protocol.
        """
        return self.append_rows(table_name, [row])[0]

    def append_rows(
        self, table_name: str, rows: Sequence[Any]
    ) -> List[int]:
        """Append a batch of rows, WAL-first.

        The record (normalised row dicts plus the base row count) is
        fsynced to the WAL *before* the batch is applied, so once this
        returns the rows survive any crash — :meth:`recover` replays
        them.  Replay is idempotent: the base row count lets it skip
        batches the manifest already contains.
        """
        table = self.table(table_name)
        normalised = [self._normalise_row(table, row) for row in rows]
        if not normalised:
            return []
        with self._ingest_lock:
            self._bump_epoch(table_name)
            crash_point("database.ingest.pre-log")
            if self._wal is not None:
                # WAL-before-apply is the durability invariant: the
                # fsync *must* sit inside the ingest lock so the log
                # order matches the apply order.  The no-I/O-under-
                # lock rule is suppressed here deliberately.
                self._wal.append(  # ebilint: disable=EBI303
                    WalRecord(
                        "append",
                        {
                            "table": table_name,
                            "base": len(table),
                            "rows": normalised,
                        },
                    )
                )
            crash_point("database.ingest.logged")
            row_ids = table.append_rows(normalised)  # ebilint: disable=EBI303
            crash_point("database.ingest.applied")
            self._bump_epoch(table_name)
        return row_ids

    def update(
        self, table_name: str, row_id: int, column: str, value: Any
    ) -> None:
        """Overwrite one attribute, WAL-first (idempotent on replay)."""
        table = self.table(table_name)
        with self._ingest_lock:
            self._bump_epoch(table_name)
            crash_point("database.ingest.pre-log")
            if self._wal is not None:
                # Log-before-apply, fsync under the ingest lock — see
                # append_rows for why the I/O rule is suppressed.
                self._wal.append(  # ebilint: disable=EBI303
                    WalRecord(
                        "update",
                        {
                            "table": table_name,
                            "row": row_id,
                            "column": column,
                            "value": value,
                        },
                    )
                )
            crash_point("database.ingest.logged")
            table.update(row_id, column, value)  # ebilint: disable=EBI303
            crash_point("database.ingest.applied")
            self._bump_epoch(table_name)

    def delete(self, table_name: str, row_id: int) -> None:
        """Soft-delete one row, WAL-first (idempotent on replay)."""
        table = self.table(table_name)
        with self._ingest_lock:
            self._bump_epoch(table_name)
            crash_point("database.ingest.pre-log")
            if self._wal is not None:
                # Log-before-apply, fsync under the ingest lock — see
                # append_rows for why the I/O rule is suppressed.
                self._wal.append(  # ebilint: disable=EBI303
                    WalRecord(
                        "delete", {"table": table_name, "row": row_id}
                    )
                )
            crash_point("database.ingest.logged")
            table.delete(row_id)  # ebilint: disable=EBI303
            crash_point("database.ingest.applied")
            self._bump_epoch(table_name)

    def compact(self) -> int:
        """Fold every encoded index's delta tier into packed planes.

        Returns the number of indexes that actually compacted.  Also
        runs implicitly when a delta crosses its size threshold.
        """
        # Epochs bump around the whole pass (entry and exit, like
        # every mutation path) so a concurrent cached query can never
        # fill against a half-compacted index set.
        tables = sorted(
            {index.table.name for index in self.catalog.all_indexes()}
        )
        for name in tables:
            self._bump_epoch(name)
        compacted = 0
        for _, index in self._encoded_indexes():
            if index.compact():
                compacted += 1
        for name in tables:
            self._bump_epoch(name)
        return compacted

    def reorder(
        self,
        table_name: str,
        columns: Optional[Sequence[str]] = None,
        *,
        ordering: str = "lex",
    ) -> List[List[int]]:
        """Physically reorder a table's rows for run compression.

        Applies a :mod:`repro.shard.reorder` pass (``"lex"``,
        ``"gray"`` or ``"hist"``; ``"unordered"`` is the identity)
        per partition — partition boundaries are preserved — and
        rebuilds every attached index under the table's write lock.
        Returns the per-partition permutations, which are also
        recorded for the manifest so a saved
        database remembers how its rows map back to arrival order.

        When a durable home is attached, the reorder commits a new
        manifest generation immediately: a physical rewrite cannot be
        replayed from the WAL (its row ids predate the permutation),
        so durability comes from the save itself.
        """
        table = self.table(table_name)
        with self._ingest_lock:
            self._bump_epoch(table_name)
            permutations = reorder_partitioned(table, columns, ordering)
            self._reorders[table_name] = {
                "ordering": ordering,
                "columns": (
                    list(columns)
                    if columns is not None
                    else list(table.column_names)
                ),
                "permutations": permutations,
            }
            if self._directory is not None:
                # Commit the new generation before releasing the
                # ingest lock: a WAL-logged append interleaved between
                # the physical rewrite and the manifest save could not
                # be replayed (its row ids would target the old
                # order), so the save must be atomic with the reorder.
                self.save(self._directory)  # ebilint: disable=EBI303
            self._bump_epoch(table_name)
        return permutations

    def reorder_metadata(
        self, table_name: str
    ) -> Optional[Dict[str, Any]]:
        """The last applied reorder for a table (or ``None``):
        ordering, sort columns, per-partition permutations."""
        info = self._reorders.get(table_name)
        return None if info is None else dict(info)

    @staticmethod
    def _normalise_row(table: PartitionedTable, row: Any) -> Dict[str, Any]:
        if isinstance(row, Mapping):
            return dict(row)
        values = list(row)
        names = table.column_names
        if len(values) != len(names):
            raise InvalidArgumentError(
                f"row has {len(values)} values, expected {len(names)}"
            )
        return dict(zip(names, values))

    def explain(self, table_name: str, predicate: Predicate) -> str:
        """EXPLAIN without reading any vectors: one plan per
        partition, with its row span."""
        return self._executor(table_name).explain(predicate)

    def _executor(self, table_name: str) -> ParallelExecutor:
        with self._lock:
            executor = self._executors.get(table_name)
        if executor is not None:
            return executor
        # Build outside the lock (the residency manager may be built
        # on first use); first-one-in wins on concurrent misses.
        built = ParallelExecutor(
            self.table(table_name),
            registry=self.registry,
            residency=self._residency_for(table_name),
        )
        with self._lock:
            return self._executors.setdefault(table_name, built)

    # ------------------------------------------------------------------
    # out-of-core residency (docs/out_of_core.md)
    # ------------------------------------------------------------------
    def _residency_for(
        self, table_name: str
    ) -> Optional[ResidencyManager]:
        """The table's residency manager (built on first use).

        ``None`` unless a memory budget is configured.  Plane files live under the durable home's
        ``residency/`` subdirectory when one is attached, else in a
        throwaway temp directory.
        """
        if self.memory_budget_bytes is None:
            return None
        with self._lock:
            manager = self._residency.get(table_name)
        if manager is not None:
            return manager
        if self._directory is not None:
            directory = os.path.join(
                self._directory, "residency", table_name
            )
        else:
            directory = tempfile.mkdtemp(
                prefix=f"ebi-residency-{table_name}-"
            )
        built = ResidencyManager(
            directory, memory_budget_bytes=self.memory_budget_bytes
        )
        with self._lock:
            manager = self._residency.setdefault(table_name, built)
        if manager is built:
            for index in self.catalog.all_indexes():
                if index.table.name == table_name:
                    for i, child in enumerate(index.children):
                        manager.register(i, child)
        return manager

    def residency_report(
        self, table_name: str
    ) -> Optional[Dict[str, int]]:
        """Residency counters for one table (see
        :meth:`repro.shard.residency.ResidencyManager.report`), or
        ``None`` when the table has no manager."""
        manager = self._residency_for(table_name)
        return None if manager is None else manager.report()

    # ------------------------------------------------------------------
    # epochs and lifecycle
    # ------------------------------------------------------------------
    def _epoch(self, table_name: str) -> int:
        with self._lock:
            return self._epochs.get(table_name, 0)

    def _bump_epoch(self, table_name: str) -> None:
        with self._lock:
            self._epochs[table_name] = (
                self._epochs.get(table_name, 0) + 1
            )

    def epoch(self, table_name: str) -> int:
        """The table's current data epoch (monotonic; moves on every
        mutation path).  Part of the result-cache key; exposed so the
        serving tier and tests can assert on invalidation."""
        return self._epoch(table_name)

    def close(self) -> None:
        """Release cached executors, residency plane files, the result
        cache and the WAL.  Idempotent — a second ``close()`` is a no-op, including
        via ``with``-statement exit after an explicit close.  The
        database object itself remains queryable: executors and
        residency managers are rebuilt lazily if used again."""
        with self._lock:
            self._executors.clear()
            managers = list(self._residency.values())
            self._residency.clear()
        for manager in managers:
            manager.close()
        # ResultCache mutates under its own internal lock; the
        # shared-readonly tag covers the binding, not the contents.
        self.result_cache.clear()  # ebilint: disable=EBI301
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def fsck(self, *, repair: bool = False) -> Dict[str, FsckReport]:
        """Audit every encoded-bitmap partition child.

        Reports are keyed ``<table>.<column>.p<partition>``.

        Each audited index's ``degraded`` flag is updated from the
        verdict — a failing index is quarantined from planning, a
        clean re-audit lifts an earlier quarantine.  With
        ``repair=True``, damaged vectors are rebuilt from the base
        column and the index re-audited.
        """
        reports: Dict[str, FsckReport] = {}
        for label, index in self._encoded_indexes():
            report = verify_index(index, mark=True)
            if repair and not report.ok:
                repair_index(index)
                report = verify_index(index, mark=True)
            reports[label] = report
        return reports

    def _encoded_indexes(self) -> List[Any]:
        return [
            (f"{index.table.name}.{index.column_name}.p{i}", child)
            for index in self.catalog.all_indexes()
            for i, child in enumerate(index.children)
            if isinstance(child, EncodedBitmapIndex)
        ]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Write the database to a directory, crash-consistently.

        ``manifest.json`` carries the table data, partition bounds
        and index specs; every encoded or compressed partition child
        adds one checksummed ``.ebi`` payload that :meth:`load`
        verifies and :meth:`fsck` can audit offline.

        Durability protocol (see docs/robustness.md): payloads first,
        then the manifest through a fsynced temp file and an atomic
        rename — the rename is the commit point.  Only after the
        commit is the WAL reset (to a single checkpoint carrying the
        new generation) and stale payloads deleted, so a crash at any
        step leaves either the old generation or the new one, never a
        mix.
        """
        os.makedirs(directory, exist_ok=True)
        generation = self._generation + 1
        manifest: Dict[str, Any] = {
            "version": MANIFEST_VERSION,
            "generation": generation,
            "tables": [],
            "indexes": list(self._index_specs),
        }
        if self.memory_budget_bytes is not None:
            manifest["memory_budget_bytes"] = self.memory_budget_bytes
        for registered in self.catalog.tables():
            name = registered.name
            table = self.table(name)
            entry: Dict[str, Any] = {
                "name": name,
                "columns": {
                    column: list(table.column(column).values())
                    for column in table.column_names
                },
                "void_rows": sorted(table.void_rows()),
                "bounds": [p.offset for p in table.partitions]
                + [len(table)],
            }
            if name in self._reorders:
                entry["reorder"] = self._reorders[name]
            manifest["tables"].append(entry)
        expected = {MANIFEST_NAME, WAL_NAME}
        for index in self.catalog.all_indexes():
            for i, child in enumerate(index.children):
                if isinstance(child, _PAYLOAD_KINDS):
                    payload = self._payload_name(
                        index.table.name, index.column_name, i
                    )
                    expected.add(payload)
                    serialization.save(
                        child, os.path.join(directory, payload)
                    )
        crash_point("database.save.payloads")
        path = os.path.join(directory, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        crash_point("database.save.manifest-temp")
        crash_point("database.save.pre-rename")
        os.replace(tmp, path)
        crash_point("database.save.post-rename")
        # The new generation is durable; everything after this point
        # is cleanup a recovery can redo.
        self._generation = generation
        self._directory = directory
        if self._wal is not None and self._wal.path != os.path.join(
            directory, WAL_NAME
        ):
            self._wal.close()
            self._wal = None
        if self._wal is None:
            self._wal = FileWriteAheadLog(
                os.path.join(directory, WAL_NAME)
            )
        self._wal.reset(generation)
        crash_point("database.save.cleanup")
        for filename in sorted(os.listdir(directory)):
            if filename in expected:
                continue
            if filename.endswith(".ebi") or filename.endswith(".tmp"):
                os.remove(os.path.join(directory, filename))

    @staticmethod
    def _payload_name(
        table: str, column: str, partition: Optional[int]
    ) -> str:
        """``<table>.<column>.p<partition>.ebi``; ``partition=None``
        names the single payload of a manifest entry without bounds."""
        if partition is None:
            return f"{table}.{column}.ebi"
        return f"{table}.{column}.p{partition}.ebi"

    @classmethod
    def load(
        cls,
        directory: str,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Database":
        """Rebuild a database saved with :meth:`save`.

        Partition bounds are restored exactly as saved (appends may
        have grown the last partition past what
        :func:`~repro.shard.partition.partition_bounds` would derive
        today).  A corrupt or missing ``.ebi`` payload never fails
        the load: that index is rebuilt from the base data and
        marked ``degraded`` until the next :meth:`fsck` audit.
        """
        with open(
            os.path.join(directory, MANIFEST_NAME), encoding="utf-8"
        ) as handle:
            manifest = json.load(handle)
        if manifest.get("version") != MANIFEST_VERSION:
            raise CorruptIndexError(
                f"unsupported manifest version "
                f"{manifest.get('version')!r}"
            )
        budget = manifest.get("memory_budget_bytes")
        db = cls(
            registry=registry,
            memory_budget_bytes=(
                int(budget) if budget is not None else None
            ),
        )
        db._generation = int(manifest.get("generation", 0))
        unbounded: Set[str] = set()
        for entry in manifest["tables"]:
            db._load_table(entry)
            if "bounds" not in entry:
                unbounded.add(entry["name"])
        for spec in manifest.get("indexes", []):
            db._load_index(
                directory, spec, unbounded=spec["table"] in unbounded
            )
        return db

    @classmethod
    def recover(
        cls,
        directory: str,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Database":
        """Load the last durable generation and replay the WAL.

        The recovery contract (exercised by the crash matrix in
        ``tests/test_crash_matrix.py``): every row whose ingest call
        returned before the crash is present afterwards, and replay
        is idempotent — records the manifest already covers are
        skipped by their base row count, re-applied updates write the
        same value, and re-applied deletes are no-ops.  A damaged WAL
        tail is truncated, never replayed.

        The returned database stays attached to ``directory`` (its
        WAL keeps logging), so recovery composes: crash, recover,
        crash again, recover again.
        """
        db = cls.load(directory, registry=registry)
        wal = FileWriteAheadLog(os.path.join(directory, WAL_NAME))
        for record in wal.replay():
            db._replay(record)
        db._directory = directory
        db._wal = wal
        return db

    def _replay(self, record: "WalRecord") -> None:
        if record.kind == "checkpoint":
            return
        data = record.data
        table_name = data["table"]
        if table_name not in {t.name for t in self.catalog.tables()}:
            # The WAL may predate a manifest that dropped the table;
            # nothing durable references these rows any more.
            return
        table = self.table(table_name)
        if record.kind == "append":
            base = int(data["base"])
            rows = data["rows"]
            if len(table) >= base + len(rows):
                # The manifest already contains this batch (crash fell
                # between the manifest rename and the WAL reset).
                return
            # Batches are applied atomically, so the only other
            # possibility is that none of the batch landed.
            table.append_rows(rows[max(0, len(table) - base):])
        elif record.kind == "update":
            row_id = int(data["row"])
            if row_id < len(table) and not table.is_void(row_id):
                table.update(row_id, data["column"], data["value"])
        elif record.kind == "delete":
            row_id = int(data["row"])
            if row_id < len(table) and not table.is_void(row_id):
                table.delete(row_id)

    def _load_table(self, entry: Dict[str, Any]) -> None:
        name = entry["name"]
        columns: Dict[str, List[Any]] = entry["columns"]
        if "reorder" in entry:
            # The saved columns are already permuted; the metadata is
            # provenance (how row ids map back to arrival order).
            self._reorders[name] = entry["reorder"]
        # An entry without bounds predates one-partition tables: it
        # held a single table, which loads as one partition.
        nrows = len(next(iter(columns.values())))
        table = PartitionedTable.from_bounds(
            name, columns, entry.get("bounds", [0, nrows])
        )
        for row_id in entry.get("void_rows", []):
            table.delete(row_id)
        self.catalog.register_table(cast(Table, table))

    def _load_index(
        self, directory: str, spec: Dict[str, str], *, unbounded: bool
    ) -> None:
        """Rebuild one index spec; ``unbounded`` tables read the one
        payload a manifest entry without bounds was saved with."""
        table_name = spec["table"]
        column_name = spec["column"]
        kind = spec["kind"]
        if kind not in ("encoded", "compressed"):
            # Kinds without a payload format; rebuild from the base
            # data.
            self.create_index(table_name, column_name, kind=kind)
            return
        expected_type = cast(type, INDEX_KINDS[kind])
        counter = iter(range(len(self.table(table_name).partitions)))

        def factory(chunk: Table, column: str) -> Index:
            i = next(counter)
            path = os.path.join(
                directory,
                self._payload_name(
                    table_name, column, None if unbounded else i
                ),
            )
            child = self._load_payload(path, chunk, column, expected_type)
            if child is None:
                child = expected_type(chunk, column)
                child.degraded = True
            return child

        self.catalog.register_index(
            PartitionedIndex(
                self.table(table_name), column_name, factory=factory
            ),
            attach=False,
        )
        self._index_specs.append(dict(spec))

    @staticmethod
    def _load_payload(
        path: str,
        table: Table,
        column_name: str,
        expected_type: type = EncodedBitmapIndex,
    ) -> Optional[Index]:
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
            index = serialization.loads(payload, table)
        except (OSError, IndexBuildError):
            return None
        if index.column_name != column_name:
            return None
        if type(index) is not expected_type:
            return None
        return index

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Database(tables={self.tables()}, "
            f"indexes={len(self._index_specs)})"
        )
