"""Encoded bitmap index — the paper's contribution (Definition 2.1).

``k = ceil(log2 m)`` bitmap vectors, a one-to-one mapping table, and
retrieval Boolean functions.  A selection ORs the minterms of the
selected codes, logically reduces the expression (unused codes are
don't-cares), and reads only the surviving vectors — the measured
``c_e`` of Section 3.

Void/NULL handling follows Section 2.2's recommended scheme: both are
encoded *together with* the domain values, void at code 0
(Theorem 2.1), so no separate existence vector is ever consulted.
The alternative scheme (explicit ``B_NotExist``/``B_NULL`` vectors)
is selectable for the ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.boolean.evaluator import AccessCounter
from repro.boolean.reduction import (
    ReducedFunction,
    minterm_dnf,
    reduce_values_cached,
)

# The index never calls the uncached reducer, but perfbench's layer
# tracer (perfbench/tracer.py) wraps ``reduce_values`` by name in this
# module's namespace, so the name must stay importable from here.
from repro.boolean.reduction import reduce_values  # noqa: F401
from repro.encoding.mapping import NULL, VOID, MappingTable
from repro.errors import (
    IndexBuildError,
    InvalidArgumentError,
    UnsupportedPredicateError,
)
from repro.faults.crash import crash_point
from repro.index.base import (
    Index,
    LookupCost,
    range_values,
)
from repro.kernels import (
    CompiledKernel,
    CompressedPlaneSet,
    MappedPlaneSet,
    PlaneSet,
    PlaneSnapshot,
    compile_function,
    write_plane_file,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.query.snapshot import snapshot_rows
from repro.table.table import Table


class EncodedBitmapIndex(Index):
    """The encoded bitmap index ``B^A = ({B_i}, M^A, {f_a})``.

    Parameters
    ----------
    table, column_name:
        The indexed column (the only positional parameters; everything
        below is keyword-only).
    encoding:
        Optional pre-built :class:`MappingTable` (e.g. from
        :func:`~repro.encoding.heuristics.encode_for_predicates` or a
        hierarchy/total-order/range encoding).  When omitted, a
        sequential encoding of the column's current domain is used.
    registry:
        Optional metrics registry for this index's lookups; defaults
        to the calling thread's current registry per lookup.
    void_mode:
        ``"encode"`` (default) reserves code 0 for void tuples per
        Theorem 2.1; ``"vector"`` keeps an explicit existence vector
        instead (the paper's "simple way", kept for ablation).
    null_mode:
        ``"encode"`` (default) gives NULL its own code; ``"vector"``
        keeps an explicit ``B_NULL``.
    exact_reduction:
        Use exact minimal covers during logical reduction (disable for
        very wide indexes where greedy covers are preferred).
    plane_format:
        ``"packed"`` (default) snapshots the planes into a dense
        :class:`~repro.kernels.planes.PlaneSet` matrix;
        ``"compressed"`` snapshots them into a word-aligned-run
        :class:`~repro.kernels.runs.CompressedPlaneSet` instead, so
        kernels evaluate run-at-a-time (``docs/compression.md``).
        Results and ``c_e`` are bit-identical either way; the
        compressed format wins on memory — dramatically so after a
        :mod:`repro.shard.reorder` pass — at some per-query cost on
        incompressible data.
    """

    kind = "encoded-bitmap"

    def __init__(
        self,
        table: Table,
        column_name: str,
        *,
        encoding: Optional[MappingTable] = None,
        registry: Optional[MetricsRegistry] = None,
        void_mode: str = "encode",
        null_mode: str = "encode",
        exact_reduction: bool = True,
        plane_format: str = "packed",
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        if void_mode not in ("encode", "vector"):
            raise InvalidArgumentError(f"bad void_mode {void_mode!r}")
        if null_mode not in ("encode", "vector"):
            raise InvalidArgumentError(f"bad null_mode {null_mode!r}")
        self.void_mode = void_mode
        self.null_mode = null_mode
        self.exact_reduction = exact_reduction
        self._mapping = (  # ebi: versioned
            encoding if encoding is not None else self._default_mapping()
        )
        self._validate_mapping()
        self._vectors: List[BitVector] = [  # ebi: versioned
            BitVector(len(table)) for _ in range(self._mapping.width)
        ]
        self._exists_vector: Optional[BitVector] = (
            BitVector(len(table)) if void_mode == "vector" else None
        )
        self._null_vector: Optional[BitVector] = (
            BitVector(len(table)) if null_mode == "vector" else None
        )
        self._init_caches(plane_format=plane_format)
        self._build()

    def _init_caches(self, plane_format: str = "packed") -> None:
        """Set up the lookup-side cache state.

        Factored out of ``__init__`` because deserialisation
        (:func:`repro.index.serialization.loads`) restores an index via
        ``__new__`` and must initialise the same state.
        """
        if plane_format not in ("packed", "compressed"):
            raise InvalidArgumentError(
                f"bad plane_format {plane_format!r}"
            )
        self.plane_format = plane_format
        self._reduction_cache: Dict[
            Tuple[Tuple[int, ...], int], ReducedFunction
        ] = {}
        # Compiled-kernel cache: keyed by the reduced function, cleared
        # whenever the mapping changes (codes, and therefore every
        # future key, change with it).  Delegates to the process-wide
        # compile cache on miss, so partitions sharing a mapping also
        # share kernels.
        self._kernel_cache: Dict[ReducedFunction, CompiledKernel] = {}
        # Plane snapshot consumed by kernels (packed or compressed per
        # ``plane_format``), rebuilt when the data version moves (any
        # write to the indexed column).
        self._planes: Optional[PlaneSnapshot] = None
        self._planes_version = -1
        self._data_version = 0
        self.plane_rebuilds = 0
        # Delta tier (arrival-order, per Section 4's dynamic scheme):
        # rows appended since the planes were last built live here as
        # row -> code, matched per row at query time and folded into
        # the packed planes by compact().  The bitmap vectors stay
        # authoritative throughout (serialization/fsck read them, not
        # the delta), so any plane rebuild doubles as a compaction.
        # ``_delta_seq`` is the delta half of the epoch: it moves under
        # the lock on every delta mutation, where ``_data_version``
        # only moves on mapping/plane identity changes — appends no
        # longer thrash the kernel caches.
        self._delta: Dict[int, int] = {}  # ebi: versioned
        self._delta_seq = 0
        self._base_rows = 0
        self.compactions = 0
        # Out-of-core residency accounting (docs/out_of_core.md):
        # spills swap the dense snapshot for a memory-mapped one,
        # promotions copy it back.  Plain attributes, like
        # ``plane_rebuilds`` — constant per-lookup instrumentation.
        self.plane_spills = 0
        self.plane_promotions = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _default_mapping(self) -> MappingTable:
        column = self.table.column(self.column_name)
        values = sorted(column.distinct_values(), key=str)
        table = MappingTable.from_values(
            values,
            reserve_void_zero=(self.void_mode == "encode"),
            include_null=(
                self.null_mode == "encode" and column.has_nulls()
            ),
        )
        return table

    def _validate_mapping(self) -> None:
        column = self.table.column(self.column_name)
        missing = column.distinct_values() - set(self._mapping.values())
        if missing:
            raise IndexBuildError(
                f"mapping does not cover values "
                f"{sorted(map(str, missing))[:5]}"
            )
        if self.void_mode == "encode" and VOID not in self._mapping:
            if self._mapping.has_code(0):
                raise IndexBuildError(
                    "void_mode='encode' requires code 0 reserved for VOID"
                )
            self._mapping.assign(VOID, 0)
        if (
            self.null_mode == "encode"
            and column.has_nulls()
            and NULL not in self._mapping
        ):
            self._mapping.assign(NULL, self._mapping.next_free_code())

    def _build(self) -> None:
        """Bulk-build the bit planes from the current table contents.

        One Python pass computes the per-row code array; the planes are
        then sliced out of it with vectorised masks (one
        :meth:`BitVector.from_mask` per plane) instead of ``k``
        single-bit writes per row — the difference between seconds and
        minutes on the million-row bench tables.  The code array uses
        the narrowest unsigned dtype that holds ``2^k - 1``, so it and
        each plane's mask temporary take one byte per row for
        ``k <= 8`` instead of eight.
        """
        n = self._row_count()
        if n == 0:
            return
        column = self.table.column(self.column_name)
        void = self.table.void_rows()
        void_code = self._void_code()
        dtype = np.min_scalar_type((1 << len(self._vectors)) - 1)
        codes = np.empty(n, dtype=dtype)
        null_rows: List[int] = []
        for row_id in range(n):
            if row_id in void:
                codes[row_id] = void_code
            else:
                value = column[row_id]
                codes[row_id] = self._code_for(value)
                if value is None and self._null_vector is not None:
                    null_rows.append(row_id)
        for i in range(len(self._vectors)):
            mask = codes & dtype.type(1 << i)
            # One bulk allocation per *plane* (k total), not per row —
            # this is the hoisted form EBI102 pushes loops towards.
            self._vectors[i] = BitVector.from_mask(mask != 0)  # ebilint: disable=EBI102
        if self._exists_vector is not None:
            exists = np.ones(n, dtype=bool)
            exists[list(void)] = False
            self._exists_vector = BitVector.from_mask(exists)
        if self._null_vector is not None:
            self._null_vector = BitVector.from_indices(null_rows, n)
        self._data_version += 1

    def _void_code(self) -> int:
        if self.void_mode == "encode":
            return self._mapping.encode(VOID)
        return 0

    def _code_for(self, value: Any) -> int:
        if value is None:
            if self.null_mode == "encode":
                return self._mapping.encode(NULL)
            return 0
        return self._mapping.encode(value)

    def _write_row(self, row_id: int, value: Any) -> None:
        self._write_code(row_id, self._code_for(value))
        if value is None and self._null_vector is not None:
            self._null_vector[row_id] = True

    def _write_code(self, row_id: int, code: int) -> None:
        with self._lock:
            self._write_code_raw(row_id, code)
            self._data_version += 1

    def _write_code_raw(self, row_id: int, code: int) -> None:  # ebilint: disable=EBI302
        """Set one row's bits across the planes; caller holds the lock
        and owns the matching epoch bump (``_data_version`` for base
        rows, ``_delta_seq`` for delta rows) — hence the protocol-rule
        suppression on this deliberately dirty helper."""
        for i, vector in enumerate(self._vectors):
            vector[row_id] = bool((code >> i) & 1)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def mapping(self) -> MappingTable:
        return self._mapping

    @property
    def width(self) -> int:
        """``k`` — the number of bitmap vectors."""
        return self._mapping.width

    @property
    def vector_count(self) -> int:
        extra = (1 if self._exists_vector is not None else 0) + (
            1 if self._null_vector is not None else 0
        )
        return self.width + extra

    def vector(self, i: int) -> BitVector:
        """Direct (uncounted) access to bitmap vector ``B_i``."""
        return self._vectors[i]

    def retrieval_function(self, value: Any) -> ReducedFunction:
        """The k-variable minterm ``f_value`` of Definition 2.1."""
        code = self._code_for(value)
        return minterm_dnf([code], self.width)

    #: Above this many selected codes, contiguous selections use the
    #: O(k) binary interval decomposition instead of Quine-McCluskey.
    INTERVAL_FAST_PATH_THRESHOLD = 192

    def reduced_function(self, values: Iterable[Any]) -> ReducedFunction:
        """Logically reduced retrieval expression for an IN-list."""
        codes = tuple(sorted(self._code_for(v) for v in values))
        key = (codes, self.width)
        with self._lock:
            cached = self._reduction_cache.get(key)
            self.last_cache_hit = cached is not None
        if cached is None:
            # Reduce outside the lock: Quine-McCluskey is the slow
            # path, and a duplicate reduction under contention is
            # benign (pure function of the key).  Registry counters
            # stay outside any critical section (EBI303).
            get_registry().counter("index.reduction_cache_misses").inc()
            cached = self._reduce_codes(codes)
            with self._lock:
                self._reduction_cache[key] = cached
        else:
            get_registry().counter("index.reduction_cache_hits").inc()
        return cached

    def _reduce_codes(self, codes: Tuple[int, ...]) -> ReducedFunction:
        if (
            len(codes) >= self.INTERVAL_FAST_PATH_THRESHOLD
            and codes[-1] - codes[0] == len(codes) - 1
        ):
            # Contiguous code interval: the binary decomposition gives
            # a near-minimal cover in O(k) where QM would be slow (and
            # cheap enough that the global cache is not worth a key).
            from repro.boolean.intervals import reduce_interval

            return reduce_interval(codes[0], codes[-1], self.width)
        # Through the process-wide LRU: Quine-McCluskey runs once per
        # distinct (codes, width, don't-cares) shape, even when many
        # partition-local indexes share one mapping.
        return reduce_values_cached(
            codes,
            self.width,
            dont_cares=self._mapping.unused_codes(),
            exact=self.exact_reduction,
        )

    def average_density(self) -> float:
        """Mean density over the k vectors — ~1/2 per Section 3.1."""
        if not self._vectors:
            return 0.0
        return sum(v.density() for v in self._vectors) / len(self._vectors)

    def nbytes(self) -> int:
        per_vector = BitVector(self._row_count()).nbytes()
        return per_vector * self.vector_count

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def predicate_values(self, predicate: Predicate) -> List[Any]:
        """Domain values a leaf predicate selects (the paper's delta).

        Range predicates are rewritten into the discrete IN-list the
        paper prescribes; unknown values (never inserted, so absent
        from the mapping) are dropped.
        """
        if isinstance(predicate, Equals):
            values: List[Any] = [predicate.value]
        elif isinstance(predicate, InList):
            values = list(predicate.values)
        elif isinstance(predicate, Range):
            values = range_values(self._domain_values(), predicate)
        else:
            raise UnsupportedPredicateError(
                f"unsupported predicate {predicate}"
            )
        return [value for value in values if value in self._mapping]

    def explain_predicate(
        self, predicate: Predicate
    ) -> Optional[ReducedFunction]:
        """The reduced retrieval expression a lookup would evaluate.

        Used by :meth:`repro.query.planner.Plan.explain` — computing
        (or fetching from the reduction cache) the expression reads no
        bitmap vectors, so EXPLAIN never pays the query's I/O.
        Returns ``None`` for predicates served without a reduction
        (e.g. ``IsNull`` under an explicit NULL vector).
        """
        if isinstance(predicate, IsNull):
            if self._null_vector is not None or NULL not in self._mapping:
                return None
            return self.reduced_function([None])
        known = self.predicate_values(predicate)
        if not known:
            return ReducedFunction(terms=(), width=self.width)
        return self.reduced_function(known)

    def _lookup(self, predicate: Predicate, cost: LookupCost) -> BitVector:
        if isinstance(predicate, IsNull):
            return self._lookup_null(cost)
        # Optimistic read (seqlock style): the reduced function is
        # derived from the mapping at ``version``; _evaluate refuses
        # to pair it with a plane snapshot from any *other* version
        # (a concurrent remap can change the plane width), so on a
        # conflict we rebuild against the new mapping and try again.
        # Writers always terminate, so the retry loop does too.
        while True:
            with self._lock:
                version = self._data_version
            known = self.predicate_values(predicate)
            if not known:
                break
            function = self.reduced_function(known)
            result = self._evaluate(function, cost, version=version)
            if result is not None:
                return result
        return BitVector(self._snapshot_rows())

    def _lookup_null(self, cost: LookupCost) -> BitVector:
        if self._null_vector is not None:
            cost.vectors_accessed += 1
            result = self._null_vector.copy()
            limit = self._snapshot_rows()
            if len(result) != limit:
                result.resize(limit)
            return result
        if NULL not in self._mapping:
            return BitVector(self._snapshot_rows())
        while True:
            with self._lock:
                version = self._data_version
            function = self.reduced_function([None])
            result = self._evaluate(function, cost, version=version)
            if result is not None:
                return result

    # ------------------------------------------------------------------
    # delta tier (incremental maintenance + snapshot epochs)
    # ------------------------------------------------------------------
    #: Delta entries tolerated before an append folds them into the
    #: packed planes inline (amortised: one rebuild per threshold
    #: appends instead of one cache invalidation per append).
    DELTA_COMPACT_THRESHOLD = 4096

    def epoch(self) -> Tuple[int, int]:
        """The snapshot epoch ``(_data_version, _delta_seq)``.

        The first component moves on mapping/plane identity changes
        (remap, expansion, compaction), the second on every delta
        mutation; a batch that records the pair observes any later
        write as an epoch change.
        """
        with self._lock:
            return (self._data_version, self._delta_seq)

    def delta_rows(self) -> int:
        """Rows currently in the delta tier (0 after :meth:`compact`)."""
        with self._lock:
            return len(self._delta)

    def compact(self) -> bool:
        """Fold the delta into the packed planes (atomic hot-swap).

        Rebuilds the :class:`~repro.kernels.planes.PlaneSet` over all
        rows and swaps it in under the lock with a ``_data_version``
        bump, so an in-flight optimistic lookup that paired the old
        planes with the old version simply retries — it never sees a
        half-swapped state.  Returns ``True`` when a fold happened.
        Idempotent and cheap when there is nothing to fold.
        """
        with self._lock:
            if (
                not self._delta
                and self._planes is not None
                and self._planes_version == self._data_version
            ):
                return False
            crash_point("index.compact.pre-swap")
            planes = self._build_planes()
            self._planes = planes
            self._data_version += 1
            self._planes_version = self._data_version
            self._base_rows = planes.nbits
            self._delta.clear()
            self._delta_seq += 1
            self.compactions += 1
            crash_point("index.compact.post-swap")
        return True

    def _delta_matches(self, function: ReducedFunction, limit: int) -> List[int]:
        """Delta rows below ``limit`` selected by ``function``.

        Caller holds the lock.  Per-row evaluation against the stored
        code touches no bitmap vector, so ``c_e`` stays exactly the
        reduced function's vector count — bit-identical to evaluating
        the same function over fully compacted planes.
        """
        return [
            row_id
            for row_id, code in self._delta.items()
            if row_id < limit and function.evaluate_value(code)
        ]

    def _vector_rows(self) -> int:
        """Rows this index has ingested — the vectors' own length.

        Differs from ``len(self.table)`` only inside the window where
        a concurrent append has extended the table's columns but this
        index's ``on_append`` has not run yet; the vectors are the
        universe every lock-guarded read here must use.
        """
        return len(self._vectors[0]) if self._vectors else 0

    def _snapshot_rows(self) -> int:
        """Result-universe length: the thread's pin, else all rows."""
        rows = self._vector_rows()
        pinned = snapshot_rows(self.table)
        if pinned is None:
            return rows
        return min(pinned, rows)

    def clear_caches(self) -> None:
        """Drop this index's memoised lookup state.

        Clears the reduction cache, the compiled-kernel cache and the
        plane snapshot; the bitmap vectors themselves are untouched and
        the next lookup rebuilds lazily.  Useful under memory pressure
        and for cold-cache benchmarking (process-wide caches are
        cleared separately via
        :func:`repro.boolean.reduction.clear_reduction_cache` /
        :func:`repro.kernels.clear_compile_cache`).
        """
        with self._lock:
            self._reduction_cache.clear()
            self._kernel_cache.clear()
            self._planes = None
            self._planes_version = -1

    #: Entries kept in the per-index compiled-kernel cache before it is
    #: reset wholesale (simple bound; the process-wide LRU behind it
    #: keeps recompiles cheap).
    KERNEL_CACHE_SIZE = 256

    def _kernel_for(self, function: ReducedFunction) -> CompiledKernel:
        """Compiled kernel for ``function`` via the two cache layers.

        No registry traffic of its own (the overhead contract in
        ``tests/test_obs.py`` bounds per-lookup instrumentation): the
        process-wide compile cache consulted on a local miss publishes
        ``kernels.compile_cache.hits``/``.misses``.
        """
        with self._lock:
            kernel = self._kernel_cache.get(function)
        if kernel is None:
            # Compile outside the lock (the process-wide cache behind
            # it publishes metrics); worst case two threads compile
            # the same pure function once each.
            kernel = compile_function(function)
            with self._lock:
                if len(self._kernel_cache) >= self.KERNEL_CACHE_SIZE:
                    self._kernel_cache.clear()
                self._kernel_cache[function] = kernel
        return kernel

    def _build_planes(self) -> PlaneSnapshot:
        """Snapshot the vectors per ``plane_format``; caller holds the
        lock (the vectors' own length is the coherent row universe)."""
        if self.plane_format == "compressed":
            return CompressedPlaneSet.from_vectors(
                self._vectors, self._vector_rows()
            )
        return PlaneSet.from_vectors(self._vectors, self._vector_rows())

    def planes(self) -> PlaneSnapshot:
        """The current plane snapshot (packed matrix or word-aligned
        runs, per the ``plane_format`` option) — public read surface
        for benches and the compression demo; rebuilds lazily like any
        lookup would."""
        return self._plane_snapshot()

    def _plane_snapshot(self) -> PlaneSnapshot:
        """The current planes as a kernel-consumable snapshot.

        Rebuilt only when ``_data_version`` has moved since the last
        snapshot — i.e. after any write to the indexed column.
        Rebuilds are counted on ``plane_rebuilds`` (a plain attribute,
        not a registry counter, keeping per-lookup instrumentation
        constant).
        """
        with self._lock:
            if (
                self._planes is None
                or self._planes_version != self._data_version
            ):
                # The vectors' own length, not ``len(self.table)``, is
                # the coherent row universe here: a concurrent append
                # extends the table's columns *before* this index's
                # on_append runs, and only the vectors are guarded by
                # the lock being held.
                self._planes = self._build_planes()
                self._planes_version = self._data_version
                # A full rebuild covers every row, so it doubles as a
                # compaction: the delta's rows are now in the planes.
                self._base_rows = self._planes.nbits
                if self._delta:
                    self._delta.clear()
                    self._delta_seq += 1
                self.plane_rebuilds += 1
            return self._planes

    @property
    def planes_mapped(self) -> bool:
        """Whether the current snapshot is memory-mapped (spilled)."""
        with self._lock:
            return isinstance(self._planes, MappedPlaneSet)

    def spill_planes(self, path: str) -> Optional[int]:
        """Swap the dense plane snapshot for a memory-mapped one.

        Writes the current packed snapshot to ``path`` as a
        CRC-headered plane file (``repro.kernels.mapped``) and installs
        a read-only ``np.memmap`` view in its place, freeing the dense
        matrix.  Lookups keep working unchanged — results and ``c_e``
        are bit-identical — with plane words paging in from disk on
        demand.

        Returns the plane-file size in bytes, or ``None`` when the
        snapshot is not a dense ``PlaneSet`` (compressed format, or
        already mapped) or a concurrent write moved the data version
        mid-spill (the stale file is left for the caller's directory
        hygiene; the fresh snapshot stays authoritative).

        The file write happens outside the index lock (the EBI303
        no-I/O-under-lock discipline); the swap re-validates
        ``_planes_version`` *and* snapshot identity under the lock, so
        a racing rebuild can never be clobbered by a stale map.
        """
        with self._lock:
            planes = self._plane_snapshot()
            version = self._planes_version
        if not isinstance(planes, PlaneSet):
            return None
        nbytes = write_plane_file(planes, path)
        mapped = MappedPlaneSet.open(path)
        with self._lock:
            if (
                self._planes is planes
                and self._planes_version == version
            ):
                self._planes = mapped
                self.plane_spills += 1
                return nbytes
        mapped.close()
        return None

    def promote_planes(self) -> Optional[int]:
        """Copy a memory-mapped snapshot back into dense RAM.

        The inverse of :meth:`spill_planes`, used when the residency
        budget allows a hot partition back into the dense tier.
        Returns the dense matrix size in bytes, or ``None`` when the
        snapshot is not mapped or a concurrent write raced the
        promotion.
        """
        with self._lock:
            planes = self._planes
            version = self._planes_version
        if not isinstance(planes, MappedPlaneSet):
            return None
        dense = planes.materialize()
        with self._lock:
            if (
                self._planes is planes
                and self._planes_version == version
            ):
                self._planes = dense
                self.plane_promotions += 1
                return dense.nbytes()
        return None

    def _evaluate(
        self,
        function: ReducedFunction,
        cost: LookupCost,
        *,
        version: Optional[int] = None,
    ) -> Optional[BitVector]:
        """Evaluate ``function`` over the current planes.

        When ``version`` is given, the plane snapshot is validated
        against it *under the same lock that guards the version* (the
        EBI302 coherence discipline): if a writer bumped
        ``_data_version`` after the function was derived, the pairing
        would be torn (e.g. a kernel compiled for the old plane
        width), so ``None`` is returned and the caller retries.
        """
        counter = AccessCounter()
        with self._lock:
            if version is not None and version != self._data_version:
                return None
            planes = self._plane_snapshot()
            limit = self._snapshot_rows()
            # Delta rows are matched per stored code under the same
            # lock acquisition that validated the version, so (planes,
            # delta, existence, limit) is one coherent epoch.
            delta_hits = (
                self._delta_matches(function, limit) if self._delta else []
            )
            exists = (
                None
                if self._exists_vector is None
                else self._exists_vector.copy()
            )
        result = self._kernel_for(function).evaluate(planes, counter)
        # The plane snapshot is frozen at the last compaction
        # (``_base_rows``): grow to cover delta rows — to the vectors'
        # own length when the existence vector must be ANDed in — or
        # shrink to the batch's pinned watermark.
        nbits = limit if exists is None else len(exists)
        if len(result) != nbits:
            result.resize(nbits)
        for row_id in delta_hits:
            result[row_id] = True
        if exists is not None:
            # Without the Theorem 2.1 encoding the existence vector
            # must be ANDed in — the extra access the paper calls out.
            cost.vectors_accessed += 1
            result &= exists
            if nbits != limit:
                result.resize(limit)
        cost.vectors_accessed += counter.distinct_accesses
        # Trace detail for EXPLAIN: the expression just evaluated and
        # the distinct vectors it pulled (merged across sub-lookups of
        # one dispatched predicate tree).
        with self._lock:
            self.last_reduction = function
            self.last_touched = tuple(
                sorted(set(self.last_touched) | counter.touched)
            )
        counter.publish(get_registry())
        return result

    def _domain_values(self) -> List[Any]:
        return self._mapping.domain()

    # ------------------------------------------------------------------
    # maintenance (Section 2.2, updates with/without domain expansion)
    # ------------------------------------------------------------------
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:  # ebilint: disable=EBI302
        # Protocol rule suppressed: the ``_delta_seq`` bump discharges
        # the epoch obligation; the analyzer is tripped only by the
        # inline ``compact()`` threshold call, whose own mutation paths
        # all bump before returning (checked separately on ``compact``).
        value = row.get(self.column_name)
        with self._lock:
            self._ensure_encodable(value)
            nbits = row_id + 1
            for vector in self._vectors:
                vector.resize(nbits)
            if self._exists_vector is not None:
                self._exists_vector.resize(nbits)
                self._exists_vector[row_id] = True
            if self._null_vector is not None:
                self._null_vector.resize(nbits)
                if value is None:
                    self._null_vector[row_id] = True
            # Arrival-order delta: the row's bits are written (the
            # vectors stay authoritative) but only ``_delta_seq`` moves
            # — the plane snapshot, compiled kernels and reductions all
            # survive the append.
            code = self._code_for(value)
            self._write_code_raw(row_id, code)
            self._delta[row_id] = code
            self._delta_seq += 1
            if len(self._delta) >= self.DELTA_COMPACT_THRESHOLD:
                self.compact()
            self.stats.maintenance_ops += self.width

    def _ensure_encodable(self, value: Any) -> None:
        """Expand the mapping (and vectors) for a brand-new value.

        Implements Equation 1: when the enlarged domain still fits the
        current width, only the mapping grows (Figure 2a); otherwise a
        new all-zero bitmap vector is added and cached reductions are
        invalidated (Figure 2b).
        """
        if value is None:
            if self.null_mode == "vector" or NULL in self._mapping:
                return
            value_key: Hashable = NULL
        else:
            if value in self._mapping:
                return
            value_key = value
        with self._lock:
            _, expanded = self._mapping.add_value(value_key)
            if expanded:
                self._vectors.append(BitVector(self._row_count()))
                # Adding a vector rewrites nothing, but the Boolean
                # functions of every existing value change (step 4 of
                # the paper's expansion procedure) — accounted as one
                # op per mapped value.
                self.stats.maintenance_ops += len(self._mapping)
            # Any mapping change invalidates the cached reductions and
            # the kernels compiled from them; the plane snapshot
            # follows the data version, bumped here because an
            # expansion changes the plane count without touching
            # existing rows.
            self._reduction_cache.clear()
            self._kernel_cache.clear()
            self._data_version += 1
            self.stats.maintenance_ops += 1

    def apply_mapping(self, mapping: MappingTable) -> None:
        """Install a re-encoded mapping and reset the bit planes.

        Used by :func:`repro.encoding.reencoding.apply_reencoding`:
        the mapping swap, vector reset, cache invalidation and version
        bump happen atomically under the index lock, so a concurrent
        lookup never observes the new mapping against stale planes
        (the rows are then re-written through ``_write_code`` /
        ``_write_row``, each of which bumps again under the lock).
        """
        with self._lock:
            self._mapping = mapping
            self._vectors = [
                BitVector(self._row_count())
                for _ in range(mapping.width)
            ]
            self._reduction_cache.clear()
            self._kernel_cache.clear()
            self._data_version += 1

    def rebuild(self) -> None:
        """Rebuild every bit plane from the base table (atomic swap).

        Used by :mod:`repro.shard.reorder` after a physical row
        permutation: the mapping (and therefore every cached reduction
        and compiled kernel) survives — only the planes change — so
        the vector reset, bulk rebuild, delta clear and epoch bumps
        happen under one lock acquisition, exactly like
        :meth:`apply_mapping`'s hot-swap.  A concurrent optimistic
        lookup that paired the old planes with the old version retries
        against the new state.
        """
        with self._lock:
            self._vectors = [
                BitVector(self._row_count())
                for _ in range(self._mapping.width)
            ]
            self._build()
            # _build bumps _data_version only when rows exist; bump
            # unconditionally so a snapshot of an emptied table is
            # still invalidated.
            self._data_version += 1
            self._delta.clear()
            self._delta_seq += 1

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        with self._lock:
            self._ensure_encodable(new)
            if self._null_vector is not None:
                self._null_vector[row_id] = new is None
            if row_id in self._delta:
                # The row never made it into the planes; rewriting its
                # delta entry needs no plane invalidation.
                code = self._code_for(new)
                self._write_code_raw(row_id, code)
                self._delta[row_id] = code
                self._delta_seq += 1
            else:
                self._write_row(row_id, new)
            self.stats.maintenance_ops += self.width

    def on_delete(self, row_id: int) -> None:
        with self._lock:
            if self.void_mode == "encode":
                void_code = self._mapping.encode(VOID)
                if row_id in self._delta:
                    self._write_code_raw(row_id, void_code)
                    self._delta[row_id] = void_code
                    self._delta_seq += 1
                else:
                    self._write_code(row_id, void_code)
            else:
                self._exists_vector[row_id] = False
            if self._null_vector is not None:
                self._null_vector[row_id] = False
            self.stats.maintenance_ops += 1
