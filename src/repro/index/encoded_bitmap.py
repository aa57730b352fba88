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

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.bitmap.ops import packed_length
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
    MappedPlaneSet,
    PlaneSet,
    compile_function,
    write_plane_file,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.query.predicates import Equals, InList, IsNull, Predicate, Range
from repro.query.snapshot import snapshot_rows
from repro.table.table import Table


def _code_dtype(width: int) -> np.dtype:
    """Narrowest unsigned dtype holding every ``width``-bit code."""
    return np.min_scalar_type((1 << width) - 1)


def pack_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """The ``(width, nwords)`` plane matrix of a per-row code array.

    Row ``i`` packs bit ``i`` of every code, written straight into the
    matrix: one ``np.packbits`` per plane and no per-plane vector.
    """
    matrix = np.zeros((width, packed_length(len(codes))), dtype=np.uint64)
    rows = matrix.view(np.uint8)
    used = -(-len(codes) // 8)
    for i in range(width):
        # A bool mask: np.packbits is about 10x slower on other dtypes.
        bit = (codes & codes.dtype.type(1 << i)) != 0
        rows[i, :used] = np.packbits(bit, bitorder="little")
    return matrix


def unpack_codes(
    matrix: np.ndarray, nbits: int, dtype: np.dtype
) -> np.ndarray:
    """Per-row codes read off a plane matrix (``pack_codes`` inverse):
    ``codes |= row_bits << i``, one pass per plane row."""
    codes = np.zeros(nbits, dtype=dtype)
    rows = np.ascontiguousarray(matrix).view(np.uint8)
    for i in range(rows.shape[0]):
        bits = np.unpackbits(rows[i], count=nbits, bitorder="little")
        codes |= bits.astype(dtype, copy=False) << dtype.type(i)
    return codes


class SharedFunction(NamedTuple):
    """A leaf's retrieval function, derived once for every index whose
    mapping equals the one it was derived from.

    The paper derives a selection's retrieval function from the mapping
    table alone (Section 2), so indexes with equal mappings and equal
    void/NULL modes need it once: :meth:`EncodedBitmapIndex.share_function`
    derives it, :meth:`EncodedBitmapIndex.can_share` says whether an
    index may evaluate it, and ``Index.lookup(predicate, shared=...)``
    evaluates it over that index's own planes and delta.
    """

    #: The deriving index's mapping as it was (a :meth:`MappingTable.snapshot`).
    mapping: MappingTable
    void_mode: str
    null_mode: str
    #: ``None`` when the predicate selects no mapped value.
    function: Optional[ReducedFunction]
    kernel: Optional[CompiledKernel]


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
        keeps an explicit ``B_NULL``.  With ``void_mode="encode"`` NULL
        rows then share void's reserved code 0, so value predicates
        skip them at no cost.  With both modes ``"vector"`` code 0
        belongs to a value, so NULL still takes a code of its own in
        the mapping (IsNull reads ``B_NULL``): a value predicate's
        ``c_e`` is its reduced function's vector count plus one for the
        existence vector, the same as ``void_mode="vector"`` with
        ``null_mode="encode"``.

    Storage: the ``k`` planes of the folded rows are one ``(k, nwords)``
    ``uint64`` matrix — a :class:`~repro.kernels.planes.PlaneSet`, or
    a :class:`~repro.kernels.mapped.MappedPlaneSet` once spilled — and
    the rows appended since the last fold are the delta tier's code
    array.  That is the only copy of the index's bits.  Lookups
    evaluate the matrix outside the lock, so once one has taken it, it
    is never written to again: the next rewrite of a folded row
    installs a new matrix instead (copy on write).  Writers that copy
    the folded rows read them from RAM: a spilled matrix is promoted
    first, outside the lock (:meth:`_copies_spilled`).
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
    ) -> None:
        super().__init__(table, column_name, registry=registry)
        if void_mode not in ("encode", "vector"):
            raise InvalidArgumentError(f"bad void_mode {void_mode!r}")
        if null_mode not in ("encode", "vector"):
            raise InvalidArgumentError(f"bad null_mode {null_mode!r}")
        self.void_mode = void_mode
        self.null_mode = null_mode
        self._mapping = (  # ebi: versioned
            encoding if encoding is not None else self._default_mapping()
        )
        self._validate_mapping()
        self._exists_vector: Optional[BitVector] = (
            BitVector(len(table)) if void_mode == "vector" else None
        )
        self._null_vector: Optional[BitVector] = (
            BitVector(len(table)) if null_mode == "vector" else None
        )
        self._init_caches()
        self._build()

    def _init_caches(self) -> None:
        """Set up the lookup-side cache state and an empty delta.

        Factored out of ``__init__`` because deserialisation
        (:func:`repro.index.serialization.loads`) restores an index via
        ``__new__`` and must initialise the same state; both then
        install the plane matrix (``_build`` or the loaded rows).
        """
        self._reduction_cache: Dict[
            Tuple[Tuple[int, ...], int], ReducedFunction
        ] = {}
        # Compiled-kernel cache: keyed by the reduced function, cleared
        # whenever the mapping changes (codes, and therefore every
        # future key, change with it).  Delegates to the process-wide
        # compile cache on miss, so partitions sharing a mapping also
        # share kernels.
        self._kernel_cache: Dict[ReducedFunction, CompiledKernel] = {}
        self._planes: Union[PlaneSet, MappedPlaneSet]
        # Whether a reader has taken the current matrix out of the lock
        # (``_take_planes``) since it was published: until one has, a
        # rewrite of a folded row may write into it in place.
        self._planes_shared = False
        self._data_version = 0
        #: Plane matrices published by a full build, a rewrite of a
        #: folded row, a width expansion or a rebuild (folds count on
        #: ``compactions``).
        self.plane_rebuilds = 0
        # Delta tier (arrival-order, per Section 4's dynamic scheme):
        # the rows appended since the last fold — always the contiguous
        # row suffix starting at ``_planes.nbits`` — kept as their codes
        # in ``_delta_codes[:_delta_len]`` (a growable array in the
        # planes' code dtype), matched term by term at query time and
        # folded into a new plane matrix by compact().  ``_delta_seq``
        # is the delta half of the epoch: it moves under the lock on
        # every delta mutation, where ``_data_version`` only moves on
        # mapping/plane identity changes — appends no longer thrash the
        # kernel caches.
        self._delta_codes = np.zeros(0, dtype=np.uint8)  # ebi: versioned
        self._delta_len = 0  # ebi: versioned
        self._delta_seq = 0
        self.compactions = 0
        # Out-of-core residency accounting (docs/out_of_core.md):
        # spills swap the dense matrix for a memory-mapped one,
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
            include_null=self._encodes_null() and column.has_nulls(),
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
            self._encodes_null()
            and column.has_nulls()
            and NULL not in self._mapping
        ):
            self._mapping.assign(NULL, self._mapping.next_free_code())

    def _build(self) -> None:
        """Bulk-build the plane matrix from the current table contents.

        Each distinct value is encoded once into a lookup table, and
        the per-row code array is one ``np.fromiter`` pass over the
        column through it; void rows are then overwritten with one
        fancy-index assignment and the planes packed straight into a
        new matrix (:func:`pack_codes`), which is published with a
        ``_data_version`` bump.  The delta is left to the caller.  The
        code array uses the narrowest unsigned dtype that holds
        ``2^k - 1``, so it and each plane's mask temporary take one
        byte per row for ``k <= 8``.
        """
        n = self._row_count()
        width = self._mapping.width
        dtype = _code_dtype(width)
        if n == 0:
            self._publish(np.zeros((width, 0), dtype=np.uint64), 0)
            return
        column = self.table.column(self.column_name)
        lut = {
            value: self._code_for(value)
            for value in column.distinct_values()
        }
        if column.has_nulls():
            lut[None] = self._code_for(None)
        codes = np.fromiter(
            map(lut.__getitem__, iter(column)), dtype=dtype, count=n
        )
        void = np.fromiter(self.table.void_rows(), dtype=np.int64)
        if self._null_vector is not None:
            # NULL's code is its own or void's, so NULL rows are read
            # off before the void overwrite and void rows cleared.
            if None in lut:
                nulls = codes == lut[None]
                nulls[void] = False
                self._null_vector = BitVector.from_mask(nulls)
            else:
                self._null_vector = BitVector(n)
        codes[void] = self._void_code()
        if self._exists_vector is not None:
            exists = np.ones(n, dtype=bool)
            exists[void] = False
            self._exists_vector = BitVector.from_mask(exists)
        self._publish(pack_codes(codes, width), n)

    def _publish(self, matrix: np.ndarray, nbits: int) -> None:
        """Install ``matrix`` as the folded rows' planes.

        Caller holds the lock (or owns the index under construction).
        The previous matrix is left as it was, so a lookup that took
        it keeps evaluating coherent bits.
        """
        with self._lock:
            self._planes = PlaneSet(matrix, self._mapping.width, nbits)
            self._planes_shared = False
            self._data_version += 1
            self.plane_rebuilds += 1

    def _take_planes(self) -> Union[PlaneSet, MappedPlaneSet]:
        """The current planes, for a read that runs outside the lock.

        Caller holds the lock.  Marks the matrix shared, so no writer
        writes into it from now on.
        """
        self._planes_shared = True
        return self._planes

    def _void_code(self) -> int:
        if self.void_mode == "encode":
            return self._mapping.encode(VOID)
        return 0

    def _encodes_null(self) -> bool:
        """Whether NULL rows carry a mapping code of their own.

        Only ``null_mode="vector"`` over ``void_mode="encode"`` lets
        them share void's code instead: with an existence vector, code
        0 belongs to a value and would select the NULL rows too.
        """
        return self.null_mode == "encode" or self.void_mode == "vector"

    def _code_for(self, value: Any) -> int:
        if value is None:
            if self._encodes_null():
                return self._mapping.encode(NULL)
            return self._void_code()
        return self._mapping.encode(value)

    def _rewrite_code(self, row_id: int, code: int) -> None:
        """Give an existing row a new code.

        A delta row is rewritten in place (only the epoch's
        ``_delta_seq`` half must move).  A row already folded into the
        planes is rewritten in the matrix itself while no reader has
        taken it, else in a copy that is published; either way with a
        ``_data_version`` bump.  Caller has made the planes dense
        (:meth:`_copies_spilled`).
        """
        with self._lock:
            planes = self._planes
            folded = planes.nbits
            if row_id >= folded:
                self._delta_codes[: self._delta_len][row_id - folded] = code
            else:
                matrix = planes.matrix
                if self._planes_shared:
                    matrix = matrix.copy()
                word, bit = divmod(row_id, 64)
                bits = (code >> np.arange(self.width, dtype=np.uint64)) & 1
                matrix[:, word] &= ~np.uint64(1 << bit)
                matrix[:, word] |= bits.astype(np.uint64) << np.uint64(bit)
                if matrix is planes.matrix:
                    self._data_version += 1
                else:
                    self._publish(matrix, folded)
            self._delta_seq += 1

    def _copies_spilled(
        self, rewrites_folded: bool, values: Iterable[Any] = ()
    ) -> bool:
        """Whether a write would copy a spilled matrix under the lock.

        Caller holds the lock.  A fold or a rewrite of a folded row
        (``rewrites_folded``) copies the folded rows, and so may a new
        value (a width expansion).  Reading a memory-mapped matrix for
        that under the lock would be file I/O there (EBI303), so a
        writer that gets ``True`` releases the lock, promotes the
        planes (:meth:`promote_planes` reads the file outside it) and
        retries.
        """
        return isinstance(self._planes, MappedPlaneSet) and (
            rewrites_folded or not all(map(self._mapped, values))
        )

    def _mapped(self, value: Any) -> bool:
        """Whether ``value`` has a code without a mapping change."""
        if value is None:
            return not self._encodes_null() or NULL in self._mapping
        return value in self._mapping

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
        """Direct (uncounted) access to bitmap vector ``B_i``.

        A read-only view of plane row ``i`` while the delta is empty;
        otherwise a fresh vector over every row, the delta rows' bits
        filled from their codes.
        """
        with self._lock:
            planes = self._take_planes()
            delta = self._delta_codes[: self._delta_len].copy()
        words = planes.matrix[i].view(np.ndarray)
        if not len(delta):
            words.flags.writeable = False
            return BitVector._from_words(words, planes.nbits)
        vector = BitVector._from_words(words.copy(), planes.nbits)
        vector.resize(planes.nbits + len(delta))
        vector.set_indices(
            planes.nbits + np.flatnonzero(delta & delta.dtype.type(1 << i))
        )
        return vector

    def stored_codes(self) -> np.ndarray:
        """Every ingested row's stored code, as an int64 array.

        The plane matrix read back in one pass per plane
        (:func:`unpack_codes`), then the delta codes for the suffix —
        the inverse of the build, used by fsck.
        """
        with self._lock:
            planes = self._take_planes()
            delta = self._delta_codes[: self._delta_len].astype(np.int64)
        folded = unpack_codes(
            planes.matrix, planes.nbits, _code_dtype(planes.width)
        )
        return np.concatenate([folded.astype(np.int64), delta])

    def retrieval_function(self, value: Any) -> ReducedFunction:
        """The k-variable minterm ``f_value`` of Definition 2.1."""
        code = self._code_for(value)
        return minterm_dnf([code], self.width)

    #: Above this many selected codes, contiguous selections use the
    #: O(k) binary interval decomposition instead of prime generation.
    INTERVAL_FAST_PATH_THRESHOLD = 192

    def reduced_function(self, values: Iterable[Any]) -> ReducedFunction:
        """Logically reduced retrieval expression for an IN-list."""
        codes = tuple(sorted(self._code_for(v) for v in values))
        key = (codes, self.width)
        with self._lock:
            cached = self._reduction_cache.get(key)
            self.last_cache_hit = cached is not None
        if cached is None:
            # Reduce outside the lock: reduction is the slow path,
            # and a duplicate reduction under contention is benign
            # (pure function of the key).  Registry counters
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
            # a near-minimal cover in O(k) (cheap enough that the
            # global cache is not worth a key).
            from repro.boolean.intervals import reduce_interval

            return reduce_interval(codes[0], codes[-1], self.width)
        # Through the process-wide LRU: a reduction runs once per
        # distinct (codes, width, don't-cares) shape, even when many
        # partition-local indexes share one mapping.
        return reduce_values_cached(
            codes, self.width, dont_cares=self._mapping.dont_cares()
        )

    def average_density(self) -> float:
        """Mean density over the k vectors — ~1/2 per Section 3.1."""
        width = self.width
        return sum(self.vector(i).density() for i in range(width)) / width

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

    def share_function(
        self, predicate: Predicate
    ) -> Optional[SharedFunction]:
        """Derive ``predicate``'s function once, for every index whose
        mapping and modes equal this one's (:class:`SharedFunction`).

        ``None`` when the lookup derives no function (``IsNull`` under
        an explicit NULL vector) or when a subclass evaluates leaves
        its own way.  The mapping snapshot is taken under the lock with
        the data version, and the function is kept only if the version
        has not moved since, so it is the snapshot's function.
        """
        cls = type(self)
        if (
            cls._lookup is not EncodedBitmapIndex._lookup
            or cls._evaluate is not EncodedBitmapIndex._evaluate
        ):
            return None
        if isinstance(predicate, IsNull) and self._null_vector is not None:
            return None
        while True:
            with self._lock:
                version = self._data_version
                mapping = self._mapping.snapshot()
            if isinstance(predicate, IsNull):
                known: List[Any] = [None] if NULL in mapping else []
            else:
                known = self.predicate_values(predicate)
            function = self.reduced_function(known) if known else None
            kernel = None if function is None else self._kernel_for(function)
            with self._lock:
                if version == self._data_version:
                    return SharedFunction(
                        mapping,
                        self.void_mode,
                        self.null_mode,
                        function,
                        kernel,
                    )

    def can_share(self, shared: SharedFunction) -> bool:
        """Whether this index's lookups may evaluate ``shared``: same
        void/NULL modes and a mapping equal to the one it was derived
        from (:meth:`MappingTable.same_as`, under the lock every write
        to the mapping holds)."""
        with self._lock:
            return (
                shared.void_mode == self.void_mode
                and shared.null_mode == self.null_mode
                and self._mapping.same_as(shared.mapping)
            )

    def _lookup_shared(
        self, predicate: Predicate, cost: LookupCost, shared: Any
    ) -> BitVector:
        """Evaluate a shared function over this index's planes and delta.

        The same optimistic read as :meth:`_lookup`: the data version
        and the mapping check are read under one lock acquisition, and
        ``_evaluate`` refuses the planes if the version moved.  When the
        mapping no longer equals the shared one, the index derives its
        own function, exactly as an unshared lookup does.
        """
        while True:
            with self._lock:
                version = self._data_version
                joined = self.can_share(shared)
            if not joined:
                return self._lookup(predicate, cost)
            if shared.function is None:
                break
            result = self._evaluate(
                shared.function, cost, version=version, kernel=shared.kernel
            )
            if result is not None:
                return result
        return BitVector(self._snapshot_rows())

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
            return self._delta_len

    def _clear_delta(self) -> None:
        """Empty the delta tier."""
        with self._lock:
            self._delta_len = 0
            self._delta_seq += 1

    def compact(self) -> bool:
        """Fold the delta into the plane matrix (atomic hot-swap).

        Publishes a new, wider :class:`~repro.kernels.planes.PlaneSet`
        made of the old rows plus the delta codes, under the lock with
        a ``_data_version`` bump, so an in-flight optimistic lookup
        that paired the old planes with the old version simply retries
        — it never sees a half-swapped state.  A spilled matrix is
        promoted first, outside the lock.  Returns ``True`` when a fold
        happened.  Idempotent and cheap when there is nothing to fold.
        """
        while True:
            with self._lock:
                if not self._delta_len:
                    return False
                if not self._copies_spilled(True):
                    crash_point("index.compact.pre-swap")
                    old = self._planes
                    start = old.nbits
                    end = start + self._delta_len
                    # Whole words of the old matrix are copied; the rows
                    # of its last, partly filled word are re-packed with
                    # the delta.
                    first = start // 64
                    head = unpack_codes(
                        old.matrix[:, first : first + 1],
                        start - first * 64,
                        self._delta_codes.dtype,
                    )
                    delta = self._delta_codes[: self._delta_len]
                    tail = np.concatenate([head, delta])
                    matrix = np.empty(
                        (self.width, packed_length(end)), np.uint64
                    )
                    matrix[:, :first] = old.matrix[:, :first]
                    matrix[:, first:] = pack_codes(tail, self.width)
                    self._planes = PlaneSet(matrix, self.width, end)
                    self._planes_shared = False
                    self._data_version += 1
                    self._clear_delta()
                    self.compactions += 1
                    crash_point("index.compact.post-swap")
                    return True
            self.promote_planes()

    def _delta_matches(
        self, function: ReducedFunction, limit: int
    ) -> np.ndarray:
        """Ids of the delta rows below ``limit`` selected by ``function``.

        Caller holds the lock.  The function's terms are matched
        against the stored codes (:meth:`ReducedFunction.evaluate_codes`),
        touching no bitmap vector, so ``c_e`` stays exactly the reduced
        function's vector count — bit-identical to evaluating the same
        function over fully compacted planes.
        """
        start = self._planes.nbits
        count = min(self._delta_len, limit - start)
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        hits = function.evaluate_codes(self._delta_codes[:count])
        return start + np.flatnonzero(hits)

    def _vector_rows(self) -> int:
        """Rows this index has ingested: folded rows plus the delta.

        Differs from ``len(self.table)`` only inside the window where
        a concurrent append has extended the table's columns but this
        index's ``on_append_rows`` has not run yet; the index's own
        rows are the universe every lock-guarded read here must use.
        """
        return self._planes.nbits + self._delta_len

    def _snapshot_rows(self) -> int:
        """Result-universe length: the thread's pin, else all rows."""
        rows = self._vector_rows()
        pinned = snapshot_rows(self.table)
        if pinned is None:
            return rows
        return min(pinned, rows)

    def clear_caches(self) -> None:
        """Drop this index's memoised lookup state.

        Clears the reduction cache and the compiled-kernel cache; the
        plane matrix is the index's data and stays.  Useful under
        memory pressure and for cold-cache benchmarking (process-wide
        caches are cleared separately via
        :func:`repro.boolean.reduction.clear_reduction_cache` /
        :func:`repro.kernels.clear_compile_cache`).
        """
        with self._lock:
            self._reduction_cache.clear()
            self._kernel_cache.clear()

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

    def planes(self) -> Union[PlaneSet, MappedPlaneSet]:
        """The folded rows' plane matrix, dense or memory-mapped —
        public read surface for benches, residency and tests.  Never
        written to once returned; rows appended since the last fold
        are in the delta, not here."""
        with self._lock:
            return self._take_planes()

    @property
    def planes_mapped(self) -> bool:
        """Whether the current snapshot is memory-mapped (spilled)."""
        with self._lock:
            return isinstance(self._planes, MappedPlaneSet)

    def spill_planes(self, path: str) -> Optional[int]:
        """Swap the dense plane snapshot for a memory-mapped one.

        Writes the current dense matrix to ``path`` as a CRC-headered
        plane file (``repro.kernels.mapped``) and installs a read-only
        view of an ``mmap`` of that file in its place, freeing the
        dense matrix.
        Lookups keep working unchanged — results and ``c_e`` are
        bit-identical — with plane words paging in from disk on demand.

        Returns the plane-file size in bytes, or ``None`` when the
        matrix is already mapped or a concurrent write published a new
        one mid-spill (the stale file is left for the caller's
        directory hygiene; the fresh matrix stays authoritative).

        The file write happens outside the index lock (the EBI303
        no-I/O-under-lock discipline); the swap re-validates the
        matrix's identity under the lock — every write publishes a new
        one — so a racing writer can never be clobbered by a stale map.
        """
        with self._lock:
            planes = self._take_planes()
        if not isinstance(planes, PlaneSet):
            return None
        nbytes = write_plane_file(planes, path)
        mapped = MappedPlaneSet.open(path)
        with self._lock:
            if self._planes is planes:
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
        matrix is not mapped or a concurrent write raced the
        promotion.
        """
        with self._lock:
            planes = self._planes
        if not isinstance(planes, MappedPlaneSet):
            return None
        dense = planes.materialize()
        with self._lock:
            if self._planes is planes:
                self._planes = dense
                self._planes_shared = False
                self.plane_promotions += 1
                return dense.nbytes()
        return None

    def _evaluate(
        self,
        function: ReducedFunction,
        cost: LookupCost,
        *,
        version: Optional[int] = None,
        kernel: Optional[CompiledKernel] = None,
    ) -> Optional[BitVector]:
        """Evaluate ``function`` over the current planes, with ``kernel``
        (its compiled form) when the caller has it.

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
            planes = self._take_planes()
            limit = self._snapshot_rows()
            # Delta rows are matched on their stored codes under the
            # same lock acquisition that validated the version, so
            # (planes, delta, existence, limit) is one coherent epoch.
            delta_hits = self._delta_matches(function, limit)
            exists = (
                None
                if self._exists_vector is None
                else self._exists_vector.copy()
            )
        if kernel is None:
            kernel = self._kernel_for(function)
        result = kernel.evaluate(planes, counter)
        # The plane matrix is frozen at the last fold: grow to cover
        # delta rows — to the existence vector's length when it must
        # be ANDed in — or shrink to the batch's pinned watermark.
        nbits = limit if exists is None else len(exists)
        if len(result) != nbits:
            result.resize(nbits)
        result.set_indices(delta_hits)
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
    def on_append(self, row_id: int, row: Dict[str, Any]) -> None:
        self.on_append_rows(
            row_id, {self.column_name: (row.get(self.column_name),)}
        )

    def on_append_rows(
        self, first_row_id: int, columns: Mapping[str, Sequence[Any]]
    ) -> None:
        values = columns[self.column_name]
        while True:
            with self._lock:
                folds = (
                    first_row_id + len(values) - self._planes.nbits
                    >= self.DELTA_COMPACT_THRESHOLD
                )
                if not self._copies_spilled(folds, values):
                    self._append_values(first_row_id, values)
                    return
            self.promote_planes()

    def _append_values(  # ebilint: disable=EBI302
        self, first_row_id: int, values: Sequence[Any]
    ) -> None:
        """The body of :meth:`on_append_rows`; caller holds the lock."""
        # Protocol rule suppressed: ``_append_codes`` bumps
        # ``_delta_seq`` for every chunk it writes; the analyzer is
        # tripped only by the inline ``compact()`` threshold call,
        # whose own mutation paths all bump before returning (checked
        # separately on ``compact``).
        # Every new value is encoded (Section 2.2's expansion) before
        # any code of the batch is written, in arrival order, so the
        # codes match a row-at-a-time append.  Each row is charged the
        # width in force once its own value is encodable, as the
        # row-at-a-time path charges it.
        distinct = dict.fromkeys(values)
        ops = 0
        charged = 0
        for value in distinct:
            width = self.width
            self._ensure_encodable(value)
            if self.width != width:
                first = values.index(value)
                ops += width * (first - charged)
                charged = first
        ops += self.width * (len(values) - charged)
        lut = {value: self._code_for(value) for value in distinct}
        codes = np.fromiter(
            map(lut.__getitem__, values),
            dtype=_code_dtype(self.width),
            count=len(values),
        )
        null_code = lut.get(None) if self._null_vector is not None else None
        # A batch that reaches the compaction threshold is split there,
        # so the fold lands on the same row as it would appending one
        # row at a time.
        done = 0
        while done < len(codes):
            room = max(1, self.DELTA_COMPACT_THRESHOLD - self._delta_len)
            chunk = codes[done:done + room]
            self._append_codes(first_row_id + done, chunk, null_code)
            done += len(chunk)
            if self._delta_len >= self.DELTA_COMPACT_THRESHOLD:
                self.compact()
        self.stats.maintenance_ops += ops

    def _append_codes(
        self,
        first_row_id: int,
        codes: np.ndarray,
        null_code: Optional[int],
    ) -> None:
        """Append rows' codes to the delta (and the explicit vectors).

        Only the delta and the existence/NULL vectors change (only
        ``_delta_seq`` moves), so the plane matrix, compiled kernels
        and reductions all survive the append.
        """
        end = first_row_id + len(codes)
        with self._lock:
            if self._exists_vector is not None:
                self._exists_vector.resize(end)
                self._exists_vector.set_indices(np.arange(first_row_id, end))
            if self._null_vector is not None:
                self._null_vector.resize(end)
                if null_code is not None:
                    self._null_vector.set_indices(
                        first_row_id + np.flatnonzero(codes == null_code)
                    )
            # Rows appended while the index was detached hold code 0.
            offset = first_row_id - self._planes.nbits
            needed = offset + len(codes)
            buffer = self._delta_codes
            if needed > len(buffer) or buffer.dtype != codes.dtype:
                grown = np.zeros(
                    max(needed, 2 * len(buffer)), dtype=codes.dtype
                )
                grown[: self._delta_len] = buffer[: self._delta_len]
                self._delta_codes = grown
            self._delta_codes[self._delta_len:offset] = 0
            self._delta_codes[offset:needed] = codes
            self._delta_len = needed
            self._delta_seq += 1

    def _ensure_encodable(self, value: Any) -> None:
        """Expand the mapping (and planes) for a brand-new value.

        Implements Equation 1: when the enlarged domain still fits the
        current width, only the mapping grows (Figure 2a); otherwise a
        plane matrix with a new all-zero row is published and cached
        reductions are invalidated (Figure 2b).
        """
        if self._mapped(value):
            return
        value_key: Hashable = NULL if value is None else value
        with self._lock:
            _, expanded = self._mapping.add_value(value_key)
            if expanded:
                old = self._planes
                zero_row = np.zeros((1, old.nwords), np.uint64)
                self._publish(np.vstack([old.matrix, zero_row]), old.nbits)
                # Delta codes follow the width's dtype, so a delta row
                # rewritten with the new value's code still fits.
                self._delta_codes = self._delta_codes.astype(
                    _code_dtype(self._mapping.width)
                )
                # Adding a vector rewrites nothing, but the Boolean
                # functions of every existing value change (step 4 of
                # the paper's expansion procedure) — accounted as one
                # op per mapped value.
                self.stats.maintenance_ops += len(self._mapping)
            # Any mapping change invalidates the cached reductions and
            # the kernels compiled from them, and moves the data
            # version so in-flight lookups re-derive their function.
            self._reduction_cache.clear()
            self._kernel_cache.clear()
            self._data_version += 1
            self.stats.maintenance_ops += 1

    def apply_mapping(self, mapping: MappingTable) -> None:
        """Install a re-encoded mapping and rebuild the bit planes.

        Used by :func:`repro.encoding.reencoding.apply_reencoding`:
        the mapping swap, cache invalidation, bulk rebuild under the
        new codes and epoch bumps happen atomically under the index
        lock, so a concurrent lookup never observes the new mapping
        against stale planes.
        """
        with self._lock:
            self._mapping = mapping
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild the plane matrix from the base table (atomic swap).

        Used by :mod:`repro.shard.reorder` after a physical row
        permutation, by :meth:`apply_mapping` and by
        :func:`repro.index.verify.repair`: the reduction and kernel
        caches, the bulk rebuild, the publish with its
        ``_data_version`` bump and the delta clear happen under one
        lock acquisition, so no lookup pairs reductions, kernels or
        planes from before the rebuild with state from after it.  A
        concurrent optimistic lookup that paired the old planes with
        the old version retries against the new state.
        """
        with self._lock:
            self._reduction_cache.clear()
            self._kernel_cache.clear()
            self._build()
            self._clear_delta()

    def _apply_update(self, row_id: int, old: Any, new: Any) -> None:
        while True:
            with self._lock:
                folded = row_id < self._planes.nbits
                if not self._copies_spilled(folded, (new,)):
                    self._ensure_encodable(new)
                    if self._null_vector is not None:
                        self._null_vector[row_id] = new is None
                    self._rewrite_code(row_id, self._code_for(new))
                    self.stats.maintenance_ops += self.width
                    return
            self.promote_planes()

    def on_delete(self, row_id: int) -> None:
        while True:
            with self._lock:
                folded = row_id < self._planes.nbits
                encoded = self.void_mode == "encode"
                if not self._copies_spilled(folded and encoded):
                    if encoded:
                        self._rewrite_code(row_id, self._void_code())
                    else:
                        self._exists_vector[row_id] = False
                    if self._null_vector is not None:
                        self._null_vector[row_id] = False
                    self.stats.maintenance_ops += 1
                    return
            self.promote_planes()
