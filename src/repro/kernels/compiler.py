"""Compilation of reduced retrieval functions into fused numpy kernels.

``evaluate_dnf`` walks a DNF term by term, allocating a ``BitVector``
per literal (``~vector``) and per term.  A :class:`CompiledKernel`
evaluates the same function directly on the packed ``uint64`` plane
matrix of a :class:`~repro.kernels.planes.PlaneSet`:

* **constant folding** — a false function or a constant-true term
  short-circuits to a zero/ones result with *zero* vector accesses,
  exactly matching ``evaluate_dnf``'s early exits;
* **common-literal factoring** — literals appearing in every term are
  hoisted out of the OR loop and AND-ed into the result once;
* **zero per-literal allocations** — terms accumulate into
  thread-local scratch buffers via ``np.bitwise_and(..., out=...)``;
* **negation without stored complements** — the plane matrix holds
  only the ``k`` planes.  A term ANDs its positive rows with the
  complement of the OR of its negated rows (De Morgan: one invert per
  term); when more terms carry a negated literal than there are
  negated planes, and always on the gather strategy, each such plane
  is instead complemented once per evaluation into a scratch row table
  and every term is a plain AND chain;
* **adaptive strategy** — short vectors (≤ :data:`GATHER_MAX_WORDS`
  words) gather from that row table once, then
  ``np.bitwise_and.reduceat`` + ``np.bitwise_or.reduce`` (a handful of
  numpy calls for the whole DNF); long
  vectors use the per-term loop, whose scratch stays cache-resident;
* **run strategy** — handed a
  :class:`~repro.kernels.runs.CompressedPlaneSet` instead of a packed
  matrix, the same plan executes segment-at-a-time on word-aligned
  runs: fill runs short-circuit terms in O(1) per segment and literal
  blocks fall back to vectorised word operations
  (``docs/compression.md``).

Access accounting is bit-identical to the tree walk: the kernel
replays the exact per-term literal order ``evaluate_dnf`` would fetch
into the caller's :class:`~repro.boolean.evaluator.AccessCounter`, so
both ``distinct_accesses`` (the paper's ``c_e``) and raw ``reads``
agree — a property enforced by the randomized differential suite in
``tests/test_kernels.py``.

>>> from repro.bitmap.bitvector import BitVector
>>> from repro.boolean.reduction import reduce_values
>>> from repro.kernels.planes import PlaneSet
>>> planes = [BitVector.from_bools(b) for b in
...           ([True, False, True, False], [False, False, True, True])]
>>> function = reduce_values([1, 3], width=2)   # code has bit 0 set
>>> kernel = compile_function(function)
>>> snapshot = PlaneSet.from_vectors(planes, nbits=4)
>>> kernel.evaluate(snapshot).to_bitstring()
'1010'
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bitmap.bitvector import BitVector
from repro.bitmap.ops import tail_mask
from repro.bitmap.wah import WordAlignedBitmap
from repro.boolean.evaluator import AccessCounter
from repro.boolean.reduction import ReducedFunction
from repro.cache import LRUCache
from repro.errors import InvalidArgumentError
from repro.kernels.mapped import MappedPlaneSet
from repro.kernels.planes import PlaneSet
from repro.kernels.runs import CompressedPlaneSet

#: Any snapshot type a kernel can evaluate against.  ``PlaneSet`` and
#: ``MappedPlaneSet`` share the dense word-matrix surface (the mapped
#: variant pages in from disk on demand); ``CompressedPlaneSet`` takes
#: the run-at-a-time path.  Rows and ``c_e`` are bit-identical across
#: all three.
PlaneSnapshot = Union[PlaneSet, MappedPlaneSet, CompressedPlaneSet]

#: Word-count crossover between the gather/reduceat strategy and the
#: per-term loop.  Below this the whole-DNF gather fits comfortably in
#: cache and the fixed numpy call overhead dominates, so fewer calls
#: win; above it the gather's ``L x nwords`` copy outweighs the saved
#: dispatch.  Chosen empirically on the bench workload (k=10 planes).
GATHER_MAX_WORDS = 128

#: Compiled kernels kept per process.  Keyed by the (hashable, frozen)
#: ``ReducedFunction`` itself, so any two queries that reduce to the
#: same DNF — across indexes and across partitions — share one kernel.
COMPILE_CACHE_SIZE = 256

_scratch_local = threading.local()

#: A term's literals split by sign: (positive plane rows, negated
#: plane rows).  The term is ``AND(pos) & ~OR(neg)``.
Literals = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _scratch(nwords: int, rows: int) -> np.ndarray:
    """A reusable per-thread ``(rows, nwords)`` ``uint64`` buffer.

    Thread-local so concurrent partitions in
    :class:`~repro.shard.executor.ParallelExecutor` never share a
    buffer; bounded so mixed vector lengths cannot grow it forever.
    """
    pool: Optional[Dict[int, np.ndarray]]
    pool = getattr(_scratch_local, "buffers", None)
    if pool is None:
        pool = {}
        _scratch_local.buffers = pool
    buffer = pool.get(nwords)
    if buffer is None or len(buffer) < rows:
        if len(pool) >= 8:
            pool.clear()
        buffer = np.empty((rows, nwords), dtype=np.uint64)
        pool[nwords] = buffer
    return buffer[:rows]


def _split(literals: Sequence[Tuple[int, bool]]) -> Literals:
    """``(plane, positive)`` pairs -> (positive rows, negated rows)."""
    return (
        tuple(i for i, positive in literals if positive),
        tuple(i for i, positive in literals if not positive),
    )


def _term_words(
    matrix: Union[np.ndarray, Sequence[np.ndarray]],
    literals: Literals,
    out: np.ndarray,
    spare: np.ndarray,
) -> np.ndarray:
    """``AND(pos) & ~OR(neg)`` over matrix rows, into ``out``.

    A lone positive literal is returned as the matrix row itself (no
    copy).  ``spare`` holds the OR of the negated rows.
    """
    pos, neg = literals
    if not neg:
        if len(pos) == 1:
            return matrix[pos[0]]
        np.bitwise_and(matrix[pos[0]], matrix[pos[1]], out=out)
        for row in pos[2:]:
            np.bitwise_and(out, matrix[row], out=out)
        return out
    nor = spare if pos else out
    if len(neg) == 1:
        np.invert(matrix[neg[0]], out=nor)
    else:
        np.bitwise_or(matrix[neg[0]], matrix[neg[1]], out=nor)
        for row in neg[2:]:
            np.bitwise_or(nor, matrix[row], out=nor)
        np.invert(nor, out=nor)
    if pos:
        np.bitwise_and(matrix[pos[0]], nor, out=out)
        for row in pos[1:]:
            np.bitwise_and(out, matrix[row], out=out)
    return out


def _term_runs(
    planes: CompressedPlaneSet, literals: Literals
) -> WordAlignedBitmap:
    """The run-strategy twin of :func:`_term_words`; stops reading a
    term's literals once its accumulator is an all-zero fill."""
    pos, neg = literals
    acc: Optional[WordAlignedBitmap] = None
    for row in pos:
        plane = planes.plane(row)
        acc = plane if acc is None else acc & plane
        if acc.is_zero():
            return acc
    if neg:
        nor = planes.plane(neg[0])
        for row in neg[1:]:
            nor = nor | planes.plane(row)
        acc = ~nor if acc is None else acc & ~nor
    assert acc is not None
    return acc


class CompiledKernel:
    """A reduced retrieval function compiled to a word-level plan.

    The plan is computed once (plane rows and signs per term, factored
    common literals, gather index arrays) and is immutable afterwards,
    so a single kernel may be shared freely across threads and across
    partitions.
    """

    __slots__ = (
        "function",
        "_constant",
        "_access_order",
        "_common",
        "_terms",
        "_negated",
        "_table_terms",
        "_loop_table",
        "_flat",
        "_bounds",
    )

    def __init__(self, function: ReducedFunction) -> None:
        self.function = function

        # Constant folding — mirrors evaluate_dnf's early exits, which
        # return without touching any vector.
        self._constant: Optional[bool] = None
        if function.is_false:
            self._constant = False
        elif any(term.is_constant_true() for term in function.terms):
            self._constant = True
        terms = function.terms if self._constant is None else ()

        # The exact fetch order evaluate_dnf performs: every term's
        # cared variables, ascending, term by term.  Replayed verbatim
        # into the caller's AccessCounter for c_e parity.
        variables = [term.variables() for term in terms]
        self._access_order = tuple(i for vs in variables for i in vs)

        # One (plane, positive) literal tuple per term.
        literal_sets = [
            tuple((i, bool((term.bits >> i) & 1)) for i in vs)
            for term, vs in zip(terms, variables)
        ]

        # Common-literal factoring: a literal present in every term is
        # AND-ed into the result once, after the OR over the residues.
        common = set.intersection(*map(set, literal_sets or [()]))
        self._common = _split(sorted(common))
        residues = [
            [lit for lit in literals if lit not in common]
            for literals in literal_sets
        ]
        # An empty residue means that term *is* the common conjunction
        # (a single term always is), so the OR over residues is
        # constant true and the result is the common term alone.
        self._terms: Tuple[Literals, ...] = ()
        if len(residues) > 1 and all(residues):
            self._terms = tuple(_split(r) for r in residues)

        # The residue terms over a row table: the matrix rows, then the
        # complement of each negated plane at row ``width + j``, built
        # per evaluation, so every term is a plain AND chain.
        negated = sorted({i for _, neg in self._terms for i in neg})
        slot = {i: function.width + j for j, i in enumerate(negated)}
        self._negated = np.asarray(negated, dtype=np.intp)
        self._table_terms = tuple(
            (pos + tuple(slot[i] for i in neg), ())
            for pos, neg in self._terms
        )
        # The loop strategy uses the table only when more terms carry
        # a negated literal than there are negated planes: only then
        # does one invert per plane cost fewer passes than De Morgan's
        # one invert per term (benchmarks/bench_kernel_negation.py
        # times both paths on each side of this rule).
        self._loop_table = len(negated) < sum(
            1 for _, neg in self._terms if neg
        )

        # Gather-strategy plan: every residue literal's table row
        # flattened plus the start offset of each term, feeding
        # bitwise_and.reduceat.
        flat: List[int] = []
        bounds: List[int] = []
        for rows, _ in self._table_terms:
            bounds.append(len(flat))
            flat.extend(rows)
        self._flat = np.asarray(flat, dtype=np.intp)
        self._bounds = np.asarray(bounds, dtype=np.intp)

    # ------------------------------------------------------------------
    def record_accesses(self, counter: AccessCounter) -> None:
        """Replay the tree evaluator's vector fetch sequence.

        After this, ``counter.distinct_accesses`` and ``counter.reads``
        equal what :func:`~repro.boolean.evaluator.evaluate_dnf` would
        have recorded for the same function.
        """
        counter.touched.update(self._access_order)
        counter.reads += len(self._access_order)

    @property
    def is_constant(self) -> bool:
        """True when the kernel folds to a constant result."""
        return self._constant is not None

    def evaluate(
        self,
        planes: PlaneSnapshot,
        counter: Optional[AccessCounter] = None,
    ) -> BitVector:
        """Evaluate against a plane snapshot, returning a fresh vector.

        Accepts a packed :class:`PlaneSet`, a mapped one or a
        :class:`~repro.kernels.runs.CompressedPlaneSet`; the same plan
        (constant fold, factored commons, access order) drives all
        three, so results and ``c_e`` accounting are bit-identical.
        """
        if planes.width != self.function.width:
            raise InvalidArgumentError(
                f"plane set width {planes.width} != function width "
                f"{self.function.width}"
            )
        if counter is not None:
            self.record_accesses(counter)

        nbits = planes.nbits
        if self._constant is False:
            return BitVector(nbits)
        if self._constant is True:
            return BitVector.ones(nbits)

        nwords = planes.nwords
        if nwords == 0:
            return BitVector(nbits)
        if isinstance(planes, CompressedPlaneSet):
            return self._evaluate_runs(planes)

        matrix = planes.matrix
        negated = len(self._negated)
        gather = len(self._terms) >= 2 and nwords <= GATHER_MAX_WORDS
        if gather:
            # The gather's row table: the matrix, then the complements.
            extra = planes.width + negated if negated else 0
        else:
            extra = self._loop_table * negated
        scratch = _scratch(nwords, 2 + extra)
        if gather:
            words = self._evaluate_gather(matrix, scratch[2:])
        else:
            words = self._evaluate_loop(matrix, scratch)
        if self._terms and any(self._common):
            common = _term_words(matrix, self._common, scratch[0], scratch[1])
            np.bitwise_and(words, common, out=words)

        # Complemented rows set the bits past nbits: mask them once.
        words[-1] &= tail_mask(nbits)
        return BitVector._from_words(words, nbits)

    # ------------------------------------------------------------------
    def _evaluate_loop(
        self, matrix: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """Per-term loop: scratch buffers, in-place AND/OR only."""
        result = np.empty_like(scratch[0])
        # All literals common: the result is their term alone.
        terms = self._terms or (self._common,)
        if self._loop_table:
            complements = scratch[2:]
            for j, i in enumerate(self._negated):
                np.invert(matrix[i], out=complements[j])
            matrix = [*matrix, *complements]
            terms = self._table_terms
        words = _term_words(matrix, terms[0], result, scratch[1])
        if words is not result:
            result[:] = words
        for literals in terms[1:]:
            words = _term_words(matrix, literals, scratch[0], scratch[1])
            np.bitwise_or(result, words, out=result)
        return result

    def _evaluate_runs(self, planes: CompressedPlaneSet) -> BitVector:
        """Run strategy: combine word-aligned runs segment-at-a-time.

        A term accumulator that collapses to an all-zero fill stops
        reading that term's remaining literals, and the OR loop stops
        once every word is a one-fill; literal blocks fall back to the
        vectorised word operations inside the segment merge
        (:mod:`repro.bitmap.wah`).  The result is materialised — and
        its tail masked — exactly once at the end.
        """
        acc: Optional[WordAlignedBitmap] = None
        for literals in self._terms:
            term = _term_runs(planes, literals)
            acc = term if acc is None else acc | term
            if acc.is_ones_words():
                break
        if any(self._common) and (acc is None or not acc.is_zero()):
            common = _term_runs(planes, self._common)
            acc = common if acc is None else acc & common
        assert acc is not None
        words = acc.to_words()
        words[-1] &= tail_mask(planes.nbits)
        return BitVector._from_words(words, planes.nbits)

    def _evaluate_gather(
        self, matrix: np.ndarray, table: np.ndarray
    ) -> np.ndarray:
        """Gather strategy: a handful of numpy calls for the whole DNF.

        With negated literals the rows are gathered from ``table``
        (scratch), filled with the matrix rows and then each negated
        plane's complement.
        """
        if len(self._negated):
            width = len(matrix)
            table[:width] = matrix
            np.invert(matrix[self._negated], out=table[width:])
            matrix = table
        gathered = matrix[self._flat]
        terms = np.bitwise_and.reduceat(gathered, self._bounds, axis=0)
        result: np.ndarray = np.bitwise_or.reduce(terms, axis=0)
        return result

    def __repr__(self) -> str:
        if self._constant is not None:
            return f"CompiledKernel(constant={self._constant})"
        return (
            f"CompiledKernel(terms={len(self.function.terms)}, "
            f"width={self.function.width}, "
            f"common={sum(map(len, self._common))})"
        )


_compile_cache: LRUCache[ReducedFunction, CompiledKernel] = LRUCache(
    COMPILE_CACHE_SIZE, metrics_prefix="kernels.compile_cache"
)


def compile_function(function: ReducedFunction) -> CompiledKernel:
    """Compile ``function``, reusing a cached kernel when available.

    Keyed by the frozen ``ReducedFunction`` value, so identical DNFs —
    e.g. the same predicate reduced by 16 partitions sharing one
    mapping — compile exactly once per process.
    """
    cached = _compile_cache.get(function)
    if cached is not None:
        return cached
    kernel = CompiledKernel(function)
    _compile_cache.put(function, kernel)
    return kernel


def compile_cache_stats() -> Tuple[int, int, int]:
    """(hits, misses, current size) of the process compile cache."""
    return (
        _compile_cache.hits,
        _compile_cache.misses,
        len(_compile_cache),
    )


def clear_compile_cache() -> None:
    """Drop all cached kernels (tests and benchmarks)."""
    _compile_cache.clear()
