"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-hierarchies mirror
the package layout: bitmap-level errors, encoding errors, index errors,
storage errors and query errors.
"""

from __future__ import annotations

from typing import Sequence


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidArgumentError(ReproError, ValueError):
    """A caller-supplied argument violates a documented precondition.

    Inherits :class:`ValueError` so call sites written against the
    builtin keep working, while ``except ReproError`` at an API
    boundary still catches it (ebilint EBI205).
    """


class BitmapError(ReproError):
    """Errors from the bit-vector substrate (``repro.bitmap``)."""


class LengthMismatchError(BitmapError):
    """Two bit vectors of different lengths were combined."""

    def __init__(self, left: int, right: int) -> None:
        super().__init__(
            f"bit vectors have different lengths: {left} != {right}"
        )
        self.left = left
        self.right = right


class EncodingError(ReproError):
    """Errors from mapping tables and encodings (``repro.encoding``)."""


class DomainError(EncodingError):
    """A value is not part of the encoded attribute domain."""


class CodeWidthError(EncodingError):
    """A code does not fit into the configured number of bits."""


class DuplicateValueError(EncodingError):
    """A value was inserted twice into a one-to-one mapping."""


class DuplicateCodeError(EncodingError):
    """A code was assigned to two different values."""


class IndexError_(ReproError):
    """Errors from index structures (``repro.index``).

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class IndexBuildError(IndexError_):
    """An index could not be built over the given column."""


class UnsupportedPredicateError(IndexError_):
    """An index was asked to evaluate a predicate type it cannot serve."""


class CorruptIndexError(IndexBuildError):
    """A persisted index payload failed an integrity or structural check.

    Raised by :mod:`repro.index.serialization` when a payload is
    truncated, fails a CRC, or decodes into an inconsistent structure,
    and by :mod:`repro.index.verify` when a live index violates one of
    the paper's invariants.  ``offset`` (byte position in the payload)
    and ``field`` (the header/section that failed) locate the damage
    when known.
    """

    def __init__(
        self,
        message: str,
        offset: int | None = None,
        field: str | None = None,
    ) -> None:
        detail = message
        if field is not None:
            detail += f" [field: {field}]"
        if offset is not None:
            detail += f" [offset: {offset}]"
        super().__init__(detail)
        self.offset = offset
        self.field = field


class StorageError(ReproError):
    """Errors from the simulated paged storage (``repro.storage``)."""


class PageOverflowError(StorageError):
    """More bytes were written to a page than its capacity."""


class InvalidPageError(StorageError):
    """A page id does not exist in the pager."""


class ChecksumError(StorageError):
    """A page's committed image no longer matches its CRC32 checksum.

    Signals at-rest corruption (bit rot) or a torn write: the checksum
    was computed for the full intended image but only part of it is
    present.
    """


class IOFaultError(StorageError):
    """An (injected or simulated) I/O operation failed."""


class TransientIOError(IOFaultError):
    """An I/O fault that may succeed when the operation is retried."""


class PermanentIOError(IOFaultError):
    """An I/O fault that will not go away on retry (media failure)."""


class RetryExhaustedError(StorageError):
    """A retried I/O operation kept failing past the attempt budget."""

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class TableError(ReproError):
    """Errors from the table substrate (``repro.table``)."""


class SchemaError(TableError):
    """A star-schema constraint was violated."""


class QueryError(ReproError):
    """Errors from the query layer (``repro.query``)."""


class PlanningError(QueryError):
    """The planner could not produce a plan for a query."""


class QueryTimeoutError(QueryError):
    """A query exceeded its ``QueryOptions.timeout_seconds`` deadline.

    The executor stops collecting partition results and abandons the
    in-flight ones (their worker pool is shut down without waiting);
    no partial result is returned.
    """

    def __init__(self, message: str, timeout_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.timeout_seconds = timeout_seconds


class ServingError(ReproError):
    """Errors from the query-serving tier (``repro.serving``)."""


class AdmissionError(ServingError):
    """A request was refused at admission, before any execution."""


class ServerOverloadedError(AdmissionError):
    """The bounded request queue was full and the admission policy
    chose to refuse the request (``reject``) or evict another
    (``shed`` — the evicted request observes this error too)."""


class QuotaExceededError(AdmissionError):
    """The request's tenant is over its configured request quota."""


class ServerClosedError(ServingError):
    """A request arrived at (or was still queued in) a server that has
    been shut down."""


class RequestTimeoutError(ServingError):
    """A served request missed its deadline — queue wait plus
    execution exceeded ``QueryOptions.timeout_seconds``."""


class BenchError(ReproError):
    """Errors from the benchmark harness (``repro.bench``)."""


class BenchSchemaError(BenchError):
    """A ``BENCH_*.json`` payload violated the published schema.

    Carries the individual violations so callers can report all of
    them at once.
    """

    def __init__(
        self, message: str, violations: Sequence[str] = ()
    ) -> None:
        super().__init__(message)
        self.violations = list(violations)
