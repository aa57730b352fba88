"""``QueryOptions`` — the one way to configure a query.

Every per-call knob of :meth:`repro.database.Database.query`,
``query_many`` and the partition-parallel executor
(worker count, tracing, tenant id, timeout, the result cache, ...)
travels in one keyword-only dataclass, so a new knob widens no
signature.

Example::

    >>> opts = QueryOptions(workers=2, tenant="acme")
    >>> opts.workers, opts.tenant
    (2, 'acme')
    >>> QueryOptions(trace=True).replace(use_cache=True).trace
    True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.errors import InvalidArgumentError, QueryTimeoutError


@dataclass(frozen=True)
class QueryOptions:
    """Keyword-only bundle of every per-query knob.

    Parameters
    ----------
    workers:
        Worker count for partition-parallel execution; ``None`` uses
        the executor's default.
    trace:
        Attach a :class:`~repro.obs.trace.QueryTrace` to the result.
        Traced queries bypass the result cache (a cached trace would
        describe work that did not happen).
    timeout_seconds:
        Deadline for the call.  The executors check it before
        execution and between units of work — before every partition
        and, inside one, before every batch member — and raise :class:`~repro.errors.QueryTimeoutError` once
        it has passed; no partial result escapes.
        :class:`repro.serving.Server` also fails a request whose
        deadline passed while it was queued and passes the remainder
        on to the query.
    snapshot_rows:
        Consistency pin: evaluate against the first ``snapshot_rows``
        rows only, as :func:`repro.query.snapshot.pinned_rows` would.
        ``None`` pins nothing (plain reads see the live table).
    tenant:
        Workload-accounting identity.  Stamped onto the result and
        used by the serving tier for quotas and per-tenant metrics.
    use_cache:
        Serve from / fill the database's result cache (keyed on the
        canonicalised retrieval expression; see
        :class:`repro.serving.result_cache.ResultCache`).
    prefetch:
        Out-of-core pipelining (``docs/out_of_core.md``): when a
        :class:`~repro.shard.residency.ResidencyManager` is attached,
        the streaming executor warms the next partition's spilled
        plane file while the current one evaluates.  ``True`` (the
        default) enables it whenever residency is managed; ``False``
        disables the prefetch for this query (ablation: measures raw
        fault-in latency).
    """

    workers: Optional[int] = None
    trace: bool = False
    timeout_seconds: Optional[float] = None
    snapshot_rows: Optional[int] = None
    tenant: Optional[str] = None
    use_cache: bool = False
    prefetch: bool = True

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise InvalidArgumentError(
                f"worker count must be >= 1, got {self.workers}"
            )
        if (
            self.timeout_seconds is not None
            and self.timeout_seconds <= 0
        ):
            raise InvalidArgumentError(
                f"timeout_seconds must be > 0, got "
                f"{self.timeout_seconds}"
            )
        if self.snapshot_rows is not None and self.snapshot_rows < 0:
            raise InvalidArgumentError(
                f"snapshot_rows must be >= 0, got {self.snapshot_rows}"
            )

    def replace(self, **changes: Any) -> "QueryOptions":
        """A copy with the given fields changed (validation re-runs)."""
        return replace(self, **changes)


#: The default options — what a bare ``db.query(table, predicate)``
#: runs with.
DEFAULT_OPTIONS = QueryOptions()


def start_deadline(opts: QueryOptions) -> Optional[float]:
    """The monotonic-clock instant ``opts``' timeout expires, counted
    from now; ``None`` without a timeout."""
    if opts.timeout_seconds is None:
        return None
    return time.monotonic() + opts.timeout_seconds


def check_deadline(deadline: Optional[float], opts: QueryOptions) -> None:
    """Raise :class:`~repro.errors.QueryTimeoutError` once ``deadline``
    (from :func:`start_deadline`) has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise QueryTimeoutError(
            f"query exceeded its {opts.timeout_seconds}s deadline",
            timeout_seconds=opts.timeout_seconds or 0.0,
        )


__all__ = [
    "DEFAULT_OPTIONS",
    "QueryOptions",
    "check_deadline",
    "start_deadline",
]
