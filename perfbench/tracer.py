"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public functions at the name each caller
looks up (a class attribute or a module global) with a wrapper that
records a :class:`Span`, and puts every original object back on
exit.  Nothing inside ``src/`` is changed; with the tracer off the
program runs exactly as shipped.

One request is in flight at a time (a closed loop with one client).
Spans opened on a thread with no open span of its own (the serving
worker, the prefetch helper) are attached to the request's open span
named in :data:`ATTACH`; prefetch spans are *helper* spans, off the
blocking chain, so they are left out of their parent's self time and
of the reconciliation sum.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, class or None for a module global, attribute, span name).
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serving.server", "Server", "query", "Server.query"),
    ("repro.database", "Database", "query", "Database.query"),
    ("repro.database", "Database", "append_rows", "Database.append_rows"),
    ("repro.database", None, "cache_key", "cache_key"),
    ("repro.serving.result_cache", "ResultCache", "lookup", "ResultCache.lookup"),
    ("repro.serving.result_cache", "ResultCache", "store", "ResultCache.store"),
    ("repro.shard.executor", "ParallelExecutor", "execute_many",
     "ParallelExecutor.execute_many"),
    ("repro.shard.executor", None, "run_partition_batch", "run_partition_batch"),
    ("repro.shard.residency", "ResidencyManager", "acquire",
     "ResidencyManager.acquire"),
    ("repro.shard.residency", "ResidencyManager", "prefetch",
     "ResidencyManager.prefetch"),
    ("repro.query.planner", "Planner", "plan", "Planner.plan"),
    ("repro.query.executor", "Executor", "execute", "Executor.execute"),
    ("repro.index.base", "Index", "lookup", "Index.lookup"),
    ("repro.index.encoded_bitmap", "EncodedBitmapIndex", "reduced_function",
     "EncodedBitmapIndex.reduced_function"),
    ("repro.index.encoded_bitmap", "EncodedBitmapIndex", "on_append",
     "EncodedBitmapIndex.on_append"),
    ("repro.index.encoded_bitmap", "EncodedBitmapIndex", "compact",
     "EncodedBitmapIndex.compact"),
    ("repro.boolean.reduction", None, "reduce_values", "reduce_values"),
    ("repro.index.encoded_bitmap", None, "reduce_values", "reduce_values"),
    ("repro.index.encoded_bitmap", None, "compile_function", "compile_function"),
    ("repro.kernels.compiler", "CompiledKernel", "evaluate",
     "CompiledKernel.evaluate"),
    ("repro.query.executor", "QueryResult", "row_ids", "QueryResult.row_ids"),
    ("repro.query.executor", "QueryResult", "count", "QueryResult.count"),
    ("repro.table.table", "Table", "append_rows", "Table.append_rows"),
)

#: Where a span opened on a thread with an empty stack belongs: the
#: most recently opened span of the request with one of these names.
ATTACH = {
    "Database.query": ("Server.query",),
    "ResidencyManager.prefetch": ("ParallelExecutor.execute_many",),
}

#: Spans that run beside the blocking chain rather than on it.
HELPERS = frozenset({"ResidencyManager.prefetch"})


class Span:
    """One call into a layer: name, interval, parent and request."""

    __slots__ = ("name", "start", "end", "parent", "request", "helper", "info")

    def __init__(
        self, name: str, parent: Optional["Span"], request: int, helper: bool
    ) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.helper = helper
        self.start = 0.0
        self.end = 0.0
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(module: str, owner: Optional[str]) -> Any:
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


# -- probes: public state read around selected calls --------------------
def _kernel_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any], _state: Any) -> int:
    """Computed plane bytes one kernel evaluation moved."""
    planes = args[1] if len(args) > 1 else kwargs["planes"]
    counter = args[2] if len(args) > 2 else kwargs.get("counter")
    if counter is None:
        return 0
    words = -(-int(planes.nbits) // 64)
    return counter.distinct_accesses * words * 8


def _faults_before(args: Tuple[Any, ...], _kwargs: Dict[str, Any]) -> int:
    return args[0].faults


def _acquire_info(args: Tuple[Any, ...], _kwargs: Dict[str, Any], before: int) -> Tuple[int, bool]:
    return args[1], args[0].faults > before


def _prefetches_before(args: Tuple[Any, ...], _kwargs: Dict[str, Any]) -> int:
    return args[0].prefetches


def _prefetch_info(args: Tuple[Any, ...], _kwargs: Dict[str, Any], before: int) -> Tuple[int, bool]:
    return args[1], args[0].prefetches > before


PROBES: Dict[str, Tuple[Optional[Callable[..., Any]], Callable[..., Any]]] = {
    "CompiledKernel.evaluate": (None, _kernel_bytes),
    "ResidencyManager.acquire": (_faults_before, _acquire_info),
    "ResidencyManager.prefetch": (_prefetches_before, _prefetch_info),
}


class Tracer:
    """Installs the wrappers and collects spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: List[Span] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._open: List[Span] = []
        self._root: Optional[Span] = None
        #: What every target held before the first install.
        self._expected = [
            vars(resolve(module, owner))[attr]
            for module, owner, attr, _name in TARGETS
        ]

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        for module, owner_name, attr, name in TARGETS:
            owner = resolve(module, owner_name)
            original = vars(owner)[attr]
            if not callable(original):
                raise TypeError(f"{module}.{owner_name}.{attr} is not a function")
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def check_restored(self) -> None:
        """Raise unless every target holds its original object again."""
        for (module, owner, attr, _name), original in zip(
            TARGETS, self._expected
        ):
            if vars(resolve(module, owner))[attr] is not original:
                raise RuntimeError(f"{module}.{owner}.{attr} was not restored")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(self, original: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        before, after = PROBES.get(name, (None, None))

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer._root is None:
                return original(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = tracer._open_span(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close_span(span)
                if after is not None:
                    span.info = after(args, kwargs, state)

        return wrapper

    # -- requests ----------------------------------------------------------
    def begin(self, request: int, name: str) -> None:
        """Open the root span of one client operation."""
        root = Span(name, None, request, False)
        self._tls.stack = [root]
        self._root = root
        root.start = time.perf_counter()

    def end(self) -> Span:
        root = self._root
        assert root is not None
        root.end = time.perf_counter()
        self._root = None
        self._tls.stack = []
        self.roots.append(root)
        return root

    def _open_span(self, name: str) -> Span:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        root = self._root
        assert root is not None
        if stack:
            parent = stack[-1]
            helper = parent.helper
        else:
            parent = self._attach(name, root)
            helper = name in HELPERS or parent.helper
        span = Span(name, parent, root.request, helper)
        stack.append(span)
        with self._lock:
            self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _close_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._tls.stack.pop()
        with self._lock:
            self._open.remove(span)
        self.spans.append(span)

    def _attach(self, name: str, root: Span) -> Span:
        wanted = ATTACH.get(name)
        with self._lock:
            for span in reversed(self._open):
                if wanted is None or span.name in wanted:
                    return span
        return root


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def blocking_children(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Children of each span that sit on its blocking chain."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        parent = span.parent
        if parent is not None and not (span.helper and not parent.helper):
            children[id(parent)].append(span)
    return children


def self_times(spans: List[Span], roots: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span), keyed by ``id(span)``."""
    everything = list(spans) + list(roots)
    children = blocking_children(everything)
    out: Dict[int, float] = {}
    for span in everything:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())
            if min(c.end, span.end) > max(c.start, span.start)
        ]
        out[id(span)] = span.duration - _union_length(clipped)
    return out


def reconcile(spans: List[Span], roots: List[Span], selfs: Dict[int, float]) -> float:
    """Largest per-request gap between the traced end-to-end time and
    the sum of blocking-chain self times (root self time included)."""
    per_request: Dict[int, float] = defaultdict(float)
    for span in list(spans) + list(roots):
        if not span.helper:
            per_request[span.request] += selfs[id(span)]
    worst = 0.0
    for root in roots:
        worst = max(worst, abs(per_request[root.request] - root.duration))
    return worst


def overlap(span: Span, others: Iterable[Span]) -> float:
    """Seconds of ``span`` covered by the union of ``others``."""
    clipped = [
        (max(o.start, span.start), min(o.end, span.end))
        for o in others
        if min(o.end, span.end) > max(o.start, span.start)
    ]
    return _union_length(clipped)
