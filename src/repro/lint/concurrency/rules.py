"""EBI301–EBI304: the concurrency-discipline rule family.

These are :class:`~repro.lint.core.ProgramRule` subclasses — they run
once per lint invocation over the whole-program
:class:`~repro.lint.concurrency.model.ProgramModel` rather than once
per file, because every property they enforce is cross-module: worker
reachability flows from ``ParallelExecutor`` through virtual calls
into the index layer, lock-order edges connect classes that never
import each other, and ``_data_version`` credit crosses method
boundaries.

Rule map (rationale details in ``docs/concurrency.md``):

* **EBI301** shared-state discipline — attributes mutated on
  worker-reachable paths must be lock-guarded, thread-local, or
  declared ``# ebi: shared-readonly`` (verified never written after
  construction).
* **EBI302** invalidation protocol — methods mutating versioned state
  must bump ``_data_version`` on every path (branch- and
  exception-aware); the version must be accessed under the same lock
  as the caches it keys; no foreign writes to another object's
  version.
* **EBI303** lock hygiene — no blocking I/O / pager traffic / metrics
  callbacks while holding a lock, no non-reentrant re-acquisition,
  and the global lock-order graph must be acyclic.
* **EBI304** accounting soundness — evaluator/kernel code must route
  plane reads through counted accessors so the measured ``c_e`` can
  never drift from real access counts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.concurrency.model import (
    EFFECT_PAGER,
    LockId,
    MethodInfo,
    ProgramModel,
    VersionAccess,
)
from repro.lint.core import (
    Finding,
    ProgramRule,
    Severity,
    register_rule,
)

#: Accessor call names that count plane/bitmap reads (EBI304).
_COUNTED_ACCESSORS = frozenset({"record", "record_accesses", "merge"})

#: Subscripted containers treated as raw plane/bitmap storage.
_RAW_PLANE_NAMES = frozenset({"matrix", "planes"})


def _lock_label(lock: LockId) -> str:
    """``("repro.cache:LRUCache", "_lock")`` -> ``LRUCache._lock``."""
    owner = lock[0].rsplit(":", 1)[-1]
    return f"{owner}.{lock[1]}"


def _is_reentrant(model: ProgramModel, lock: LockId) -> bool:
    cls = model.classes.get(lock[0])
    if cls is None:
        return False
    info = cls.attrs.get(lock[1])
    return info is not None and info.reentrant


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


# ----------------------------------------------------------------------
# EBI301 — shared-state discipline
# ----------------------------------------------------------------------
@register_rule
class SharedStateRule(ProgramRule):
    id = "EBI301"
    name = "shared-state-discipline"
    severity = Severity.ERROR
    description = (
        "attribute written on a worker-reachable path without a held "
        "lock, thread-local storage, or a verified shared-readonly "
        "declaration"
    )
    rationale = (
        "Theorem 2.1 well-definedness assumes retrieval reads a "
        "consistent mapping/vector state; ParallelExecutor workers "
        "share index instances, so an unguarded mutation can "
        "interleave with a plane scan and decode rows against the "
        "wrong encoding. Every shared write must be lock-guarded, "
        "confined to thread-local scratch, or on state the analyzer "
        "proves immutable after construction (# ebi: shared-readonly)."
    )

    def check_program(self, model: ProgramModel) -> Iterator[Finding]:
        for method in model.all_methods():
            cls = method.cls
            if cls is None:
                continue
            in_init = method.name in cls.init_closure
            worker = (
                model.is_worker_reachable(method)
                and cls.qualname not in model.worker_constructed
            )
            worker_held = model.worker_held.get(
                method.qualname, frozenset()
            )
            for write in method.writes:
                attr = cls.find_attr(write.attr)
                if attr is not None and attr.shared_readonly:
                    if not in_init:
                        yield self.program_finding(
                            method.ctx,
                            write.node,
                            f"attribute {write.attr!r} is declared "
                            "# ebi: shared-readonly but is written in "
                            f"{method.name}(), outside construction",
                        )
                    continue
                if not worker or in_init:
                    continue
                if attr is not None and (
                    attr.is_lock or attr.thread_local
                ):
                    continue
                if write.held_locks or worker_held:
                    continue
                yield self.program_finding(
                    method.ctx,
                    write.node,
                    f"attribute {write.attr!r} written in "
                    f"{method.name}() on a worker-reachable path "
                    "without a held lock (guard with the instance "
                    "lock, make it thread-local, or declare it "
                    "# ebi: shared-readonly)",
                )


# ----------------------------------------------------------------------
# EBI302 — invalidation protocol
# ----------------------------------------------------------------------
class _DirtyWalker:
    """Branch/exception-aware walk: versioned mutation -> bump check.

    State is a single boolean — *dirty* means a versioned attribute
    has been mutated on the current path with no ``_data_version``
    bump yet.  ``Return``/``Raise`` while dirty, or falling off the
    end dirty, is a protocol violation.  A ``try`` whose ``finally``
    unconditionally bumps protects every path through its body.
    """

    def __init__(self, method: MethodInfo, versioned: Set[str]) -> None:
        self.method = method
        self.violations: List[Tuple[ast.AST, str]] = []
        self._suppress = 0
        self._mutation_nodes = {
            id(write.node): write.attr
            for write in method.writes
            if write.attr in versioned
        }

    # -- public --------------------------------------------------------
    def run(self) -> List[Tuple[ast.AST, str]]:
        node = self.method.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        dirty = self._walk_body(node.body, False)
        if dirty:
            self.violations.append(
                (
                    node,
                    f"{self.method.name}() mutates versioned state "
                    "but can fall through without bumping "
                    "_data_version",
                )
            )
        return self.violations

    # -- walk ----------------------------------------------------------
    def _walk_body(
        self, body: Sequence[ast.stmt], dirty: bool
    ) -> bool:
        for stmt in body:
            dirty = self._walk_stmt(stmt, dirty)
        return dirty

    def _walk_stmt(self, stmt: ast.stmt, dirty: bool) -> bool:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            dirty = dirty or self._mutates(stmt)
            if dirty:
                verb = (
                    "returns"
                    if isinstance(stmt, ast.Return)
                    else "raises"
                )
                self._report(
                    stmt,
                    f"{self.method.name}() {verb} after mutating "
                    "versioned state without bumping _data_version",
                )
            return dirty
        if isinstance(stmt, ast.If):
            then_dirty = self._walk_body(stmt.body, dirty)
            else_dirty = self._walk_body(stmt.orelse, dirty)
            return then_dirty or else_dirty
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            loop_dirty = self._walk_body(stmt.body, dirty)
            after = dirty or loop_dirty  # zero-or-more iterations
            return self._walk_body(stmt.orelse, after)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                if self._mutates(item.context_expr):
                    dirty = True
            return self._walk_body(stmt.body, dirty)
        if isinstance(stmt, ast.Try):
            protected = any(
                self._is_bump(s) for s in stmt.finalbody
            )
            if protected:
                self._suppress += 1
            body_dirty = self._walk_body(stmt.body, dirty)
            handler_dirty = False
            for handler in stmt.handlers:
                handler_dirty = (
                    self._walk_body(
                        handler.body, dirty or body_dirty
                    )
                    or handler_dirty
                )
            else_dirty = self._walk_body(stmt.orelse, body_dirty)
            if protected:
                self._suppress -= 1
            merged = body_dirty or handler_dirty or else_dirty
            merged = self._walk_body(stmt.finalbody, merged)
            if protected:
                return False
            return merged
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return dirty
        # Simple statement: mutation and/or bump.
        if self._mutates(stmt):
            dirty = True
        if self._is_bump(stmt):
            dirty = False
        elif self._is_dirtying_call(stmt):
            dirty = True
        return dirty

    # -- classification ------------------------------------------------
    def _mutates(self, node: ast.AST) -> bool:
        return any(
            id(sub) in self._mutation_nodes for sub in ast.walk(node)
        )

    def _is_bump(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.AugAssign):
            return self._is_version_target(stmt.target)
        if isinstance(stmt, ast.Assign):
            return any(
                self._is_version_target(t) for t in stmt.targets
            )
        if isinstance(stmt, ast.Expr):
            callee = self._self_callee(stmt.value)
            return (
                callee is not None
                and callee.version_effect == "bumps"
            )
        if isinstance(stmt, ast.With):
            return any(self._is_bump(s) for s in stmt.body)
        return False

    def _is_dirtying_call(self, stmt: ast.stmt) -> bool:
        if not isinstance(stmt, ast.Expr):
            return False
        callee = self._self_callee(stmt.value)
        return callee is not None and callee.version_effect == "dirties"

    def _self_callee(self, expr: ast.expr) -> Optional[MethodInfo]:
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if not (
            isinstance(func, ast.Attribute) and _is_self(func.value)
        ):
            return None
        cls = self.method.cls
        if cls is None:
            return None
        return cls.resolve_method(func.attr)

    @staticmethod
    def _is_version_target(target: ast.expr) -> bool:
        # Either epoch half discharges the obligation: ``_data_version``
        # for plane/mapping identity changes, ``_delta_seq`` for
        # arrival-order delta mutations (read fresh on every lookup,
        # so no cache can go stale).
        return (
            isinstance(target, ast.Attribute)
            and _is_self(target.value)
            and target.attr in ("_data_version", "_delta_seq")
        )

    def _report(self, node: ast.AST, message: str) -> None:
        if self._suppress:
            return
        self.violations.append((node, message))


@register_rule
class InvalidationProtocolRule(ProgramRule):
    id = "EBI302"
    name = "invalidation-protocol"
    severity = Severity.ERROR
    description = (
        "versioned state mutated without a _data_version bump on "
        "every path, or the version accessed outside the lock that "
        "guards its caches"
    )
    rationale = (
        "Derived artifacts (reduced retrieval functions, compiled "
        "kernels, plane snapshots) are cached keyed on _data_version; "
        "the paper's bit-identical c_e accounting and Theorem 2.1 "
        "retrieval correctness both break if a mutation escapes "
        "without a bump — the cache then serves results for a dead "
        "encoding. The bump must cover every branch and exception "
        "path, and version reads must share the cache's lock or the "
        "(version, value) pair can tear."
    )

    def check_program(self, model: ProgramModel) -> Iterator[Finding]:
        for cls in model.classes.values():
            mro = cls.mro()
            all_attr_names = {
                name for ancestor in mro for name in ancestor.attrs
            }
            if "_data_version" not in all_attr_names:
                continue
            versioned = {
                name
                for ancestor in mro
                for name, attr in ancestor.attrs.items()
                if attr.versioned
            }
            has_lock = any(
                attr.is_lock
                for ancestor in mro
                for attr in ancestor.attrs.values()
            )
            for method in cls.methods.values():
                if method.name in cls.init_closure:
                    continue
                if versioned:
                    walker = _DirtyWalker(method, versioned)
                    for node, message in walker.run():
                        yield self.program_finding(
                            method.ctx, node, message
                        )
                if has_lock:
                    yield from self._unlocked_accesses(method)
        yield from self._foreign_writes(model)

    def _unlocked_accesses(
        self, method: MethodInfo
    ) -> Iterator[Finding]:
        for access in method.version_accesses:
            if access.held_locks:
                continue
            yield self.program_finding(
                method.ctx,
                access.node,
                self._unlocked_message(method, access),
            )

    @staticmethod
    def _unlocked_message(
        method: MethodInfo, access: VersionAccess
    ) -> str:
        kind = "written" if access.is_write else "read"
        return (
            f"_data_version {kind} in {method.name}() outside the "
            "instance lock; version and cached value must be "
            "accessed under the same lock"
        )

    def _foreign_writes(
        self, model: ProgramModel
    ) -> Iterator[Finding]:
        for method in model.all_methods():
            for node in ast.walk(method.node):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and target.attr == "_data_version"
                            and not _is_self(target.value)
                        ):
                            yield self.program_finding(
                                method.ctx,
                                target,
                                "foreign write to another object's "
                                "_data_version; invalidation must go "
                                "through a method of the owning "
                                "class so the bump shares its lock",
                            )


# ----------------------------------------------------------------------
# EBI303 — lock hygiene
# ----------------------------------------------------------------------
@register_rule
class LockHygieneRule(ProgramRule):
    id = "EBI303"
    name = "lock-hygiene"
    severity = Severity.ERROR
    description = (
        "blocking I/O, pager traffic, or metrics callbacks inside a "
        "held lock; non-reentrant re-acquisition; or a cycle in the "
        "lock-order graph"
    )
    rationale = (
        "The partition-parallel engine's speedup comes from workers "
        "overlapping pager I/O and kernel evaluation; any blocking "
        "call under a shared lock serialises the engine (and a "
        "metrics callback under a lock re-enters user code that may "
        "take other locks). The statically derived lock-order graph "
        "must be acyclic or two workers can deadlock."
    )

    def check_program(self, model: ProgramModel) -> Iterator[Finding]:
        for method in model.all_methods():
            for acq in method.acquisitions:
                if acq.lock in acq.held_before and not _is_reentrant(
                    model, acq.lock
                ):
                    yield self.program_finding(
                        method.ctx,
                        acq.node,
                        f"re-acquisition of non-reentrant lock "
                        f"{_lock_label(acq.lock)} already held on "
                        "this path (self-deadlock)",
                    )
            for site in method.calls:
                if not site.held_locks:
                    continue
                targets = list(dict.fromkeys(site.targets))
                for target in targets:
                    for lock in sorted(
                        target.acquired_closure & site.held_locks
                    ):
                        if not _is_reentrant(model, lock):
                            yield self.program_finding(
                                method.ctx,
                                site.node,
                                f"call to {target.name}() "
                                "re-acquires non-reentrant lock "
                                f"{_lock_label(lock)} held at the "
                                "call site (self-deadlock)",
                            )
                effects: Set[str] = set(site.direct_effects)
                for target in targets:
                    effects |= target.effects
                lock_name = _lock_label(sorted(site.held_locks)[0])
                for effect in sorted(effects):
                    yield self.program_finding(
                        method.ctx,
                        site.node,
                        f"{effect} inside held lock {lock_name} in "
                        f"{method.name}(); move it outside the "
                        "critical section",
                    )
        yield from self._order_cycles(model)

    def _order_cycles(self, model: ProgramModel) -> Iterator[Finding]:
        graph: Dict[LockId, Set[LockId]] = {}
        for held, acquired in model.lock_edges:
            if held == acquired:
                continue  # re-acquisition is reported above
            graph.setdefault(held, set()).add(acquired)
        seen: Set[LockId] = set()
        reported: Set[Tuple[LockId, LockId]] = set()
        for root in sorted(graph):
            if root in seen:
                continue
            # Iterative DFS with an explicit on-path set.
            path: List[LockId] = []
            on_path: Set[LockId] = set()
            stack: List[Tuple[LockId, Optional[Iterator[LockId]]]] = [
                (root, None)
            ]
            while stack:
                lock, children = stack.pop()
                if children is None:
                    if lock in on_path:
                        continue
                    seen.add(lock)
                    path.append(lock)
                    on_path.add(lock)
                    children = iter(sorted(graph.get(lock, ())))
                advanced = False
                for child in children:
                    if child in on_path:
                        edge = (lock, child)
                        if edge not in reported:
                            reported.add(edge)
                            witness = model.lock_edges.get(edge)
                            if witness is not None:
                                method, node = witness
                                cycle = " -> ".join(
                                    _lock_label(item)
                                    for item in path[
                                        path.index(child) :
                                    ]
                                    + [child]
                                )
                                yield self.program_finding(
                                    method.ctx,
                                    node,
                                    "lock-order cycle: "
                                    f"{cycle} (acquired in "
                                    f"{method.name}())",
                                )
                        continue
                    stack.append((lock, children))
                    stack.append((child, None))
                    advanced = True
                    break
                if not advanced:
                    path.pop()
                    on_path.discard(lock)


# ----------------------------------------------------------------------
# EBI304 — accounting soundness
# ----------------------------------------------------------------------
@register_rule
class AccountingRule(ProgramRule):
    id = "EBI304"
    name = "accounting-soundness"
    severity = Severity.ERROR
    description = (
        "plane/bitmap access in evaluator or kernel code that "
        "bypasses the counted accessors"
    )
    rationale = (
        "The paper's cost model (Definition 2.5, Section 4) is "
        "validated by counting actual bitmap-vector accesses (c_e) "
        "and page reads; an evaluator path that indexes plane "
        "storage directly makes the measured cost drift silently "
        "from real access under refactors, invalidating every "
        "benchmark comparison against the paper's tables."
    )

    def check_program(self, model: ProgramModel) -> Iterator[Finding]:
        callers = self._reverse_graph(model)
        memo: Dict[str, bool] = {}
        for method in model.all_methods():
            module = method.ctx.module or ""
            if module.startswith("repro.query"):
                yield from self._query_layer(method)
            if not (
                module.startswith("repro.kernels")
                or module == "repro.boolean.evaluator"
            ):
                continue
            if (
                "eval" not in method.name
                and method.name != "__call__"
            ):
                continue
            raw = self._raw_accesses(method)
            if not raw:
                continue
            if self._counted_context(
                method, callers, memo, set()
            ):
                continue
            yield self.program_finding(
                method.ctx,
                raw[0],
                f"{method.name}() indexes plane storage directly "
                "with no counted accessor on this path or any "
                "caller; route the read through AccessCounter",
            )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _reverse_graph(
        model: ProgramModel,
    ) -> Dict[str, List[MethodInfo]]:
        callers: Dict[str, List[MethodInfo]] = {}
        for method in model.all_methods():
            for site in method.calls:
                for target in site.targets:
                    callers.setdefault(target.qualname, []).append(
                        method
                    )
        return callers

    @staticmethod
    def _raw_accesses(method: MethodInfo) -> List[ast.AST]:
        raw: List[ast.AST] = []
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Subscript):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            base = node.value
            name: Optional[str] = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name in _RAW_PLANE_NAMES:
                raw.append(node)
        return raw

    @classmethod
    def _is_counted(cls, method: MethodInfo) -> bool:
        node = method.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = {arg.arg for arg in node.args.args}
        params.update(arg.arg for arg in node.args.kwonlyargs)
        if "counter" in params:
            return True
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _COUNTED_ACCESSORS
                ):
                    return True
        return False

    def _counted_context(
        self,
        method: MethodInfo,
        callers: Dict[str, List[MethodInfo]],
        memo: Dict[str, bool],
        visiting: Set[str],
    ) -> bool:
        """Counted itself, or every known caller is counted."""
        if method.qualname in memo:
            return memo[method.qualname]
        if method.qualname in visiting:
            return True  # cycle: co-inductively assume counted
        visiting.add(method.qualname)
        if self._is_counted(method):
            result = True
        else:
            ups = callers.get(method.qualname, [])
            result = bool(ups) and all(
                self._counted_context(up, callers, memo, visiting)
                for up in ups
            )
        visiting.discard(method.qualname)
        memo[method.qualname] = result
        return result

    def _query_layer(self, method: MethodInfo) -> Iterator[Finding]:
        for site in method.calls:
            func = site.node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "vector"
            ):
                yield self.program_finding(
                    method.ctx,
                    site.node,
                    "raw .vector() fetch in the query layer "
                    "bypasses access counting; use the index's "
                    "counted lookup path",
                )


__all__ = [
    "SharedStateRule",
    "InvalidationProtocolRule",
    "LockHygieneRule",
    "AccountingRule",
    "EFFECT_PAGER",
]
