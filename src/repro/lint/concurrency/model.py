"""Whole-program model for the concurrency-discipline rules.

The EBI3xx family (:mod:`repro.lint.concurrency.rules`) reasons about
facts no single-file AST pass can see: which methods run on worker
threads, which attribute writes race with them, which locks are held
at a call site three frames away.  This module builds the shared
substrate once per lint run:

* **class tables** — every class in the linted files, its base
  classes (resolved across modules), its attributes as assigned in
  ``__init__``-reachable code, and the ``# ebi:`` annotations on them
  (``shared-readonly``, ``versioned``, ``thread-local``);
* **method summaries** — per method/function: self-attribute
  mutations with the lexically held locks at each, lock acquisitions
  (``with self._lock:``), resolved outgoing calls, and direct
  blocking/pager/metrics effects;
* **a call graph** — self-calls resolve through the MRO *and* subclass
  overrides (virtual dispatch); receivers are typed from parameter
  annotations, local ``x = ClassName(...)`` assignments and the
  ``__init__`` attribute-type table; unresolved ``x.m()`` calls fall
  back to every known implementer of ``m`` (capped, and skipped for
  ubiquitous names like ``get``/``append``);
* **worker reachability** — a BFS from worker entry points
  (``pool.submit(self.m, ...)`` / ``Thread(target=...)`` targets and
  methods annotated ``# ebi: worker-entry``), tracking which locks are
  guaranteed held on *every* path into each method;
* **fixpoints** — transitive effect sets (for lock-hygiene checks),
  transitive lock-acquisition sets (for the lock-order graph) and
  always-bumps-``_data_version`` summaries (for the invalidation
  protocol).

The model is deliberately a *lightweight* abstraction: flow-sensitive
within a method (held locks, local types, local aliases of ``self``
attributes), context-insensitive across calls.  Its precision knobs —
the mutator-name table, the virtual-dispatch cap, the common-name
blacklist — are tuned so that on this repository every finding is
actionable; ``docs/concurrency.md`` documents the residual blind
spots.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.core import LintContext

#: ``# ebi: tag-a, tag-b`` trailing-comment annotations.
_EBI_TAG = re.compile(r"#\s*ebi:\s*(?P<tags>[a-z][a-z0-9,\s-]*)")

#: Annotation tags the model understands.
TAG_SHARED_READONLY = "shared-readonly"
TAG_VERSIONED = "versioned"
TAG_THREAD_LOCAL = "thread-local"
TAG_WORKER_ENTRY = "worker-entry"

#: Method names treated as mutating their receiver when called as
#: ``self.attr.<name>(...)`` (or on a local alias of ``self.attr``).
MUTATOR_NAMES: FrozenSet[str] = frozenset(
    {
        "add",
        "add_value",
        "append",
        "assign",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "record",
        "remove",
        "resize",
        "setdefault",
        "sort",
        "update",
    }
)

#: ``x.m()`` names never resolved by the any-implementer fallback —
#: they are defined by half the classes in any codebase, so fanning
#: out to every implementer would connect unrelated subsystems.
VIRTUAL_FALLBACK_BLACKLIST: FrozenSet[str] = frozenset(
    {
        "add",
        "append",
        "clear",
        "close",
        "copy",
        "count",
        "decode",
        "encode",
        "extend",
        "get",
        "index",
        "inc",
        "insert",
        "items",
        "join",
        "keys",
        "matches",
        "pop",
        "put",
        "read",
        "record",
        "remove",
        "render",
        "reset",
        "set",
        "snapshot",
        "sort",
        "split",
        "strip",
        "update",
        "values",
        "write",
    }
)

#: Max implementers the virtual-dispatch fallback will fan out to.
VIRTUAL_FALLBACK_CAP = 8

# Effect kinds for lock-hygiene (EBI303).
EFFECT_IO = "blocking I/O"
EFFECT_PAGER = "pager I/O"
EFFECT_METRICS = "metrics-registry callback"
EFFECT_BLOCKING = "thread blocking"

#: Bare / attribute call names that ARE a blocking-I/O effect.
_IO_CALL_NAMES: FrozenSet[str] = frozenset(
    {
        "open",
        "print",
        "input",
        "makedirs",
        "replace",
        "unlink",
        "rmdir",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "sleep",
    }
)

#: Method names that count as pager traffic when invoked on a
#: pager-ish receiver (``self.pager.read(...)``, ``store.load(...)``).
_PAGER_CALL_NAMES: FrozenSet[str] = frozenset(
    {"read", "write", "allocate", "load", "store", "fetch", "flush"}
)
_PAGER_RECEIVER_HINTS: FrozenSet[str] = frozenset(
    {"pager", "_store", "store", "pool", "_pool", "buffer_pool"}
)


def parse_ebi_tags(line: str) -> FrozenSet[str]:
    """The ``# ebi:`` tags on one source line (empty set if none)."""
    match = _EBI_TAG.search(line)
    if match is None:
        return frozenset()
    return frozenset(
        part.strip()
        for part in match.group("tags").split(",")
        if part.strip()
    )


# ----------------------------------------------------------------------
# data model
# ----------------------------------------------------------------------
#: A lock's identity: (qualname of the class defining it, attr name).
LockId = Tuple[str, str]


@dataclass(slots=True)
class AttrInfo:
    """One instance attribute of one class."""

    name: str
    shared_readonly: bool = False
    versioned: bool = False
    thread_local: bool = False
    is_lock: bool = False
    reentrant: bool = False
    #: Simple class name inferred from ``self.x = ClassName(...)``.
    type_name: Optional[str] = None


@dataclass(slots=True)
class AttrWrite:
    """One mutation of a ``self`` attribute inside a method."""

    attr: str
    node: ast.AST
    held_locks: FrozenSet[LockId]
    #: ``assign`` | ``subscript`` | ``mutating-call`` | ``delete``
    kind: str


@dataclass(slots=True)
class Acquisition:
    """One ``with self.<lock>:`` block."""

    lock: LockId
    node: ast.AST
    held_before: FrozenSet[LockId]


@dataclass(slots=True)
class CallSite:
    """One outgoing call, with its lexical lock context."""

    node: ast.Call
    held_locks: FrozenSet[LockId]
    #: Resolved callee summaries (possibly several — virtual dispatch).
    targets: List["MethodInfo"] = field(default_factory=list)
    #: Direct effects of the call expression itself (no resolution).
    direct_effects: FrozenSet[str] = frozenset()
    #: Simple class name when this call constructs an instance.
    constructs: Optional[str] = None


@dataclass(slots=True)
class VersionAccess:
    """A read or write of an epoch counter.

    Covers ``self._data_version`` and the delta tier's ``self._delta_seq`` (the second half of an index epoch).
    """

    node: ast.AST
    held_locks: FrozenSet[LockId]
    is_write: bool


@dataclass
class MethodInfo:
    """Summary of one function or method."""

    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: LintContext
    cls: Optional["ClassInfo"] = None
    writes: List[AttrWrite] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    version_accesses: List[VersionAccess] = field(default_factory=list)
    worker_entry: bool = False
    #: Effects computed by the transitive fixpoint.
    effects: Set[str] = field(default_factory=set)
    #: Locks acquired here or in any (transitive) callee.
    acquired_closure: Set[LockId] = field(default_factory=set)
    #: EBI302 summary: ``bumps`` | ``dirties`` | ``none``.
    version_effect: str = "none"

    def __hash__(self) -> int:
        return hash(self.qualname)


@dataclass
class ClassInfo:
    """One class with its resolved bases and attribute table."""

    qualname: str  # "<module>:<ClassName>"
    name: str
    node: ast.ClassDef
    ctx: LintContext
    base_names: List[str] = field(default_factory=list)
    bases: List["ClassInfo"] = field(default_factory=list)
    subclasses: List["ClassInfo"] = field(default_factory=list)
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    attrs: Dict[str, AttrInfo] = field(default_factory=dict)
    #: Methods reachable from ``__init__`` by self-calls (their writes
    #: are construction, not shared-state mutation).
    init_closure: Set[str] = field(default_factory=set)

    def __hash__(self) -> int:
        return hash(self.qualname)

    def mro(self) -> List["ClassInfo"]:
        """Linearised own-then-bases order (cycle-safe)."""
        seen: Set[str] = set()
        order: List[ClassInfo] = []

        def visit(cls: "ClassInfo") -> None:
            if cls.qualname in seen:
                return
            seen.add(cls.qualname)
            order.append(cls)
            for base in cls.bases:
                visit(base)

        visit(self)
        return order

    def find_attr(self, name: str) -> Optional[AttrInfo]:
        for cls in self.mro():
            if name in cls.attrs:
                return cls.attrs[name]
        return None

    def find_lock_owner(self, attr: str) -> Optional[LockId]:
        """The defining class of a lock attribute, as a lock id."""
        for cls in self.mro():
            info = cls.attrs.get(attr)
            if info is not None and info.is_lock:
                return (cls.qualname, attr)
        return None

    def resolve_method(self, name: str) -> Optional[MethodInfo]:
        for cls in self.mro():
            if name in cls.methods:
                return cls.methods[name]
        return None

    def virtual_targets(self, name: str) -> List[MethodInfo]:
        """MRO resolution plus every subclass override."""
        targets: List[MethodInfo] = []
        base = self.resolve_method(name)
        if base is not None:
            targets.append(base)
        stack = list(self.subclasses)
        seen: Set[str] = {self.qualname}
        while stack:
            sub = stack.pop()
            if sub.qualname in seen:
                continue
            seen.add(sub.qualname)
            if name in sub.methods:
                targets.append(sub.methods[name])
            stack.extend(sub.subclasses)
        return targets


@dataclass
class ProgramModel:
    """The built whole-program view consumed by the EBI3xx rules."""

    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Simple class name -> every ClassInfo with that name.
    classes_by_name: Dict[str, List[ClassInfo]] = field(
        default_factory=dict
    )
    #: Module-level functions, "<module>:<name>" -> summary.
    functions: Dict[str, MethodInfo] = field(default_factory=dict)
    #: Function simple name -> definitions (cross-module call fallback
    #: for imported names like ``compile_function``).
    functions_by_name: Dict[str, List[MethodInfo]] = field(
        default_factory=dict
    )
    #: Method name -> implementing methods (virtual fallback table).
    methods_by_name: Dict[str, List[MethodInfo]] = field(
        default_factory=dict
    )
    #: Worker-reachable methods -> locks held on EVERY path into them.
    worker_held: Dict[str, FrozenSet[LockId]] = field(
        default_factory=dict
    )
    worker_entries: List[MethodInfo] = field(default_factory=list)
    #: Classes instantiated inside worker-reachable code: their
    #: instances are worker-private, so self-writes are thread-local.
    worker_constructed: Set[str] = field(default_factory=set)
    #: Lock-order edges: (held, acquired) -> a witness call/with node.
    lock_edges: Dict[
        Tuple[LockId, LockId], Tuple[MethodInfo, ast.AST]
    ] = field(default_factory=dict)

    def all_methods(self) -> Iterator[MethodInfo]:
        for cls in self.classes.values():
            yield from cls.methods.values()
        yield from self.functions.values()

    def is_worker_reachable(self, method: MethodInfo) -> bool:
        return method.qualname in self.worker_held

    def resolve_class_name(
        self, name: str, ctx_module: Optional[str]
    ) -> Optional[ClassInfo]:
        """A class by simple name; same-module definitions win."""
        candidates = self.classes_by_name.get(name, [])
        if not candidates:
            return None
        if ctx_module is not None:
            for cls in candidates:
                if cls.qualname.startswith(ctx_module + ":"):
                    return cls
        return candidates[0]


# ----------------------------------------------------------------------
# per-method summarisation
# ----------------------------------------------------------------------
class _MethodWalker:
    """Flow walker for one method: lock context, writes, calls."""

    def __init__(
        self,
        info: MethodInfo,
        lock_attrs: FrozenSet[str],
        cls: Optional[ClassInfo],
    ) -> None:
        self.info = info
        self.lock_attrs = lock_attrs
        self.cls = cls
        #: local name -> self attribute it aliases.
        self.aliases: Dict[str, str] = {}
        #: local name -> simple class name.
        self.local_types: Dict[str, str] = {}

    # -- entry ---------------------------------------------------------
    def walk(self) -> None:
        node = self.info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if arg.annotation is not None:
                type_name = _annotation_name(arg.annotation)
                if type_name is not None:
                    self.local_types[arg.arg] = type_name
        self._walk_body(node.body, frozenset())

    # -- statements ----------------------------------------------------
    def _walk_body(
        self, body: Sequence[ast.stmt], held: FrozenSet[LockId]
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: FrozenSet[LockId]) -> None:
        if isinstance(stmt, ast.With):
            inner = held
            for item in stmt.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    self.info.acquisitions.append(
                        Acquisition(
                            lock=lock,
                            node=item.context_expr,
                            held_before=inner,
                        )
                    )
                    inner = inner | {lock}
                else:
                    self._scan_expr(item.context_expr, held)
            self._walk_body(stmt.body, inner)
            return
        if isinstance(
            stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)
        ):
            self._scan_stmt_exprs(stmt, held)
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._track_loop_alias(stmt)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_body(handler.body, held)
            self._walk_body(stmt.orelse, held)
            self._walk_body(stmt.finalbody, held)
            return
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # Nested defs: scan for effects/calls but with no lock
            # context claims (they run later, elsewhere).
            return
        self._scan_stmt_exprs(stmt, held)

    def _scan_stmt_exprs(
        self, stmt: ast.stmt, held: FrozenSet[LockId]
    ) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_store(target, held)
            self._track_alias_assign(stmt)
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, held)
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._record_store(stmt.target, held)
            if stmt.value is not None:
                self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_store(target, held, kind="delete")
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)

    # -- alias / type tracking ----------------------------------------
    def _track_alias_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(
            stmt.targets[0], ast.Name
        ):
            return
        name = stmt.targets[0].id
        attr = _self_attr(stmt.value)
        if attr is not None:
            self.aliases[name] = attr
            return
        if isinstance(stmt.value, ast.Call):
            ctor = _constructed_name(stmt.value)
            if ctor is not None:
                self.local_types[name] = ctor

    def _track_loop_alias(self, stmt: ast.For | ast.AsyncFor) -> None:
        """``for v in self.attr:`` / ``for i, v in enumerate(self.attr)``."""
        source = stmt.iter
        if isinstance(source, ast.Call) and _callee_name(source) in (
            "enumerate",
            "reversed",
            "sorted",
        ):
            if source.args:
                source = source.args[0]
        attr = _self_attr(source)
        if attr is None:
            return
        target = stmt.target
        if isinstance(target, ast.Tuple) and target.elts:
            target = target.elts[-1]
        if isinstance(target, ast.Name):
            self.aliases[target.id] = attr

    # -- stores --------------------------------------------------------
    def _record_store(
        self,
        target: ast.expr,
        held: FrozenSet[LockId],
        kind: str = "assign",
    ) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._add_write(attr, target, held, kind)
            return
        if isinstance(target, ast.Subscript):
            base_attr = _self_attr(target.value)
            if base_attr is None and isinstance(target.value, ast.Name):
                base_attr = self.aliases.get(target.value.id)
            if base_attr is not None:
                self._add_write(base_attr, target, held, "subscript")
            return
        if isinstance(target, ast.Attribute):
            # ``self.attr.sub = v`` mutates self.attr's referent.
            base_attr = _self_attr(target.value)
            if base_attr is not None:
                self._add_write(base_attr, target, held, "assign")
            return
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._record_store(elt, held, kind)

    def _add_write(
        self,
        attr: str,
        node: ast.AST,
        held: FrozenSet[LockId],
        kind: str,
    ) -> None:
        self.info.writes.append(
            AttrWrite(attr=attr, node=node, held_locks=held, kind=kind)
        )
        if attr in ("_data_version", "_delta_seq"):
            # Store targets never pass through ``_scan_expr`` (it only
            # walks value expressions), so record the version write
            # here for the cache-under-lock check.
            self.info.version_accesses.append(
                VersionAccess(node=node, held_locks=held, is_write=True)
            )

    # -- expressions / calls ------------------------------------------
    def _scan_expr(self, expr: ast.expr, held: FrozenSet[LockId]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            elif isinstance(node, ast.Attribute):
                self._record_version_access(node, held)

    def _record_call(
        self, call: ast.Call, held: FrozenSet[LockId]
    ) -> None:
        # Mutating method call on a self attribute or an alias of one.
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_NAMES:
            base_attr = _self_attr(func.value)
            if base_attr is None and isinstance(func.value, ast.Name):
                base_attr = self.aliases.get(func.value.id)
            if base_attr is not None:
                self._add_write(base_attr, call, held, "mutating-call")
        site = CallSite(
            node=call,
            held_locks=held,
            direct_effects=frozenset(self._direct_effects(call)),
            constructs=_constructed_name(call),
        )
        self.info.calls.append(site)

    def _record_version_access(
        self, node: ast.Attribute, held: FrozenSet[LockId]
    ) -> None:
        if node.attr not in ("_data_version", "_delta_seq"):
            return
        if not _is_self(node.value):
            return
        self.info.version_accesses.append(
            VersionAccess(
                node=node,
                held_locks=held,
                is_write=isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ),
            )
        )

    def _direct_effects(self, call: ast.Call) -> Set[str]:
        effects: Set[str] = set()
        name = _callee_name(call)
        if name is None:
            return effects
        receiver = (
            call.func.value
            if isinstance(call.func, ast.Attribute)
            else None
        )
        if name in ("get_registry", "use_registry"):
            effects.add(EFFECT_METRICS)
        if name in _IO_CALL_NAMES:
            # ``"sep".join`` style false positives: skip effects whose
            # receiver is a literal.
            if not isinstance(receiver, ast.Constant):
                effects.add(EFFECT_IO)
        if name in ("result", "join") and receiver is not None:
            if not isinstance(receiver, ast.Constant) and not call.args:
                effects.add(EFFECT_BLOCKING)
        if name in _PAGER_CALL_NAMES and receiver is not None:
            hint = None
            if isinstance(receiver, ast.Attribute):
                hint = receiver.attr
            elif isinstance(receiver, ast.Name):
                hint = receiver.id
            if hint in _PAGER_RECEIVER_HINTS:
                effects.add(EFFECT_PAGER)
        return effects

    # -- locks ---------------------------------------------------------
    def _lock_of(self, expr: ast.expr) -> Optional[LockId]:
        attr = _self_attr(expr)
        if attr is None or attr not in self.lock_attrs:
            return None
        if self.cls is not None:
            owner = self.cls.find_lock_owner(attr)
            if owner is not None:
                return owner
            return (self.cls.qualname, attr)
        return ("<module>", attr)


# ----------------------------------------------------------------------
# small AST helpers
# ----------------------------------------------------------------------
def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.x`` -> ``"x"`` (one level only)."""
    if isinstance(node, ast.Attribute) and _is_self(node.value):
        return node.attr
    return None


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _constructed_name(call: ast.Call) -> Optional[str]:
    """``ClassName(...)`` -> ``"ClassName"`` (CamelCase heuristic)."""
    if isinstance(call.func, ast.Name):
        name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        name = call.func.attr
    else:
        return None
    if name[:1].isupper() and not name.isupper():
        return name
    return None


def _annotation_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip('"')
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base == "Optional":
            return _annotation_name(node.slice)
        return base
    return None


def _is_lock_ctor(node: ast.expr) -> Tuple[bool, bool]:
    """(is a Lock constructor, is reentrant)."""
    if not isinstance(node, ast.Call):
        return (False, False)
    name = _callee_name(node)
    if name == "RLock":
        return (True, True)
    if name == "Lock":
        return (True, False)
    return (False, False)


def _is_thread_local_ctor(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _callee_name(node) == "local"


# ----------------------------------------------------------------------
# model construction
# ----------------------------------------------------------------------
def build_model(contexts: Sequence[LintContext]) -> ProgramModel:
    """Build the whole-program model over the given parsed files.

    Files with no derivable module name (tests, scripts) are excluded:
    the EBI3xx contracts govern the ``repro`` package, and including
    test helpers would seed the worker-entry scan with every thread a
    test spawns.
    """
    model = ProgramModel()
    package_ctxs = [ctx for ctx in contexts if ctx.module is not None]

    # Pass 1: declare classes and module functions.
    for ctx in package_ctxs:
        module = ctx.module or "<anonymous>"
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{module}:{node.name}",
                    name=node.name,
                    node=node,
                    ctx=ctx,
                    base_names=[
                        base_name
                        for base in node.bases
                        if (base_name := _annotation_name(base))
                        is not None
                    ],
                )
                model.classes[cls.qualname] = cls
                model.classes_by_name.setdefault(cls.name, []).append(
                    cls
                )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                info = MethodInfo(
                    qualname=f"{module}:{node.name}",
                    name=node.name,
                    node=node,
                    ctx=ctx,
                )
                info.worker_entry = _has_tag(
                    ctx, node, TAG_WORKER_ENTRY
                )
                model.functions[info.qualname] = info
                model.functions_by_name.setdefault(
                    info.name, []
                ).append(info)

    # Pass 2: resolve bases, collect methods and attribute tables.
    for cls in model.classes.values():
        for base_name in cls.base_names:
            base = model.resolve_class_name(
                base_name, cls.ctx.module
            )
            if base is not None and base is not cls:
                cls.bases.append(base)
                base.subclasses.append(cls)
        for node in cls.node.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                info = MethodInfo(
                    qualname=f"{cls.qualname}.{node.name}",
                    name=node.name,
                    node=node,
                    ctx=cls.ctx,
                    cls=cls,
                )
                info.worker_entry = _has_tag(
                    cls.ctx, node, TAG_WORKER_ENTRY
                )
                cls.methods[node.name] = info
        _collect_attrs(cls)

    for cls in model.classes.values():
        _compute_init_closure(cls)

    # Pass 3: per-method walk (needs the full lock-attr table, which
    # includes inherited locks — hence after pass 2).
    for cls in model.classes.values():
        lock_attrs = frozenset(
            name
            for ancestor in cls.mro()
            for name, attr in ancestor.attrs.items()
            if attr.is_lock
        )
        for info in cls.methods.values():
            _MethodWalker(info, lock_attrs, cls).walk()
    for info in model.functions.values():
        _MethodWalker(info, frozenset(), None).walk()

    for info in model.all_methods():
        model.methods_by_name.setdefault(info.name, []).append(info)

    # Pass 4: resolve calls, then run the global analyses.
    for info in model.all_methods():
        _resolve_calls(model, info)
    _detect_worker_entries(model)
    _compute_worker_reachability(model)
    _compute_effects(model)
    _compute_acquired_closures(model)
    _compute_lock_edges(model)
    _compute_version_effects(model)
    return model


def _has_tag(
    ctx: LintContext, node: ast.AST, tag: str
) -> bool:
    lineno = getattr(node, "lineno", 0)
    return tag in parse_ebi_tags(ctx.source_line(lineno))


def _collect_attrs(cls: ClassInfo) -> None:
    """Attribute table from every ``self.x = ...`` in the class body.

    Annotation tags are read from the assignment's own source line;
    type/lock/thread-local classification comes from the assigned
    expression.
    """
    for method in cls.methods.values():
        node = method.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                attr_name = _self_attr(target)
                if attr_name is None:
                    continue
                info = cls.attrs.setdefault(
                    attr_name, AttrInfo(name=attr_name)
                )
                tags = parse_ebi_tags(
                    cls.ctx.source_line(stmt.lineno)
                )
                if TAG_SHARED_READONLY in tags:
                    info.shared_readonly = True
                if TAG_VERSIONED in tags:
                    info.versioned = True
                if TAG_THREAD_LOCAL in tags:
                    info.thread_local = True
                if value is not None:
                    is_lock, reentrant = _is_lock_ctor(value)
                    if is_lock:
                        info.is_lock = True
                        info.reentrant = reentrant
                    if _is_thread_local_ctor(value):
                        info.thread_local = True
                    if (
                        isinstance(value, ast.Call)
                        and info.type_name is None
                    ):
                        info.type_name = _constructed_name(value)
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and info.type_name is None
                ):
                    info.type_name = _annotation_name(stmt.annotation)


def _compute_init_closure(cls: ClassInfo) -> None:
    """Methods reachable from ``__init__`` through self-calls."""
    closure: Set[str] = set()
    stack = [
        name
        for name in cls.methods
        if name == "__init__" or name.startswith("_init")
    ]
    while stack:
        name = stack.pop()
        if name in closure:
            continue
        closure.add(name)
        method = cls.methods.get(name)
        if method is None:
            continue
        for node in ast.walk(method.node):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and _is_self(func.value)
                    and func.attr in cls.methods
                ):
                    stack.append(func.attr)
    cls.init_closure = closure


def _resolve_calls(model: ProgramModel, info: MethodInfo) -> None:
    module = info.ctx.module
    walker_types: Dict[str, str] = {}
    # Re-derive local types cheaply: parameter annotations and
    # ``x = ClassName(...)`` assigns (the walker tracked them during
    # summarisation but summaries don't persist locals; this re-walk
    # keeps CallSite resolution self-contained).
    node = info.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for arg in list(node.args.args) + list(node.args.kwonlyargs):
        if arg.annotation is not None:
            type_name = _annotation_name(arg.annotation)
            if type_name is not None:
                walker_types[arg.arg] = type_name
    for stmt in ast.walk(node):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            ctor = _constructed_name(stmt.value)
            if ctor is not None:
                walker_types[stmt.targets[0].id] = ctor

    for site in info.calls:
        call = site.node
        func = call.func
        targets: List[MethodInfo] = []
        if isinstance(func, ast.Name):
            name = func.id
            cls = model.resolve_class_name(name, module)
            if cls is not None:
                # Constructor: dispatch to __init__ for reachability.
                ctor = cls.resolve_method("__init__")
                if ctor is not None:
                    targets.append(ctor)
            else:
                fn = model.functions.get(f"{module}:{name}")
                if fn is not None:
                    targets.append(fn)
                else:
                    # Imported module-level function: resolve by the
                    # bare name when unambiguous enough.
                    candidates = model.functions_by_name.get(name, [])
                    if 0 < len(candidates) <= 3:
                        targets.extend(candidates)
        elif isinstance(func, ast.Attribute):
            method_name = func.attr
            receiver = func.value
            if _is_self(receiver) and info.cls is not None:
                targets.extend(
                    info.cls.virtual_targets(method_name)
                )
            elif (
                isinstance(receiver, ast.Call)
                and _callee_name(receiver) == "super"
                and info.cls is not None
            ):
                for base in info.cls.bases:
                    resolved = base.resolve_method(method_name)
                    if resolved is not None:
                        targets.append(resolved)
                        break
            else:
                recv_type: Optional[str] = None
                if isinstance(receiver, ast.Name):
                    recv_type = walker_types.get(receiver.id)
                    if recv_type is None:
                        cls = model.resolve_class_name(
                            receiver.id, module
                        )
                        if cls is not None:
                            # ``ClassName.method(...)``
                            recv_type = cls.name
                attr = (
                    _self_attr(receiver)
                    if isinstance(receiver, ast.Attribute)
                    else None
                )
                if (
                    recv_type is None
                    and attr is not None
                    and info.cls is not None
                ):
                    attr_info = info.cls.find_attr(attr)
                    if attr_info is not None:
                        recv_type = attr_info.type_name
                if recv_type is not None:
                    cls = model.resolve_class_name(recv_type, module)
                    if cls is not None:
                        targets.extend(
                            cls.virtual_targets(method_name)
                        )
                if not targets:
                    targets.extend(
                        _virtual_fallback(model, method_name)
                    )
        site.targets = targets


def _virtual_fallback(
    model: ProgramModel, method_name: str
) -> List[MethodInfo]:
    if method_name in VIRTUAL_FALLBACK_BLACKLIST:
        return []
    if method_name.startswith("__"):
        return []
    implementers = [
        m
        for m in model.methods_by_name.get(method_name, [])
        if m.cls is not None
    ]
    if not implementers or len(implementers) > VIRTUAL_FALLBACK_CAP:
        return []
    return implementers


def _detect_worker_entries(model: ProgramModel) -> None:
    """``pool.submit(self.m, ...)`` / ``Thread(target=...)`` targets."""
    for info in model.all_methods():
        for site in info.calls:
            call = site.node
            name = _callee_name(call)
            if name == "submit" and call.args:
                target = call.args[0]
                attr = _self_attr(target)
                if attr is not None and info.cls is not None:
                    resolved = info.cls.resolve_method(attr)
                    if resolved is not None:
                        resolved.worker_entry = True
                elif isinstance(target, ast.Name):
                    fn = model.functions.get(
                        f"{info.ctx.module}:{target.id}"
                    )
                    if fn is not None:
                        fn.worker_entry = True
            elif name == "Thread":
                for kw in call.keywords:
                    if kw.arg != "target":
                        continue
                    attr = _self_attr(kw.value)
                    if attr is not None and info.cls is not None:
                        resolved = info.cls.resolve_method(attr)
                        if resolved is not None:
                            resolved.worker_entry = True
                    elif isinstance(kw.value, ast.Name):
                        fn = model.functions.get(
                            f"{info.ctx.module}:{kw.value.id}"
                        )
                        if fn is not None:
                            fn.worker_entry = True


def _compute_worker_reachability(model: ProgramModel) -> None:
    """BFS from worker entries, intersecting held locks per method.

    ``worker_held[m]`` ends as the set of locks provably held on every
    worker path into ``m`` — the guard credit EBI301 gives to methods
    only ever called under a lock.
    """
    entries = [m for m in model.all_methods() if m.worker_entry]
    model.worker_entries = entries
    held: Dict[str, FrozenSet[LockId]] = {}
    worklist: List[Tuple[MethodInfo, FrozenSet[LockId]]] = [
        (entry, frozenset()) for entry in entries
    ]
    while worklist:
        method, incoming = worklist.pop()
        known = held.get(method.qualname)
        if known is not None:
            merged = known & incoming
            if merged == known:
                continue
            held[method.qualname] = merged
            incoming = merged
        else:
            held[method.qualname] = incoming
        for site in method.calls:
            out = incoming | site.held_locks
            for target in site.targets:
                worklist.append((target, out))
    model.worker_held = held

    constructed: Set[str] = set()
    for info in model.all_methods():
        if info.qualname not in held:
            continue
        for site in info.calls:
            if site.constructs is not None:
                cls = model.resolve_class_name(
                    site.constructs, info.ctx.module
                )
                if cls is not None:
                    constructed.add(cls.qualname)
    model.worker_constructed = constructed


def _compute_effects(model: ProgramModel) -> None:
    for info in model.all_methods():
        info.effects = set()
        for site in info.calls:
            info.effects |= site.direct_effects
    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for info in model.all_methods():
            for site in info.calls:
                for target in site.targets:
                    new = target.effects - info.effects
                    if new:
                        info.effects |= new
                        changed = True


def _compute_acquired_closures(model: ProgramModel) -> None:
    for info in model.all_methods():
        info.acquired_closure = {
            acq.lock for acq in info.acquisitions
        }
    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for info in model.all_methods():
            for site in info.calls:
                for target in site.targets:
                    new = (
                        target.acquired_closure
                        - info.acquired_closure
                    )
                    if new:
                        info.acquired_closure |= new
                        changed = True


def _compute_lock_edges(model: ProgramModel) -> None:
    for info in model.all_methods():
        for acq in info.acquisitions:
            for held in acq.held_before:
                key = (held, acq.lock)
                model.lock_edges.setdefault(key, (info, acq.node))
        for site in info.calls:
            if not site.held_locks:
                continue
            for target in site.targets:
                for lock in target.acquired_closure:
                    for held in site.held_locks:
                        key = (held, lock)
                        model.lock_edges.setdefault(
                            key, (info, site.node)
                        )


def _compute_version_effects(model: ProgramModel) -> None:
    """``bumps`` / ``dirties`` / ``none`` summaries, to fixpoint.

    A method *bumps* when every path through it increments
    ``self._data_version`` (directly or via an always-bumping
    self-call); it *dirties* when it mutates a versioned attribute
    somewhere without being an unconditional bumper.
    """
    for cls in model.classes.values():
        versioned = {
            name
            for ancestor in cls.mro()
            for name, attr in ancestor.attrs.items()
            if attr.versioned
        }
        if "_data_version" not in {
            name
            for ancestor in cls.mro()
            for name in ancestor.attrs
        }:
            continue
        for method in cls.methods.values():
            if _mutates_versioned(method, versioned):
                method.version_effect = "dirties"
    changed = True
    iterations = 0
    while changed and iterations < 20:
        changed = False
        iterations += 1
        for cls in model.classes.values():
            for method in cls.methods.values():
                if method.version_effect == "bumps":
                    continue
                if _always_bumps(method):
                    method.version_effect = "bumps"
                    changed = True


def _mutates_versioned(
    method: MethodInfo, versioned: Set[str]
) -> bool:
    return any(w.attr in versioned for w in method.writes)


def _always_bumps(method: MethodInfo) -> bool:
    """Does every fall-through path bump the version?

    Conservative: a straight-line scan of the top-level body — a bump
    statement (or an always-bumping self-call) not inside any branch,
    with no ``return`` before it, makes the method an unconditional
    bumper.  (Branch-aware per-path analysis lives in the EBI302 rule
    itself; this summary only feeds call-site credit.)
    """
    node = method.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for stmt in node.body:
        if _stmt_bumps(stmt, method):
            return True
        # Any return reachable before the bump (including one nested
        # in a branch) means some path skips it.
        if any(isinstance(n, ast.Return) for n in ast.walk(stmt)):
            return False
    return False


def _stmt_bumps(stmt: ast.stmt, method: MethodInfo) -> bool:
    # ``_delta_seq`` is the delta tier's epoch half: bumping it marks
    # a mutation that the next lookup reads directly (the delta is
    # never cached), so it satisfies the protocol like a
    # ``_data_version`` bump does.
    if isinstance(stmt, ast.AugAssign):
        return _self_attr(stmt.target) in ("_data_version", "_delta_seq")
    if isinstance(stmt, ast.Assign):
        return any(
            _self_attr(t) in ("_data_version", "_delta_seq")
            for t in stmt.targets
        )
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and _is_self(func.value):
            cls = method.cls
            if cls is not None:
                callee = cls.resolve_method(func.attr)
                if (
                    callee is not None
                    and callee.version_effect == "bumps"
                ):
                    return True
    if isinstance(stmt, ast.With):
        return any(_stmt_bumps(s, method) for s in stmt.body)
    if isinstance(stmt, ast.Try):
        if any(_stmt_bumps(s, method) for s in stmt.finalbody):
            return True
        return False
    return False
