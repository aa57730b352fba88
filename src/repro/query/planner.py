"""Index selection and access planning.

Given a predicate tree and a catalog, the planner decomposes the tree
into per-column sub-predicates, picks the estimated-cheapest index
for each, and leaves the Boolean combination to bitmap operations —
the *cooperativity* of Section 2.1 (n single-attribute bitmap indexes
replace 2^n - 1 compound B-trees).

Cost estimates use the paper's models: a simple bitmap pays one
vector per selected value (``c_s = delta``); an encoded bitmap pays at
most ``ceil(log2 m)`` (``c_e``); a B-tree pays its height per probed
key plus scanned leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.boolean.petrick import COVER_EXACT
from repro.errors import PlanningError
from repro.query.optimizer import normalize_predicate
from repro.query.predicates import (
    AndPredicate,
    Equals,
    InList,
    IsNull,
    NotPredicate,
    OrPredicate,
    Predicate,
    Range,
)
from repro.table.catalog import Catalog
from repro.table.table import Table

if TYPE_CHECKING:
    from repro.index.base import Index
    from repro.index.encoded_bitmap import SharedFunction


@dataclass
class AccessStep:
    """One leaf access: a predicate served by a chosen index."""

    predicate: Predicate
    index: "Index"
    estimated_cost: float
    #: The leaf's retrieval function when it was derived once for
    #: several indexes (:meth:`Planner.rebind`); ``None`` when the
    #: index derives its own at lookup.
    shared: Optional["SharedFunction"] = None

    def describe(self) -> str:
        return (
            f"{self.index.kind}({self.index.column_name}) "
            f"<- {self.predicate} [est {self.estimated_cost:.1f}]"
        )


@dataclass
class Plan:
    """An executable plan: the predicate tree plus chosen indexes."""

    table: Table
    predicate: Predicate
    steps: List[AccessStep] = field(default_factory=list)
    fallback_scan: bool = False
    #: Columns whose only supporting indexes failed fsck; when
    #: non-empty the fallback scan is a *degradation*, not a missing
    #: index, and the executor flags the result accordingly.
    degraded_columns: List[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.fallback_scan:
            suffix = ""
            if self.degraded_columns:
                suffix = (
                    " [degraded index on "
                    + ", ".join(self.degraded_columns)
                    + "]"
                )
            return f"SCAN {self.table.name} WHERE {self.predicate}{suffix}"
        lines = [f"SELECT FROM {self.table.name} WHERE {self.predicate}"]
        lines.extend("  " + step.describe() for step in self.steps)
        return "\n".join(lines)

    def explain(self) -> str:
        """EXPLAIN output: the plan plus each step's reduced expression.

        Unlike a traced execution, EXPLAIN reads no bitmap vectors —
        reduced expressions are computed (or served from the reduction
        cache) from the mapping table alone, so it is safe to run
        against production-sized indexes.

        >>> from repro.index.encoded_bitmap import EncodedBitmapIndex
        >>> from repro.query.predicates import InList
        >>> from repro.table.catalog import Catalog
        >>> from repro.table.table import Table
        >>> table = Table("T", ["A"])
        >>> for value in ["a", "b", "c", "b", "a", "c"]:
        ...     _ = table.append({"A": value})
        >>> catalog = Catalog()
        >>> _ = catalog.register_table(table)
        >>> _ = catalog.register_index(EncodedBitmapIndex(table, "A"))
        >>> plan = Planner(catalog).plan(table, InList("A", ["a", "b"]))
        >>> print(plan.explain())
        QUERY PLAN
          table: T
          predicate: A IN {'a', 'b'}
          step 1: encoded-bitmap(A) <- A IN {'a', 'b'} [est 1.0]
            reduced expression: B1'B0 + B1B0'
            vectors: B0, B1 — 2 of k=2
        """
        lines = [
            "QUERY PLAN",
            f"  table: {self.table.name}",
            f"  predicate: {self.predicate}",
        ]
        if self.fallback_scan:
            if self.degraded_columns:
                lines.append(
                    "  TABLE SCAN — degraded fallback (every index on "
                    + ", ".join(self.degraded_columns)
                    + " failed fsck)"
                )
            else:
                lines.append("  TABLE SCAN — no applicable index")
            return "\n".join(lines)
        for i, step in enumerate(self.steps, 1):
            lines.append(f"  step {i}: {step.describe()}")
            lines.extend(
                "    " + line for line in _explain_reduction(step)
            )
        return "\n".join(lines)


def _explain_reduction(step: AccessStep) -> List[str]:
    """Reduction detail lines for one access step, when the chosen
    index can explain itself (currently the encoded bitmap family)."""
    explain = getattr(step.index, "explain_predicate", None)
    if explain is None:
        return []
    function = explain(step.predicate)
    if function is None:
        return []
    variables = function.variables()
    width = getattr(step.index, "width", len(variables))
    named = ", ".join(f"B{i}" for i in variables) or "none"
    lines = [
        f"reduced expression: {function.to_string()}",
        f"vectors: {named} — {len(variables)} of k={width}",
    ]
    if function.cover != COVER_EXACT:
        lines.append(f"cover: {function.cover} (not proven minimal)")
    return lines


class Planner:
    """Chooses indexes for predicates out of a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def plan(self, table: Table, predicate: Predicate) -> Plan:
        """Build a plan; falls back to a scan when no index serves.

        The predicate is normalised first (see
        :func:`repro.query.optimizer.normalize_predicate`): same-column
        OR unions of equality/IN leaves collapse into one IN-list, so
        ``A = b OR A = c`` plans — and costs — exactly like
        ``A IN {b, c}``.
        """
        predicate = normalize_predicate(predicate)
        plan = Plan(table=table, predicate=predicate)
        try:
            self._collect_steps(table, predicate, plan)
        except PlanningError:
            plan.steps.clear()
            plan.fallback_scan = True
        return plan

    def rebind(
        self, plan: Plan, table: Table
    ) -> Tuple[Optional[Plan], str]:
        """``plan``, made on another table with the same columns, bound
        to this catalog's indexes over ``table``.

        Returns the bound plan and ``""``, or ``None`` and the reason
        when planning ``table`` afresh could differ.  A step binds when
        ``table``'s column has no degraded index and exactly one index
        that serves the step, of the step index's class: :meth:`plan`
        would choose that index too.  A step carrying a shared function
        binds only to an index that can evaluate it (equal mapping and
        void/NULL modes).  Estimated costs are ``plan``'s own.
        """
        bound = Plan(table=table, predicate=plan.predicate)
        for step in plan.steps:
            (column,) = step.predicate.columns()
            indexes = self.catalog.indexes_on(table.name, column)
            if any(getattr(index, "degraded", False) for index in indexes):
                return None, f"degraded index on {column}"
            serving = [
                index for index in indexes if index.supports(step.predicate)
            ]
            if len(serving) != 1 or type(serving[0]) is not type(step.index):
                return None, f"indexes on {column} differ"
            index = serving[0]
            if step.shared is not None and not index.can_share(step.shared):
                return None, f"mapping or modes of {column} differ"
            bound.steps.append(
                AccessStep(
                    predicate=step.predicate,
                    index=index,
                    estimated_cost=step.estimated_cost,
                    shared=step.shared,
                )
            )
        return bound, ""

    def _collect_steps(
        self, table: Table, predicate: Predicate, plan: Plan
    ) -> None:
        if isinstance(predicate, (AndPredicate, OrPredicate)):
            for operand in predicate.operands:
                self._collect_steps(table, operand, plan)
            return
        if isinstance(predicate, NotPredicate):
            self._collect_steps(table, predicate.operand, plan)
            return
        columns = predicate.columns()
        if len(columns) != 1:
            raise PlanningError(
                f"leaf predicate references {len(columns)} columns"
            )
        (column,) = columns
        chosen = self._choose_index(table, column, predicate)
        if chosen is None:
            if self._has_degraded_index(table, column, predicate):
                if column not in plan.degraded_columns:
                    plan.degraded_columns.append(column)
                raise PlanningError(
                    f"only degraded indexes on {table.name}.{column}"
                )
            raise PlanningError(
                f"no index on {table.name}.{column}"
            )
        index, estimated_cost = chosen
        plan.steps.append(
            AccessStep(
                predicate=predicate,
                index=index,
                estimated_cost=estimated_cost,
            )
        )

    # ------------------------------------------------------------------
    def _choose_index(
        self, table: Table, column: str, predicate: Predicate
    ) -> Optional[Tuple["Index", float]]:
        """The cheapest healthy index serving ``predicate`` and its
        estimated cost, each candidate estimated once; the first of
        equally cheap candidates wins.  ``None`` when none serves."""
        candidates = [
            (index, self.estimate_cost(index, predicate))
            for index in self.catalog.indexes_on(table.name, column)
            if index.supports(predicate)
            and not getattr(index, "degraded", False)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda candidate: candidate[1])

    def _has_degraded_index(
        self, table: Table, column: str, predicate: Predicate
    ) -> bool:
        """True when fsck-degraded indexes (and only those) could
        have served the predicate — the scan is then a degradation,
        not a missing index."""
        return any(
            index.supports(predicate)
            for index in self.catalog.indexes_on(table.name, column)
            if getattr(index, "degraded", False)
        )

    def estimate_cost(self, index: "Index", predicate: Predicate) -> float:
        """Paper-model cost estimate in 'accesses'."""
        column = index.table.column(index.column_name)
        m = max(1, column.cardinality())
        delta = self._selected_width(column, predicate, m)
        kind = getattr(index, "kind", "abstract")
        if kind == "simple-bitmap":
            return float(delta)  # c_s = delta
        if kind in ("encoded-bitmap", "bit-sliced", "dynamic-bitmap"):
            # Property 3.1 shape: a delta-wide selection reduces away
            # about floor(log2 delta) of the k vectors; a single value
            # needs the full k-variable minterm.
            k = max(1, math.ceil(math.log2(m)))
            return float(max(1, k - int(math.log2(max(1, delta)))))
        if kind == "btree":
            height = getattr(index, "height", 3)
            if isinstance(predicate, (Equals, IsNull)):
                return float(height)
            # range: descend once then walk leaves proportional to delta
            leaf_fraction = delta / m
            node_count = getattr(index, "node_count", m)
            return float(height + leaf_fraction * node_count)
        if kind == "range-bitmap":
            buckets = getattr(index, "bucket_count", 16)
            return float(min(delta, buckets) + 2)
        if kind == "value-list":
            return float(delta)
        if kind == "hybrid":
            return float(delta)
        if kind == "projection":
            return float(len(index.table)) / 100.0
        return float(delta)

    @staticmethod
    def _selected_width(column, predicate: Predicate, m: int) -> int:
        """The paper's delta: how many domain values are selected."""
        if isinstance(predicate, (Equals, IsNull)):
            return 1
        if isinstance(predicate, InList):
            return len(predicate.values)
        if isinstance(predicate, Range):
            return sum(map(predicate.accepts, column.distinct_values()))
        return m
