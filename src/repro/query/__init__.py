"""Query layer: predicates, planning, execution, optimisation.

Predicates are imported eagerly; the planner/executor/optimizer are
loaded lazily via module ``__getattr__`` so that index modules can
import :mod:`repro.query.predicates` without creating an import cycle
(indexes need predicates, the planner needs indexes).
"""

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

__all__ = [
    "AndPredicate",
    "Equals",
    "Executor",
    "InList",
    "IsNull",
    "NotPredicate",
    "OrPredicate",
    "Plan",
    "Planner",
    "Predicate",
    "QueryResult",
    "Range",
    "cheapest_variant",
    "dont_care_variants",
]

_LAZY = {
    "Planner": ("repro.query.planner", "Planner"),
    "Plan": ("repro.query.planner", "Plan"),
    "Executor": ("repro.query.executor", "Executor"),
    "QueryResult": ("repro.query.executor", "QueryResult"),
    "dont_care_variants": ("repro.query.optimizer", "dont_care_variants"),
    "cheapest_variant": ("repro.query.optimizer", "cheapest_variant"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)
