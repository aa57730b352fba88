"""ebilint — domain-aware static analysis for the reproduction.

The paper's correctness guarantees are structural: code 0 is reserved
for void tuples (Theorem 2.1), encodings must be well-defined w.r.t.
the predicate set (Definition 2.5), and every query is charged in
*distinct bitmap vectors accessed*.  The performance story is equally
structural: the word-packed :class:`~repro.bitmap.bitvector.BitVector`
design only pays off while hot paths stay on word-level numpy ops.

``ebilint`` turns those paper invariants and performance contracts
into machine-checked rules.  Run it as ``python -m repro.lint [paths]``
or ``python -m repro.cli lint [paths]``; see :mod:`repro.lint.rules_perf`
and :mod:`repro.lint.rules_paper` for the rule set and ``docs/lint.md``
for the rule-by-rule rationale.
"""

from __future__ import annotations

from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    Severity,
    all_rules,
    get_rule,
    register_rule,
)
from repro.lint.runner import Report, lint_file, lint_paths, lint_source

# Importing the rule modules populates the registry.
from repro.lint import (  # noqa: E402,F401  (registry side effect)
    concurrency,
    rules_paper,
    rules_perf,
    rules_robustness,
)

__all__ = [
    "Finding",
    "LintContext",
    "Report",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
]
