"""Meta-bench — the full paper-claim validation suite.

Runs every check in :mod:`repro.analysis.validation` (one per number
printed in the paper) and prints the PASS/FAIL table; doubles as a
timing of the whole analytical reproduction.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.analysis.validation import run_all_checks


class TestPaperValidation:
    def test_all_claims(self, benchmark):
        results = benchmark(run_all_checks)
        print_table(
            "Paper-claim validation",
            ["status", "claim", "paper", "ours"],
            [
                (
                    "PASS" if r.passed else "FAIL",
                    r.claim,
                    r.paper_value,
                    r.our_value,
                )
                for r in results
            ],
        )
        assert all(r.passed for r in results)
        assert len(results) == 16
