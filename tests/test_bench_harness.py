"""Tests for the ``repro bench`` harness (``repro.bench``).

Covers the comparator semantics, the versioned ``BENCH_*.json``
schema (validation catches every corruption CI cares about), and the
end-to-end round trip: run the quick suite, reload the file it wrote,
and re-validate.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import (
    Comparison,
    all_ok,
    compare,
    deterministic_ok,
    divergence,
)
from repro.bench.runner import run_case, run_suite
from repro.bench.schema import (
    COMPARISON_KINDS,
    COMPARISON_MODES,
    SCHEMA_VERSION,
    assert_valid,
    validate_payload,
)
from repro.errors import BenchSchemaError, InvalidArgumentError


# ----------------------------------------------------------------------
# comparator semantics
# ----------------------------------------------------------------------
class TestCompare:
    def test_eq_exact(self):
        assert compare("x", 8, 8, kind="model").ok
        assert not compare("x", 8, 9, kind="model").ok

    def test_le_bound(self):
        assert compare("x", 3, 6, mode="le", kind="model").ok
        assert compare("x", 6, 6, mode="le", kind="model").ok
        assert not compare("x", 7, 6, mode="le", kind="model").ok

    def test_ge_bound(self):
        assert compare("x", 0.9, 0.83, mode="ge", kind="model").ok
        assert not compare("x", 0.5, 0.83, mode="ge", kind="model").ok

    def test_approx_within_tolerance(self):
        assert compare(
            "x", 21, 20, mode="approx", tolerance=0.25, kind="model"
        ).ok
        assert not compare(
            "x", 30, 20, mode="approx", tolerance=0.25,
            kind="model",
        ).ok

    def test_approx_tolerance_zero_means_exact(self):
        assert compare(
            "x", 20, 20, mode="approx", tolerance=0.0, kind="model"
        ).ok
        assert not compare(
            "x", 21, 20, mode="approx", tolerance=0.0,
            kind="model",
        ).ok

    def test_divergence_is_relative(self):
        assert divergence(30, 20) == pytest.approx(0.5)
        assert divergence(20, 20) == 0.0
        # predictions under 1 are compared on an absolute scale
        assert divergence(0.5, 0.0) == pytest.approx(0.5)

    def test_invalid_mode_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compare("x", 1, 1, mode="almost", kind="model")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compare("x", 1, 1, tolerance=-0.1, kind="model")

    def test_describe_mentions_both_sides(self):
        text = compare(
            "c_s", 8, 8, unit="vectors", kind="model"
        ).describe()
        assert "8" in text
        assert "vectors" in text
        assert "ok" in text
        assert "model" in text

    def test_kind_is_required(self):
        with pytest.raises(TypeError):
            compare("x", 1, 1)  # type: ignore[call-arg]

    def test_invalid_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compare("x", 1, 1, kind="timing")

    def test_deterministic_ok_ignores_perf_lines(self):
        good = compare("a", 1, 1, kind="identity")
        slow = compare("b", 0.4, 0.5, mode="ge", kind="perf")
        wrong = compare("c", 1, 0, kind="model")
        assert deterministic_ok([good, slow])
        assert not all_ok([good, slow])
        assert not deterministic_ok([good, slow, wrong])

    def test_all_ok(self):
        good = compare("a", 1, 1, kind="model")
        bad = compare("b", 2, 1, kind="model")
        assert all_ok([good])
        assert not all_ok([good, bad])

    def test_as_dict_matches_schema_keys(self):
        entry = compare("a", 1, 2, mode="le", kind="model").as_dict()
        assert set(entry) == {
            "label",
            "unit",
            "measured",
            "predicted",
            "mode",
            "kind",
            "divergence",
            "ok",
        }


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def _valid_payload() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "smoke",
        "quick": True,
        "tolerance": 0.25,
        "ok": True,
        "cases": [
            {
                "name": "t",
                "description": "d",
                "wall_seconds": 0.01,
                "cpu_seconds": 0.01,
                "ok": True,
                "metrics": {"evaluator.vector_reads": 3},
                "results": [
                    {
                        "label": "l",
                        "unit": "vectors",
                        "measured": 1,
                        "predicted": 1,
                        "mode": "eq",
                        "kind": "model",
                        "divergence": 0.0,
                        "ok": True,
                    }
                ],
            }
        ],
    }


class TestSchema:
    def test_valid_payload_has_no_violations(self):
        assert validate_payload(_valid_payload()) == []
        assert_valid(_valid_payload())  # must not raise

    def test_non_object_payload(self):
        assert validate_payload([1, 2]) != []

    def test_missing_top_level_key(self):
        payload = _valid_payload()
        del payload["tolerance"]
        assert any(
            "missing key 'tolerance'" in p
            for p in validate_payload(payload)
        )

    def test_unknown_key_flagged(self):
        payload = _valid_payload()
        payload["extra"] = 1
        assert any(
            "unknown key 'extra'" in p
            for p in validate_payload(payload)
        )

    def test_version_mismatch(self):
        payload = _valid_payload()
        payload["schema_version"] = SCHEMA_VERSION + 1
        assert any(
            "schema_version" in p for p in validate_payload(payload)
        )

    def test_empty_cases_rejected(self):
        payload = _valid_payload()
        payload["cases"] = []
        assert any("at least one" in p for p in validate_payload(payload))

    def test_empty_results_rejected(self):
        payload = _valid_payload()
        payload["cases"][0]["results"] = []
        assert any(
            "must not be empty" in p for p in validate_payload(payload)
        )

    def test_bool_does_not_satisfy_number(self):
        payload = _valid_payload()
        payload["cases"][0]["results"][0]["measured"] = True
        assert any(
            "got bool" in p for p in validate_payload(payload)
        )

    def test_non_numeric_metric_rejected(self):
        payload = _valid_payload()
        payload["cases"][0]["metrics"]["bad"] = "three"
        assert any(
            "expected number" in p for p in validate_payload(payload)
        )

    def test_unknown_mode_rejected(self):
        payload = _valid_payload()
        payload["cases"][0]["results"][0]["mode"] = "fuzzy"
        assert any("'fuzzy'" in p for p in validate_payload(payload))

    def test_unknown_kind_rejected(self):
        payload = _valid_payload()
        payload["cases"][0]["results"][0]["kind"] = "timing"
        assert any("'timing'" in p for p in validate_payload(payload))

    def test_missing_kind_flagged(self):
        payload = _valid_payload()
        del payload["cases"][0]["results"][0]["kind"]
        assert any(
            "missing key 'kind'" in p for p in validate_payload(payload)
        )

    def test_assert_valid_raises_with_violations(self):
        payload = _valid_payload()
        del payload["ok"]
        payload["cases"][0]["results"][0]["mode"] = "fuzzy"
        with pytest.raises(BenchSchemaError) as excinfo:
            assert_valid(payload)
        assert len(excinfo.value.violations) == 2

    def test_modes_cover_comparator(self):
        for mode in COMPARISON_MODES:
            assert compare("x", 1, 1, mode=mode, kind="model") is not None


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_run_case_captures_error(self):
        from repro.bench.cases import BenchCase

        def explode(tolerance: float):
            raise ValueError("boom")

        report = run_case(
            BenchCase(name="bad", description="x", run=explode),
            tolerance=0.25,
        )
        assert not report.ok
        assert report.error == "ValueError: boom"

    def test_run_case_collects_private_metrics(self):
        from repro.bench.cases import QUICK_CASES

        table1 = next(
            case
            for case in QUICK_CASES
            if case.name == "table1_example"
        )
        report = run_case(table1, tolerance=0.25)
        assert report.ok
        assert report.metrics.get("index.lookups", 0) >= 1

    def test_quick_suite_round_trip(self, tmp_path):
        report = run_suite(quick=True, out_dir=str(tmp_path))
        # Perf lines depend on the host's load; they gate the bench
        # jobs through the payload's ``ok``, not this test.
        assert report.deterministic_ok, report.render()
        assert report.path == str(tmp_path / "BENCH_smoke.json")
        # ISSUE acceptance: the smoke suite carries >= 2 benchmarks
        assert len(report.cases) >= 2
        with open(report.path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_payload(payload) == []
        assert payload["suite"] == "smoke"
        assert payload["quick"] is True
        names = [case["name"] for case in payload["cases"]]
        assert "table1_example" in names
        results = [r for case in payload["cases"] for r in case["results"]]
        assert {r["kind"] for r in results} <= set(COMPARISON_KINDS)
        assert payload["ok"] == all(r["ok"] for r in results)

    def test_suite_name_override(self, tmp_path):
        report = run_suite(
            quick=True, out_dir=str(tmp_path), suite="custom"
        )
        assert report.path == str(tmp_path / "BENCH_custom.json")

    def test_render_mentions_every_case(self, tmp_path):
        report = run_suite(quick=True, out_dir=str(tmp_path))
        text = report.render()
        for case in report.cases:
            assert case.name in text
        passed = sum(1 for case in report.cases if case.ok)
        assert f"{passed}/{len(report.cases)} cases passed" in text


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_cli_bench_quick(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(
            ["bench", "--quick", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert "BENCH_smoke.json" in out
        payload = json.loads(
            (tmp_path / "BENCH_smoke.json").read_text()
        )
        assert validate_payload(payload) == []
        # The exit status gates on every line, perf lines included.
        assert exit_code == (0 if payload["ok"] else 1)
        held = [
            result["ok"]
            for case in payload["cases"]
            for result in case["results"]
            if result["kind"] != "perf"
        ]
        assert held and all(held), out


def test_comparison_is_immutable():
    entry = Comparison(
        label="x",
        measured=1,
        predicted=1,
        mode="eq",
        unit="u",
        divergence=0.0,
        ok=True,
        kind="model",
    )
    with pytest.raises(AttributeError):
        entry.ok = False  # type: ignore[misc]
