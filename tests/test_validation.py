"""Unit tests for repro.analysis.validation — every paper claim."""


from repro.analysis.validation import (
    CheckResult,
    all_passed,
    run_all_checks,
)


class TestValidation:
    def test_every_claim_passes(self):
        results = run_all_checks()
        failing = [r.claim for r in results if not r.passed]
        assert not failing, f"paper claims failing: {failing}"

    def test_all_passed_helper(self):
        assert all_passed()

    def test_check_count(self):
        assert len(run_all_checks()) == 16

    def test_results_carry_provenance(self):
        for result in run_all_checks():
            assert isinstance(result, CheckResult)
            assert result.claim
            assert result.paper_value
            assert result.our_value
            assert "Section" in result.source

    def test_sections_covered(self):
        """The checks span every section with quantitative claims."""
        sources = {r.source for r in run_all_checks()}
        for section in ("2.1", "2.2", "2.3", "3.1", "3.2", "4"):
            assert any(section in s for s in sources), section

    def test_cli_validate_exit_code(self, capsys):
        from repro.cli import main

        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "16/16 paper claims reproduced" in out
        assert "FAIL" not in out
