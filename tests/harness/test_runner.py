"""Experiment runner and EXPERIMENTS.md generation."""

import pytest

import repro.harness.runner as runner_module
from repro.harness.result import Check, ExperimentResult, bound_check, ratio_check
from repro.harness.runner import (
    experiment_ids,
    failed_result,
    run_all,
    run_experiment,
    write_experiments_md,
)
from repro.util.errors import ReproError


class TestResultTypes:
    def test_ratio_check_tolerance(self):
        assert ratio_check("x", 1.10, 1.0, 0.12).passed
        assert not ratio_check("x", 1.30, 1.0, 0.12).passed

    def test_bound_check(self):
        assert bound_check("x", 1.0, 2.0).passed
        assert not bound_check("x", 3.0, 2.0).passed

    def test_experiment_result_pass_aggregation(self):
        r = ExperimentResult(
            "id", "t", "d", "",
            checks=[Check("a", True, ""), Check("b", False, "")],
        )
        assert not r.passed
        assert [c.name for c in r.failed_checks] == ["b"]


class TestRunner:
    def test_ids(self):
        assert experiment_ids() == [
            "table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12",
            "rank_resilience", "codegen_speedup",
        ]

    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiment("fig99")

    def test_failed_result_shape(self):
        r = failed_result("fig8", ValueError("solver blew up"))
        assert not r.passed
        assert r.checks[0].name == "fig8:completed"
        assert "solver blew up" in r.checks[0].detail
        assert r.data["error"]["type"] == "ValueError"

    def test_run_all_keeps_going_past_a_raising_experiment(self, monkeypatch):
        calls = []

        def good(quick=True):
            calls.append("good")
            return ExperimentResult("good", "Good", "d", "body",
                                    checks=[Check("c", True, "")])

        def bad(quick=True):
            calls.append("bad")
            raise RuntimeError("mid-sweep explosion")

        monkeypatch.setattr(runner_module, "EXPERIMENTS",
                            {"bad": bad, "good": good})
        results = run_all(quick=True)
        # The raising experiment did not abort the sweep ...
        assert calls == ["bad", "good"]
        assert [r.experiment_id for r in results] == ["bad", "good"]
        # ... and is recorded as a failed result, not swallowed.
        assert not results[0].passed
        assert "mid-sweep explosion" in results[0].rendered
        assert results[1].passed

    def test_run_all_can_still_raise_when_asked(self, monkeypatch):
        def bad(quick=True):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"bad": bad})
        with pytest.raises(RuntimeError, match="boom"):
            run_all(quick=True, keep_going=False)

    def test_write_experiments_md(self, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        results = [
            ExperimentResult("table1", "Title", "Desc", "body",
                             checks=[Check("c", True, "ok")]),
        ]
        out = write_experiments_md(path, quick=True, results=results)
        text = out.read_text()
        assert "## Title" in text
        assert "[PASS] c" in text
        assert "1/1 checks passed" in text
