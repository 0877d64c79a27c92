"""Every registered experiment in quick mode: structure and paper checks.

The experiment functions are cached per scale by ``projected_runtime``, so
this module's fixtures share work across tests.
"""

from pathlib import Path

import pytest

from repro.harness.experiments import (
    EXPERIMENTS,
    SOLVERS,
    projected_runtime,
    solver_seconds,
)
from repro.harness import paper_data as paper
from repro.models.base import DeviceKind

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def results():
    return {eid: fn(quick=True) for eid, fn in EXPERIMENTS.items()}


class TestAllChecksPass:
    @pytest.mark.parametrize(
        "eid",
        [
            "table1",
            "table2",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
        ],
    )
    def test_experiment_checks(self, results, eid):
        r = results[eid]
        assert r.passed, "\n".join(
            f"{c.name}: {c.detail}" for c in r.failed_checks
        )

    def test_every_experiment_has_checks(self, results):
        for eid, r in results.items():
            assert len(r.checks) >= 5, eid

    def test_rendered_non_empty(self, results):
        for r in results.values():
            assert len(r.rendered) > 50

    def test_experiments_md_lists_every_check(self, results):
        """The committed EXPERIMENTS.md has a section per registered
        experiment listing exactly the checks it makes now, with the same
        status.  Numbers are not compared: Chebyshev's eigenvalue solve
        goes through LAPACK, so printed digits can differ between hosts.
        Regenerate with ``python -m repro experiments --quick --write``."""
        sections = {}
        for chunk in EXPERIMENTS_MD.read_text().split("\n## ")[1:]:
            title, _, body = chunk.partition("\n")
            sections[title] = [
                line for line in body.splitlines()
                if line.startswith(("[PASS] ", "[FAIL] "))
            ]
        for eid, r in results.items():
            assert r.title in sections, f"EXPERIMENTS.md has no '## {r.title}'"
            lines = sections[r.title]
            assert len(lines) == len(r.checks), eid
            for line, c in zip(lines, r.checks):
                status = "PASS" if c.passed else "FAIL"
                assert line.startswith(f"[{status}] {c.name}: "), (eid, line)


class TestFigureContents:
    def test_table1_checks_every_model_device_cell(self, results):
        """All 7 models x 3 devices are verified against the published
        matrix."""
        assert len(results["table1"].checks) == 21

    def test_fig8_models(self, results):
        seconds = results["fig8"].data["seconds"]
        assert len(seconds) == len(paper.FIG8_MODELS) * len(SOLVERS)
        for model in paper.FIG8_MODELS:
            for solver in SOLVERS:
                assert f"{model}/{solver}" in seconds

    def test_fig8_reports_the_opencl_variance_band(self, results):
        """§4.1: the 1631s..2813s OpenCL band is shown beside the bars."""
        assert "1631" in results["fig8"].rendered

    def test_fig9_cuda_is_floor(self, results):
        seconds = results["fig9"].data["seconds"]
        for solver in SOLVERS:
            cuda = seconds[f"cuda/{solver}"]
            for model in paper.FIG9_MODELS:
                assert seconds[f"{model}/{solver}"] >= cuda * 0.999

    def test_fig10_order_cg(self, results):
        """§4.3 CG orderings the paper states for KNC: native F90 fastest,
        the HP rewrite beats flat Kokkos, and OpenCL's CG is the worst of
        the highlighted cases (nearly 3x the best port)."""
        seconds = results["fig10"].data["seconds"]
        assert seconds["openmp-f90/cg"] < seconds["openmp4/cg"]
        assert seconds["kokkos-hp/cg"] < seconds["kokkos/cg"]
        assert seconds["opencl/cg"] > seconds["openmp4/cg"]
        assert seconds["opencl/cg"] > seconds["kokkos-hp/cg"]

    def test_fig10_every_model_acceptable_on_some_solver(self, results):
        """The paper's overall conclusion: every model is within ~2.2x of
        native F90 on its best solver."""
        seconds = results["fig10"].data["seconds"]
        for model in {key.split("/")[0] for key in seconds}:
            best_ratio = min(
                seconds[f"{model}/{s}"] / seconds[f"openmp-f90/{s}"] for s in SOLVERS
            )
            assert best_ratio < 2.3, (model, best_ratio)

    def test_fig11_series_monotone(self, results):
        data = results["fig11"].data
        assert len(data["meshes"]) >= 3
        for label, series in data["series"].items():
            assert all(b > a for a, b in zip(series, series[1:])), label

    def test_fig11_offload_intercept_shrinks_with_mesh(self, results):
        """openmp4@knc is far slower relative to the native baseline at
        the smallest mesh than at the largest."""
        series = results["fig11"].data["series"]
        rel_small = series["openmp4@knc"][0] / series["openmp-f90@knc"][0]
        rel_large = series["openmp4@knc"][-1] / series["openmp-f90@knc"][-1]
        assert rel_small > rel_large

    def test_fig12_fractions_bounded(self, results):
        for label, frac in results["fig12"].data["fractions"].items():
            assert 0.0 < frac < 1.0, label

    def test_fig12_most_portable_options_near_the_best(self, results):
        """§6: at least half of the CPU/GPU options are within 20 % of
        their device's best, and the KNC numbers are poor across the
        board."""
        fractions = results["fig12"].data["fractions"]
        for device in ("cpu", "gpu"):
            device_fracs = [v for k, v in fractions.items() if k.endswith(device)]
            best = max(device_fracs)
            within = sum(1 for v in device_fracs if v >= best * 0.80)
            assert within / len(device_fracs) >= 0.5, device
        knc_best = max(v for k, v in fractions.items() if k.endswith("knc"))
        cpu_gpu_worst = min(v for k, v in fractions.items() if not k.endswith("knc"))
        assert knc_best < cpu_gpu_worst + 0.15


class TestRuntimeProjection:
    def test_runtime_scales_with_steps(self):
        two = projected_runtime("cuda", DeviceKind.GPU, "cg", 512, 2)
        four = projected_runtime("cuda", DeviceKind.GPU, "cg", 512, 4)
        assert four.total == pytest.approx(2 * two.total, rel=0.05)

    def test_runtime_grows_with_mesh(self):
        small = solver_seconds("cuda", DeviceKind.GPU, "cg", quick=True)
        # quick=True is 2048^2; compare against a direct smaller projection
        tiny = projected_runtime("cuda", DeviceKind.GPU, "cg", 512, 2).total
        assert small > tiny

    def test_offload_transfers_present(self):
        bd = projected_runtime("openmp4", DeviceKind.KNC, "cg", 512, 2)
        assert bd.transferred_bytes > 0
        assert bd.region_entries > 0

    def test_host_model_has_no_regions(self):
        bd = projected_runtime("openmp-f90", DeviceKind.CPU, "cg", 512, 2)
        assert bd.region_entries == 0
        assert bd.transferred_bytes == 0


class TestQualitativeConclusions:
    """§9: the headline conclusions hold in the reproduction."""

    def test_portable_models_within_5_to_20_percent(self):
        """Abstract: 'in many cases the performance portable models are
        able to solve the same problems to within a 5-20% performance
        penalty' — true for the majority of (portable model, solver) pairs
        on CPU and GPU."""
        cases = within = 0
        for kind, baseline, models in (
            (DeviceKind.CPU, "openmp-f90", ["kokkos", "raja", "raja-simd", "opencl"]),
            (DeviceKind.GPU, "cuda", ["opencl", "openacc", "kokkos", "kokkos-hp"]),
        ):
            for model in models:
                for solver in SOLVERS:
                    base = solver_seconds(baseline, kind, solver, quick=True)
                    t = solver_seconds(model, kind, solver, quick=True)
                    cases += 1
                    if t <= base * 1.20:
                        within += 1
        assert within / cases >= 0.6

    def test_device_tuned_always_wins(self):
        for kind, best, models in (
            (DeviceKind.CPU, "openmp-f90", paper.FIG8_MODELS),
            (DeviceKind.GPU, "cuda", paper.FIG9_MODELS),
            (DeviceKind.KNC, "openmp-f90", paper.FIG10_MODELS),
        ):
            for solver in SOLVERS:
                floor = solver_seconds(best, kind, solver, quick=True)
                for model in models:
                    assert solver_seconds(model, kind, solver, quick=True) >= floor * 0.999
