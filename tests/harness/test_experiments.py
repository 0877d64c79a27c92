"""The seven experiments in quick mode: structure and paper checks.

The experiment functions are cached per scale by ``projected_runtime``, so
this module's fixtures share work across tests.
"""

import pytest

from repro.harness.experiments import (
    EXPERIMENTS,
    SOLVERS,
    projected_runtime,
    solver_seconds,
)
from repro.harness import paper_data as paper
from repro.models.base import DeviceKind


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
            "halo_overlap",
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


class TestFigureContents:
    def test_fig8_models(self, results):
        seconds = results["fig8"].data["seconds"]
        for model in paper.FIG8_MODELS:
            for solver in SOLVERS:
                assert f"{model}/{solver}" in seconds

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

    def test_fig11_series_monotone(self, results):
        data = results["fig11"].data
        for label, series in data["series"].items():
            assert series == sorted(series), label

    def test_fig12_fractions_bounded(self, results):
        for label, frac in results["fig12"].data["fractions"].items():
            assert 0.0 < frac < 1.0, label


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
