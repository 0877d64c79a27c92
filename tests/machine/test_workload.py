"""Workload synthesis: stub traces must match real-numerics traces."""

import pytest

from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.machine.workload import (
    MODEL_BEHAVIOR,
    SolveWorkload,
    StepPlan,
    synthesize_solve_trace,
    workload_from_run,
)
from repro.models.base import available_models
from repro.util.errors import MachineError

SOLVERS = ["cg", "chebyshev", "ppcg"]


def real_and_synth(model: str, solver: str, n: int = 32):
    deck = default_deck(n=n, solver=solver, end_step=2, eps=1e-8)
    run = TeaLeaf(deck, model=model).run()
    workload = workload_from_run(run)
    synth = synthesize_solve_trace(model, deck, workload)
    return run, synth


class TestSynthesisMatchesReality:
    """The headline validation: for meshes the numerics can run, the stub
    trace driven by measured iteration counts is event-for-event identical
    in kernel structure to the real run."""

    @pytest.mark.parametrize("model", sorted(MODEL_BEHAVIOR))
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_kernel_histograms_identical(self, model, solver):
        run, synth = real_and_synth(model, solver)
        assert synth.kernel_histogram() == run.trace.kernel_histogram()

    @pytest.mark.parametrize("model", ["openmp4", "openacc"])
    def test_region_counts_identical(self, model):
        run, synth = real_and_synth(model, "cg")
        assert synth.region_entries() == run.trace.region_entries()

    @pytest.mark.parametrize("model", sorted(MODEL_BEHAVIOR))
    def test_transfer_bytes_identical(self, model):
        run, synth = real_and_synth(model, "ppcg")
        assert synth.transfer_bytes() == run.trace.transfer_bytes()

    def test_streamed_bytes_identical(self):
        run, synth = real_and_synth("openmp-f90", "cg")
        assert synth.kernel_bytes() == run.trace.kernel_bytes()

    def test_jacobi_supported(self):
        run, synth = real_and_synth("openmp-f90", "jacobi", n=16)
        assert synth.kernel_histogram() == run.trace.kernel_histogram()


class TestBehaviourCatalogue:
    def test_every_registered_model_has_behaviour(self):
        assert set(MODEL_BEHAVIOR) == set(available_models())

    def test_offload_models_flagged(self):
        assert MODEL_BEHAVIOR["openmp4"].offload_regions
        assert MODEL_BEHAVIOR["openacc"].offload_regions
        assert not MODEL_BEHAVIOR["kokkos"].offload_regions

    def test_manual_reduction_models_flagged(self):
        assert MODEL_BEHAVIOR["cuda"].reduction_partials
        assert MODEL_BEHAVIOR["opencl"].reduction_partials
        assert not MODEL_BEHAVIOR["openmp-f90"].reduction_partials


class TestWorkloadStructures:
    def test_step_plan_validation(self):
        with pytest.raises(MachineError):
            StepPlan(outer=0)
        with pytest.raises(MachineError):
            StepPlan(outer=5, bootstrap=-1)

    def test_workload_totals(self):
        wl = SolveWorkload(
            solver="chebyshev",
            steps=(StepPlan(outer=11, bootstrap=20), StepPlan(outer=21, bootstrap=20)),
        )
        assert wl.total_outer == 32
        assert wl.total_bootstrap == 40

    def test_workload_from_run_splits_bootstrap(self):
        deck = default_deck(n=48, solver="chebyshev", end_step=1, eps=1e-10)
        run = TeaLeaf(deck, model="openmp-f90").run()
        wl = workload_from_run(run)
        step = wl.steps[0]
        assert step.bootstrap == deck.tl_cg_eigen_steps
        assert step.outer == run.steps[0].solve.iterations - step.bootstrap


class TestSynthesisGuards:
    def test_step_count_must_match_deck(self):
        deck = default_deck(n=16, solver="cg", end_step=2)
        wl = SolveWorkload(solver="cg", steps=(StepPlan(outer=5),))
        with pytest.raises(MachineError, match="step plans"):
            synthesize_solve_trace("cuda", deck, wl)

    def test_solver_must_match_deck(self):
        deck = default_deck(n=16, solver="cg", end_step=1)
        wl = SolveWorkload(solver="ppcg", steps=(StepPlan(outer=5, bootstrap=20),))
        with pytest.raises(MachineError, match="solver"):
            synthesize_solve_trace("cuda", deck, wl)

    def test_unknown_model(self):
        deck = default_deck(n=16, solver="cg", end_step=1)
        wl = SolveWorkload(solver="cg", steps=(StepPlan(outer=5),))
        with pytest.raises(MachineError, match="behaviour"):
            synthesize_solve_trace("sycl", deck, wl)

    def test_stub_port_has_no_data(self):
        from repro.core.grid import Grid2D
        from repro.machine.workload import MODEL_BEHAVIOR, TracingStubPort

        deck = default_deck(n=8, solver="cg", end_step=1)
        port = TracingStubPort(
            Grid2D(nx=8, ny=8), deck,
            SolveWorkload("cg", (StepPlan(outer=3),)),
            MODEL_BEHAVIOR["openmp-f90"],
        )
        with pytest.raises(MachineError):
            port.read_field("u")
        with pytest.raises(MachineError):
            port.write_field("u", None)

    def test_codegen_deck_falls_back_on_the_stub(self, capsys):
        """The stub has no arrays for compiled bodies: a codegen deck
        records the fallback and traces exactly the plain deck's events."""
        import dataclasses

        from repro.harness.goldentrace import trace_signature

        deck = default_deck(n=64, solver="cg", end_step=1)
        wl = SolveWorkload("cg", (StepPlan(outer=20),))
        plain = synthesize_solve_trace("cuda", deck, wl)
        capsys.readouterr()
        compiled = synthesize_solve_trace(
            "cuda", dataclasses.replace(deck, tl_codegen=True), wl
        )
        assert (
            "codegen requested but port 'tracing-stub' does not support it "
            "(supports_codegen=False)"
        ) in capsys.readouterr().err
        assert trace_signature(compiled) == trace_signature(plain)

    def test_poison_deck_falls_back_on_the_stub(self, capsys):
        """Nor has the stub arrays for poison to fill: a poison deck
        records the fallback and traces exactly the plain deck's events."""
        import dataclasses

        from repro.harness.goldentrace import trace_signature

        deck = default_deck(n=64, solver="cg", end_step=1)
        wl = SolveWorkload("cg", (StepPlan(outer=20),))
        plain = synthesize_solve_trace("cuda", deck, wl)
        capsys.readouterr()
        poisoned = synthesize_solve_trace(
            "cuda", dataclasses.replace(deck, tl_poison_dead_fields=True), wl
        )
        assert (
            "tl_poison_dead_fields requested but port 'tracing-stub' does not "
            "support it (supports_poison=False)"
        ) in capsys.readouterr().err
        assert trace_signature(poisoned) == trace_signature(plain)

    def test_prescribed_iterations_are_exact(self):
        """The stub converges at exactly the planned iteration count."""
        deck = default_deck(n=16, solver="cg", end_step=1, eps=1e-8)
        for target in (1, 7, 53):
            wl = SolveWorkload("cg", (StepPlan(outer=target),))
            synth = synthesize_solve_trace("openmp-f90", deck, wl)
            # one cg_calc_ur per iteration
            assert synth.kernel_histogram()["cg_calc_ur"] == target
