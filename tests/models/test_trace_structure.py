"""Per-solver trace structure: the mechanisms behind the paper's findings.

The paper's per-solver penalties have mechanical explanations in the event
stream — CG launches more kernels and makes more reductions per iteration
than Chebyshev, which is why the offload and manual-reduction models pay
the most on CG.  These tests pin those mechanisms down quantitatively.
"""

from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.tracing import EventKind


def trace_for(model: str, solver: str, n: int = 48):
    deck = default_deck(n=n, solver=solver, end_step=1, eps=1e-9)
    run = TeaLeaf(deck, model=model).run()
    solve = run.steps[0].solve
    return run, solve


def per_iteration(count: int, iterations: int) -> float:
    return count / max(iterations, 1)


class TestKernelEconomy:
    def test_chebyshev_launches_fewest_kernels_per_iteration(self):
        """§4: Chebyshev's iteration is a single stencil sweep — the
        reason it maps best onto launch-expensive models."""
        rates = {}
        for solver in ("cg", "chebyshev"):
            run, solve = trace_for("openmp-f90", solver)
            rates[solver] = per_iteration(
                run.trace.kernel_launches("solve"), solve.iterations
            )
        assert rates["chebyshev"] < rates["cg"]

    def test_cg_reduces_twice_per_iteration(self):
        run, solve = trace_for("openmp-f90", "cg")
        reductions = sum(
            1
            for e in run.trace.filtered("solve", EventKind.KERNEL)
            if e.has_reduction
        )
        # cg_init once + (pw, rrn) per iteration
        assert reductions == 1 + 2 * solve.iterations

    def test_chebyshev_iterations_nearly_reduction_free(self):
        """Chebyshev only reduces at its convergence checkpoints."""
        run, solve = trace_for("openmp-f90", "chebyshev")
        cheby_iters = solve.iterations - len(solve.cg_alphas)
        norm_checks = run.trace.kernel_histogram("solve")["norm2"]
        assert norm_checks <= cheby_iters / 5  # every 10th, plus the final


class TestOffloadRegionEconomy:
    def test_openmp4_regions_track_kernel_launches(self):
        """Every device kernel inside the data region enters one target
        region; set_field runs host-side before the region opens, hence
        exactly one fewer region than kernels in the solve section."""
        run, _ = trace_for("openmp4", "cg")
        assert (
            run.trace.region_entries("solve")
            == run.trace.kernel_launches("solve") - 1
        )

    def test_cg_opens_more_regions_per_iteration_than_chebyshev(self):
        """The mechanism behind Figure 10's +45% CG vs ~10% Chebyshev for
        OpenMP 4.0 offload: the *marginal* target regions per extra
        iteration (measured by tightening the tolerance, which removes the
        constant bootstrap/setup contributions) are about twice as many
        for CG as for Chebyshev."""
        marginal = {}
        for solver in ("cg", "chebyshev"):
            runs = {}
            for eps in (1e-6, 1e-11):
                deck = default_deck(n=48, solver=solver, end_step=1, eps=eps)
                run = TeaLeaf(deck, model="openmp4").run()
                runs[eps] = (
                    run.trace.region_entries("solve"),
                    run.steps[0].solve.iterations,
                )
            d_regions = runs[1e-11][0] - runs[1e-6][0]
            d_iters = runs[1e-11][1] - runs[1e-6][1]
            assert d_iters > 0, solver
            marginal[solver] = d_regions / d_iters
        # CG: halo + calc_w + calc_ur + calc_p ~ 4; Chebyshev: halo +
        # iterate (+ occasional norm check) ~ 2.
        assert marginal["cg"] > 1.6 * marginal["chebyshev"]


class TestManualReductionTraffic:
    def test_cuda_partials_per_reduction(self):
        run, solve = trace_for("cuda", "cg")
        passes = len(run.trace.filtered("solve", EventKind.REDUCTION_PASS))
        reductions = sum(
            1
            for e in run.trace.filtered("solve", EventKind.KERNEL)
            if e.has_reduction
        )
        assert passes == reductions

    def test_host_models_have_no_partials_traffic(self):
        run, _ = trace_for("openmp-f90", "cg")
        assert len(run.trace.filtered(None, EventKind.REDUCTION_PASS)) == 0
        assert run.trace.transfer_bytes() == 0


class TestDataResidency:
    def test_offload_transfers_bounded_by_map_set(self):
        """OpenMP 4.0 moves exactly the mapped arrays per step: 3 in, 2
        out — everything else stays resident for the whole solve (§3.1)."""
        deck = default_deck(n=32, solver="cg", end_step=2, eps=1e-9)
        run = TeaLeaf(deck, model="openmp4").run()
        array_bytes = (32 + 4) * (32 + 4) * 8
        expected = deck.end_step * (3 + 2) * array_bytes
        assert run.trace.transfer_bytes() == expected

    def test_resident_models_transfer_only_initial_state(self):
        deck = default_deck(n=32, solver="cg", end_step=2, eps=1e-9)
        run = TeaLeaf(deck, model="kokkos").run()
        array_bytes = (32 + 4) * (32 + 4) * 8
        assert run.trace.transfer_bytes() == 2 * array_bytes  # density, energy0
