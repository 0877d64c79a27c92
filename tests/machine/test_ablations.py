"""Ablations of the device simulator's mechanisms.

Each ablation switches one mechanism of the device simulator off (or
sweeps one parameter) and verifies that the mechanism is what produces the
corresponding published effect — i.e. the reproduction's behaviour is
attributable, not accidental.
"""

from dataclasses import replace

import pytest

from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.harness.experiments import projected_runtime
from repro.machine.calibration import efficiency
from repro.machine.devices import CPU_E5_2670x2, KNC_5110P
from repro.machine.iterations import fit_iteration_model
from repro.machine.perfmodel import PerformanceModel
from repro.machine.workload import synthesize_solve_trace
from repro.models.base import DeviceKind

PAPER_EPS = 1e-15


def projected_trace(model, solver, n, steps=2):
    it = fit_iteration_model(solver)
    deck = default_deck(n=n, solver=solver, end_step=steps, eps=PAPER_EPS)
    return synthesize_solve_trace(model, deck, it.workload(n, steps=steps, eps=PAPER_EPS))


def runtime_with(device, model, solver, n, steps=2):
    trace = projected_trace(model, solver, n, steps)
    return PerformanceModel(device).time_trace(trace, model, solver, tag="solve")


def test_region_overhead_drives_the_intercept():
    """Without the per-target-region overhead, OpenMP 4.0's small-mesh
    intercept (Figure 11) collapses — the overhead term is what produces
    the paper's §3.1 observation."""
    with_regions = runtime_with(KNC_5110P, "openmp4", "cg", 256)
    without = runtime_with(replace(KNC_5110P, region_overhead=0.0), "openmp4", "cg", 256)
    assert with_regions.regions > 0
    assert without.regions == 0.0
    # at 256^2 the region overhead is a large share of the runtime
    assert with_regions.total > without.total * 1.3


def test_knee_needs_the_cache_model():
    """Without the LLC bandwidth boost, the Figure 11 CPU knee vanishes."""
    it = fit_iteration_model("cg")

    def per_cell_growth(device):
        small = runtime_with(device, "openmp-f90", "cg", 350).compute
        large = runtime_with(device, "openmp-f90", "cg", 1225).compute
        norm_small = small / (350**2 * it.outer_per_step(350, PAPER_EPS))
        norm_large = large / (1225**2 * it.outer_per_step(1225, PAPER_EPS))
        return norm_large / norm_small

    flat_cache = replace(CPU_E5_2670x2, cache_bw_multiplier=1.0)
    assert per_cell_growth(CPU_E5_2670x2) > 1.3  # the knee
    assert per_cell_growth(flat_cache) == pytest.approx(1.0, abs=0.02)


def test_more_ppcg_inner_steps_fewer_outer_iterations():
    """Sweeping tl_ppcg_inner_steps trades outer reductions for inner
    stencil sweeps — the design trade-off PPCG embodies (§1.1, Boulton &
    McIntosh-Smith 2014)."""
    outers = []
    for inner in (2, 5, 10, 20):
        deck = replace(
            default_deck(n=48, solver="ppcg", end_step=1, eps=1e-10),
            tl_ppcg_inner_steps=inner,
        )
        solve = TeaLeaf(deck, model="openmp-f90").run().steps[0].solve
        outers.append(solve.iterations - len(solve.cg_alphas))
    assert outers[0] > outers[-1]  # deeper polynomial, fewer outers


def test_partials_traffic_only_for_manual_reductions():
    """The manual partials read-back of CUDA/OpenCL is visible in the
    transfer stream; Kokkos' built-in reduction is not (§3.5 vs §2.4)."""
    cuda = projected_runtime("cuda", DeviceKind.GPU, "cg", 512, 2)
    kokkos = projected_runtime("kokkos", DeviceKind.GPU, "cg", 512, 2)
    assert cuda.transferred_bytes > kokkos.transferred_bytes


def test_nowait_cuts_the_small_mesh_intercept():
    """§3.1: 'We hypothesise that [target nowait] will have a significant
    influence on the target overheads' — quantified by running the same
    projected workload under 4.0 (synchronous) and 4.5 (nowait) region
    semantics on the KNC."""
    sync, nowait = (
        PerformanceModel(KNC_5110P).time_trace(
            projected_trace(model, "cg", 350), "openmp4", "cg", tag="solve"
        )
        for model in ("openmp4", "openmp45")
    )
    # identical kernel streams, very different region bills
    assert nowait.region_entries == sync.region_entries
    assert nowait.regions < 0.2 * sync.regions
    # at the small mesh this is a significant share of total runtime
    assert (sync.total - nowait.total) / sync.total > 0.10


def test_runtime_ratio_equals_inverse_efficiency_at_convergence():
    """At 2048^2 the simulated ratio collapses to the calibrated
    efficiency ratio (overheads amortised) — the central modelling
    assumption behind Figures 8-10."""
    f90 = runtime_with(CPU_E5_2670x2, "openmp-f90", "chebyshev", 2048)
    cpp = runtime_with(CPU_E5_2670x2, "openmp-cpp", "chebyshev", 2048)
    eff_ratio = efficiency("openmp-f90", DeviceKind.CPU, "chebyshev") / efficiency(
        "openmp-cpp", DeviceKind.CPU, "chebyshev"
    )
    assert cpp.total / f90.total == pytest.approx(eff_ratio, rel=0.02)
