"""Bitwise equivalence of ``--overlap`` composed with every other flag.

The async overlap executor reorders *scheduling* — interior sweeps run
while exchanges are in flight — but must never reorder *dataflow*: the
solution field, iteration trajectory, summary and injection accounting
must be bit-identical to the synchronous plan on every registered port,
under every combination of fusion, codegen and resilience, and on the
decomposed multi-chunk ensemble (including under comm-level fault
injection, where the retried exchange repacks from unmutated bodies).

The traces are pinned against the synchronous run too.  An overlapped
step launches twice per chunk, a core that does not reduce and one
boundary ring that carries the body's reduction, so an overlapped run
has the synchronous run's reducing launches, reduction passes and
transfers, and on an unfused run exactly one launch more per chunk per
overlapped step (one offload region more on the data-region ports).
"""

import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf
from repro.models.base import available_models
from repro.models.plan import FusedGroup, KernelCall
from repro.models.tracing import EventKind

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"


def _deck(**overrides):
    deck = parse_deck_file(str(DECK))
    return dataclasses.replace(
        deck, tl_preconditioner_type="jac_diag", **overrides
    )


#: Ports whose every launch inside the solve is one offload region.
REGION_MODELS = {"openmp4", "openmp45", "openacc"}


def _events(trace):
    """Event counts by kind, plus ``"reducing"`` kernel launches."""
    counts = Counter(e.kind for e in trace.events)
    counts["reducing"] = trace.reduction_count()
    return counts


def _capture(app, result):
    return {
        "u": app.field(F.U)[app.grid.inner()].copy(),
        "per_step": result.iterations_per_step(),
        "summary": result.steps[-1].summary,
        "injections": (
            result.resilience.injections if result.resilience else None
        ),
        "fallbacks": result.fallbacks,
        "events": _events(result.trace),
        "overlap_steps": result.comm["overlap_steps"],
        "fused": app.executor.fuse,
        "supports_fusion": app.port.supports_fusion,
    }


def assert_overlap_trace(ref, over, chunks, regions=False):
    """The overlapped run's trace against the synchronous run's.

    Reducing launches, reduction passes and transfers are equal: only
    each boundary ring reduces.  On an unfused run the overlapped one
    has exactly one launch more per chunk per overlapped step, and so
    many more offload regions when every launch is one (``regions``).
    """
    for key in ("reducing", EventKind.REDUCTION_PASS, EventKind.TRANSFER):
        assert over["events"][key] == ref["events"][key], key
    if ref["fused"]:
        return
    extra = over["overlap_steps"] * chunks
    assert extra > 0
    for kind, more in (
        (EventKind.KERNEL, extra),
        (EventKind.REGION, extra if regions else 0),
    ):
        assert over["events"][kind] - ref["events"][kind] == more, kind


@pytest.fixture(scope="module")
def overlap_runs():
    """Reference: the full flag stack *without* overlap, per model.
    Candidates: the same stack with overlap on."""
    flags = dict(
        tl_fuse_kernels=True,
        tl_codegen=True,
        tl_resilient=True,
        tl_inject="nan:u:5",
    )
    runs = {}
    for model in available_models():
        ref_app = TeaLeaf(_deck(**flags), model=model)
        over_app = TeaLeaf(_deck(tl_overlap=True, **flags), model=model)
        runs[model] = (
            _capture(ref_app, ref_app.run()),
            _capture(over_app, over_app.run()),
        )
    return runs


class TestOverlapAllModels:
    def test_u_bitwise_identical(self, overlap_runs):
        for model, (ref, over) in overlap_runs.items():
            np.testing.assert_array_equal(over["u"], ref["u"], err_msg=model)

    def test_iteration_trajectories_identical(self, overlap_runs):
        for model, (ref, over) in overlap_runs.items():
            assert over["per_step"] == ref["per_step"], model

    def test_summaries_bit_identical(self, overlap_runs):
        for model, (ref, over) in overlap_runs.items():
            assert over["summary"] == ref["summary"], model

    def test_injection_counts_identical(self, overlap_runs):
        for model, (ref, over) in overlap_runs.items():
            assert over["injections"] == ref["injections"] == 1, model

    def test_no_fallbacks_on_host_ports(self, overlap_runs):
        """Overlap and codegen apply everywhere; the one fallback is the
        fuse refusal of a port that cannot fuse."""
        for model, (_, over) in overlap_runs.items():
            refusal = (
                f"fuse requested but port '{model}' does not support it "
                f"(supports_fusion=False); running unfused kernels"
            )
            expected = [] if over["supports_fusion"] else [refusal]
            assert over["fallbacks"] == expected, model

    def test_traces_add_one_launch_per_overlapped_step(self, overlap_runs):
        """Fused ports compare reductions, passes and transfers; the
        data-region ports, which do not fuse, compare launches and
        regions too."""
        assert {m for m, (ref, _) in overlap_runs.items() if not ref["fused"]} == (
            REGION_MODELS
        )
        for model, (ref, over) in overlap_runs.items():
            assert_overlap_trace(ref, over, 1, regions=model in REGION_MODELS)


class TestOverlapFlagMatrix:
    """All 16 combinations of (overlap, fuse, codegen, resilient) on the
    reference model produce one bit pattern."""

    def test_sixteen_combo_sweep(self):
        base = None
        for ov, fu, cg, rs in itertools.product((False, True), repeat=4):
            deck = dataclasses.replace(
                default_deck(n=48, end_step=2),
                tl_overlap=ov,
                tl_fuse_kernels=fu,
                tl_codegen=cg,
                tl_resilient=rs,
            )
            app = TeaLeaf(deck, model="openmp-f90")
            app.run()
            u = app.field(F.U)
            if base is None:
                base = u
            else:
                np.testing.assert_array_equal(
                    u, base, err_msg=f"overlap={ov} fuse={fu} cg={cg} res={rs}"
                )


class TestOverlapDecomposed:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_multichunk_bitwise(self, nranks):
        def run(overlap):
            deck = _deck(tl_overlap=overlap)
            port = MultiChunkPort(deck.grid(), nranks=nranks)
            app = TeaLeaf(deck, port=port)
            result = app.run()
            return _capture(app, result), result.comm

        ref, _ = run(False)
        over, comm = run(True)
        np.testing.assert_array_equal(over["u"], ref["u"])
        assert over["per_step"] == ref["per_step"]
        assert over["summary"] == ref["summary"]
        assert comm["overlap_steps"] > 0 and comm["hidden_ms"] > 0.0
        assert_overlap_trace(ref, over, nranks)

    def test_heterogeneous_chunks(self):
        """Chunks on four models, two of which finish their reductions
        on the host: the partials passes and read-backs of the boundary
        rings are the synchronous run's."""
        models = ["cuda", "openmp-f90", "kokkos", "opencl"]

        def run(overlap):
            deck = _deck(tl_overlap=overlap)
            port = MultiChunkPort(deck.grid(), nranks=4, model=models)
            app = TeaLeaf(deck, port=port)
            return _capture(app, app.run())

        ref, over = run(False), run(True)
        np.testing.assert_array_equal(over["u"], ref["u"])
        assert over["summary"] == ref["summary"]
        assert ref["events"][EventKind.REDUCTION_PASS] > 0
        assert ref["events"][EventKind.TRANSFER] > 0
        assert_overlap_trace(ref, over, 4)

    def test_multichunk_with_comm_faults(self):
        """Drop/delay injection on the in-flight exchange: the retry
        repacks edges whose source values the interior body never
        touched, so recovery stays bitwise too."""

        def run(overlap):
            deck = _deck(
                tl_overlap=overlap,
                tl_resilient=True,
                tl_inject="drop:p:3,delay:p:7",
            )
            port = MultiChunkPort(deck.grid(), nranks=4)
            app = TeaLeaf(deck, port=port)
            return _capture(app, app.run())

        ref = run(False)
        over = run(True)
        np.testing.assert_array_equal(over["u"], ref["u"])
        assert over["per_step"] == ref["per_step"]
        assert over["injections"] == ref["injections"]


#: Per solver: the plans whose exchange an overlap-on run hides, and the
#: single-chunk kernel launch count of that run (unfused, fused).
SOLVER_OVERLAP = {
    "cg": ({"cg_iter_head"}, (320, 318)),
    "chebyshev": ({"cg_iter_head", "cheby_step"}, (340, 338)),
    "ppcg": ({"cg_iter_head", "ppcg_precon(10)", "ppcg_restart"}, (292, 290)),
    "jacobi": ({"jacobi_residual"}, (518, 514)),
}


class TestOverlapEverySolver:
    """Every solver's split ops — the CG head's ``cg_calc_w``, the
    Chebyshev and PPCG smoothing steps, and Jacobi's fused
    ``tea_leaf_residual + norm2_field`` — reproduce the synchronous run
    bit for bit, on one chunk and on four ranks, fused and unfused."""

    @pytest.mark.parametrize("fuse", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("nranks", [1, 4])
    @pytest.mark.parametrize("solver", list(SOLVER_OVERLAP))
    def test_bitwise_identical_with_pinned_sites(self, solver, nranks, fuse):
        def run(overlap):
            deck = dataclasses.replace(
                default_deck(n=48, solver=solver, end_step=2),
                tl_overlap=overlap,
                tl_fuse_kernels=fuse,
            )
            if nranks == 1:
                app = TeaLeaf(deck, model="openmp-f90")
            else:
                port = MultiChunkPort(
                    deck.grid(), nranks=nranks, model="openmp-f90"
                )
                app = TeaLeaf(deck, port=port)
            result = app.run()
            return _capture(app, result), result

        (ref, ref_result), (over, result) = run(False), run(True)
        np.testing.assert_array_equal(over["u"], ref["u"])
        assert over["per_step"] == ref["per_step"]
        assert over["summary"] == ref["summary"]
        # Jacobi's overlapped residual + norm feeds only the reported
        # error, never u, so the residual histories are compared too.
        assert [
            (s.solve.error, s.solve.history) for s in result.steps
        ] == [(s.solve.error, s.solve.history) for s in ref_result.steps]

        sites, launches = SOLVER_OVERLAP[solver]
        overlapped = {
            s["plan"] for s in result.comm["sites"] if s["kind"] == "overlap"
        }
        assert overlapped == sites
        if nranks == 1:
            assert result.trace.kernel_launches() == launches[fuse]
        assert_overlap_trace(ref, over, nranks)


def test_fused_overlap_step_launches_core_then_reducing_ring():
    """Jacobi's fused ``tea_leaf_residual + norm2_field`` head on one
    chunk: each overlapped step traces exactly two launches under the
    group's own spec, the core's without the reduction and the boundary
    ring's with it."""
    group = FusedGroup(
        (KernelCall("tea_leaf_residual"), KernelCall("norm2_field", (F.R,)))
    )
    deck = dataclasses.replace(
        default_deck(n=48, solver="jacobi", end_step=2),
        tl_overlap=True,
        tl_fuse_kernels=True,
    )
    result = TeaLeaf(deck, model="openmp-f90").run()
    launches = [
        (e.cells, e.has_reduction)
        for e in result.trace.events
        if e.kind is EventKind.KERNEL and e.name == group.spec.name
    ]
    steps = result.comm["overlap_steps"]
    assert steps == 2
    assert launches == [(46 * 46, False), (48 * 48 - 46 * 46, True)] * steps
