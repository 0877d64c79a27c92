"""Unit tests for the async overlap executor.

Pins the pieces the bitwise equivalence suite builds on: the
interior/boundary partition covers every cell exactly once, region
slices reproduce whole-interior sweeps bit for bit, the legality pass
refuses the WAR and phase hazards (and only those), fallbacks are
recorded instead of silently dropped, and the codegen cache stats are
scoped per run.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.grid import Grid2D
from repro.models import codegen
from repro.models.base import make_port
from repro.models.overlap import (
    CommStats,
    RegionSlices,
    interior_partition,
    overlap_reason,
)
from repro.models.plan import (
    HaloStep,
    KernelCall,
    OverlapStep,
    Plan,
    PlanExecutor,
)


# --------------------------------------------------------------------- #
# interior/boundary partition
# --------------------------------------------------------------------- #
class TestInteriorPartition:
    @settings(max_examples=200, deadline=None)
    @given(
        ny=st.integers(min_value=1, max_value=40),
        nx=st.integers(min_value=1, max_value=40),
        depth=st.integers(min_value=1, max_value=3),
    )
    def test_every_cell_covered_exactly_once(self, ny, nx, depth):
        cover = np.zeros((ny, nx), dtype=int)
        core, strips = interior_partition(ny, nx, depth)
        regions = list(strips) + ([core] if core is not None else [])
        for r in regions:
            cover[r.r0 : r.r1, r.c0 : r.c1] += 1
        assert (cover == 1).all()
        assert sum(r.cells for r in regions) == ny * nx

    def test_tiny_mesh_has_no_core(self):
        core, strips = interior_partition(2, 2, 1)
        assert core is None
        assert sum(r.cells for r in strips) == 4

    def test_core_is_inset_by_depth(self):
        core, _ = interior_partition(10, 12, 2)
        assert (core.r0, core.r1, core.c0, core.c1) == (2, 8, 2, 10)

    @settings(max_examples=60, deadline=None)
    @given(
        ny=st.integers(min_value=3, max_value=24),
        nx=st.integers(min_value=3, max_value=24),
    )
    def test_region_split_stencil_matches_full_sweep(self, ny, nx):
        """A 5-point stencil evaluated region by region is bitwise the
        whole-interior evaluation — same slice expressions, shifted."""
        h = 2
        rng = np.random.default_rng(ny * 100 + nx)
        a = rng.random((ny + 2 * h, nx + 2 * h))
        inner = (slice(h, h + ny), slice(h, h + nx))

        full = np.zeros_like(a)
        full[inner] = (
            a[h - 1 : h + ny - 1, h : h + nx]
            + a[h + 1 : h + ny + 1, h : h + nx]
            + a[h : h + ny, h - 1 : h + nx - 1]
            + a[h : h + ny, h + 1 : h + nx + 1]
        )

        split = np.zeros_like(a)
        ctx = codegen.CodegenContext(lambda name: a, Grid2D(nx, ny, halo=h))
        core, strips = interior_partition(ny, nx, 1)
        regions = list(strips) + ([core] if core is not None else [])
        for r in regions:
            S = RegionSlices(ctx, r)
            split[S.I, S.J] = (
                a[S.Im, S.J] + a[S.Ip, S.J] + a[S.I, S.Jm] + a[S.I, S.Jp]
            )
        np.testing.assert_array_equal(split[inner], full[inner])


# --------------------------------------------------------------------- #
# legality pass
# --------------------------------------------------------------------- #
class TestOverlapLegality:
    def test_cheby_step_is_overlappable(self):
        # The Chebyshev iterate stencil-reads sd and only writes it in
        # the epilogue (after the wait) — legal.
        halo = HaloStep((F.SD,), depth=1)
        body = KernelCall("cheby_iterate", (0.1, 0.2))
        assert overlap_reason(halo, body) is None
        steps = Plan("t", (halo, body)).compiled(fuse=False, overlap=True)
        assert any(isinstance(s, OverlapStep) for s in steps)

    def test_cg_head_is_overlappable(self):
        halo = HaloStep((F.P,), depth=1)
        body = KernelCall("cg_calc_w", out="pw")
        assert overlap_reason(halo, body) is None

    def test_war_hazard_on_exchanged_field_refused(self):
        """Regression: tea_leaf_residual *body*-writes r.  Overlapping a
        depth-2 r exchange would let the interior sweep mutate the edge
        layers the exchange packed (or still has to pack) — refuse."""
        halo = HaloStep((F.R,), depth=2)
        body = KernelCall("tea_leaf_residual")
        reason = overlap_reason(halo, body)
        assert reason is not None and "WAR" in reason
        steps = Plan("t", (halo, body)).compiled(fuse=False, overlap=True)
        assert not any(isinstance(s, OverlapStep) for s in steps)
        # The pair stays a synchronous exchange + full sweep.
        assert isinstance(steps[0], HaloStep)

    def test_untemplated_kernel_refused(self):
        halo = HaloStep((F.R,), depth=1)
        body = KernelCall("jacobi_iterate", (0.0,))
        reason = overlap_reason(halo, body)
        assert reason is not None and "template" in reason

    def test_unrelated_exchange_refused(self):
        # cg_calc_w stencil-reads p, not u — splitting buys nothing.
        halo = HaloStep((F.U,), depth=1)
        body = KernelCall("cg_calc_w", out="pw")
        reason = overlap_reason(halo, body)
        assert reason is not None and "stencil-read" in reason

    def test_non_kernel_step_refused(self):
        halo = HaloStep((F.U,), depth=1)
        assert overlap_reason(halo, HaloStep((F.P,), depth=1)) is not None

    def test_trailing_halo_not_paired(self):
        # A halo with no following kernel (the prologue shape) stays
        # synchronous.
        plan = Plan(
            "t",
            (KernelCall("tea_leaf_init", (0.04, 27.0)), HaloStep((F.U,), depth=2)),
        )
        steps = plan.compiled(fuse=False, overlap=True)
        assert not any(isinstance(s, OverlapStep) for s in steps)


# --------------------------------------------------------------------- #
# satellite 1: fallbacks are recorded, never silent
# --------------------------------------------------------------------- #
class TestFallbackRecording:
    def test_overlap_fallback_recorded(self):
        deck = default_deck(n=16, end_step=1)
        port = make_port("openmp-f90", deck.grid())
        port.supports_overlap = False
        ex = PlanExecutor(port, overlap=True)
        assert ex.overlap is False
        assert len(ex.fallbacks) == 1
        assert "overlap" in ex.fallbacks[0]

    def test_codegen_fallback_recorded_on_run_result(self, capsys):
        from repro.comm.multichunk import MultiChunkPort

        deck = dataclasses.replace(
            default_deck(n=32, end_step=1), tl_codegen=True
        )
        port = MultiChunkPort(deck.grid(), nranks=2)
        app = TeaLeaf(deck, port=port)
        result = app.run()
        assert app.executor.codegen is False
        assert result.fallbacks and "codegen" in result.fallbacks[0]
        assert "tealeaf: warning:" in capsys.readouterr().err

    def test_supported_flags_record_nothing(self):
        deck = dataclasses.replace(
            default_deck(n=16, end_step=1), tl_overlap=True, tl_codegen=True
        )
        app = TeaLeaf(deck, model="openmp-f90")
        result = app.run()
        assert result.fallbacks == []


# --------------------------------------------------------------------- #
# satellite 2: per-run codegen cache stats
# --------------------------------------------------------------------- #
class TestPerRunCacheStats:
    def test_second_run_is_all_hits(self):
        codegen.clear_cache()
        deck = dataclasses.replace(default_deck(n=16, end_step=1), tl_codegen=True)

        app1 = TeaLeaf(deck, model="openmp-f90")
        r1 = app1.run()
        assert r1.codegen_cache["misses"] > 0

        app2 = TeaLeaf(deck, model="openmp-f90")
        r2 = app2.run()
        # The warm second run compiles nothing new, and its per-run view
        # does not inherit the first run's misses.
        assert r2.codegen_cache["misses"] == 0
        assert r2.codegen_cache["hits"] > 0
        # The process-global counter keeps aggregating across runs.
        assert codegen.CACHE_STATS["misses"] == r1.codegen_cache["misses"]
        assert codegen.CACHE_STATS["hits"] >= (
            r1.codegen_cache["hits"] + r2.codegen_cache["hits"]
        )

    def test_interpreted_run_reports_zero(self):
        deck = default_deck(n=16, end_step=1)
        app = TeaLeaf(deck, model="openmp-f90")
        result = app.run()
        assert result.codegen_cache == {"hits": 0, "misses": 0}


# --------------------------------------------------------------------- #
# comm accounting
# --------------------------------------------------------------------- #
class TestCommStats:
    def test_overlap_hides_min_of_comm_and_interior(self):
        stats = CommStats()
        stats.record_overlap("p", ("x",), 1, comm_ms=2.0, interior_ms=5.0)
        stats.record_overlap("p", ("x",), 1, comm_ms=4.0, interior_ms=1.0)
        d = stats.as_dict()
        assert d["comm_ms"] == pytest.approx(6.0)
        assert d["hidden_ms"] == pytest.approx(3.0)  # min(2,5) + min(4,1)
        assert d["exposed_ms"] == pytest.approx(3.0)
        assert d["overlap_steps"] == 2 and d["halo_steps"] == 0

    def test_sync_halo_is_fully_exposed(self):
        stats = CommStats()
        stats.record_halo("p", ("x",), 2, comm_ms=1.5)
        d = stats.as_dict()
        assert d["exposed_ms"] == pytest.approx(1.5)
        assert d["hidden_ms"] == 0.0
        assert d["sites"][0]["depth"] == 2

    def test_sites_aggregate_by_key(self):
        stats = CommStats()
        for _ in range(10):
            stats.record_halo("p", ("u",), 1, comm_ms=0.1)
        d = stats.as_dict()
        assert len(d["sites"]) == 1
        assert d["sites"][0]["count"] == 10
