"""Unit tests for the async overlap executor.

Pins the pieces the bitwise equivalence suite builds on: the
interior/boundary partition covers every cell exactly once, region
slices reproduce whole-interior sweeps bit for bit (the core over its
span wherever ``stencil.flat`` accepts the arrays, 2-D slices
elsewhere), the legality pass refuses the WAR and phase hazards (and
only those), and fallbacks are recorded instead of silently dropped.
"""

import dataclasses
import tracemalloc

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
    SpanSlices,
    interior_partition,
    overlap_reason,
    region_views,
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


# --------------------------------------------------------------------- #
# region views
# --------------------------------------------------------------------- #
def test_region_views_are_built_once_per_chunk(monkeypatch):
    """A chunk's partition and scratch views never change, so the core
    and its four strips are built on the first overlapped step and
    reused by every later one: 5 constructions per chunk in total."""
    from repro.comm.multichunk import MultiChunkPort

    built = []
    init = RegionSlices.__init__

    def counting_init(self, ctx, region):
        built.append(region)
        init(self, ctx, region)

    monkeypatch.setattr(RegionSlices, "__init__", counting_init)
    deck = dataclasses.replace(
        default_deck(n=32, solver="cg", end_step=2), tl_overlap=True
    )
    port = MultiChunkPort(deck.grid(), nranks=4)
    result = TeaLeaf(deck, port=port).run()
    assert result.comm["overlap_steps"] >= 10
    assert len(built) == 5 * 4
    assert all(chunk._codegen_ctx().regions is not None for chunk in port.ports)


# --------------------------------------------------------------------- #
# the core over its span
# --------------------------------------------------------------------- #
def _warm_port(port, n):
    """``port`` with kx/ky built and random values in every work field."""
    init = KernelCall("tea_leaf_init", (0.004, "conductivity"))
    step = codegen.lower_steps([init])[0]
    rng = np.random.default_rng(n)
    for name in (F.DENSITY, F.ENERGY1, F.P, F.R, F.W, F.Z, F.SD, F.U, F.U0):
        port.write_field(name, rng.random(port.grid.shape) + 0.5)
    ctx = port._codegen_ctx()
    step.fn(ctx, step.argv)
    return ctx


#: Each split op's sweep, with arguments that make it run for real.
SWEEPS = [
    KernelCall("tea_leaf_residual"),
    KernelCall("cg_calc_w"),
    KernelCall("cheby_iterate", (0.5, 0.25)),
    KernelCall("ppcg_precon_inner", (0.5, 0.25)),
]


class TestSpanCore:
    def test_core_spans_and_strips_stay_2d(self):
        deck = default_deck(n=24, end_step=1)
        ctx = make_port("openmp-f90", deck.grid())._codegen_ctx()
        core, strips = region_views(ctx)
        assert type(core) is SpanSlices
        assert {type(S) for S in strips} == {RegionSlices}

    @settings(max_examples=40, deadline=None)
    @given(
        ny=st.integers(min_value=3, max_value=20),
        nx=st.integers(min_value=3, max_value=20),
        call=st.sampled_from(SWEEPS),
    )
    def test_span_core_sweep_is_the_2d_core_sweep(self, ny, nx, call):
        """Every split op's sweep over the core's span writes the bits
        of the same sweep over the core's 2-D slices, and nothing else."""
        grid = Grid2D(nx, ny)
        out = {}
        for cls in (SpanSlices, RegionSlices):
            port = make_port("openmp-f90", grid)
            ctx = _warm_port(port, ny * 100 + nx)
            core = cls(ctx, interior_partition(ny, nx, 1)[0])
            codegen.OP_DEFS[call.op].sweep(ctx, core, call.args)
            out[cls] = {n: ctx.array(n).copy() for n in F.FIELD_ORDER}
        for name in F.FIELD_ORDER:
            np.testing.assert_array_equal(
                out[SpanSlices][name], out[RegionSlices][name], err_msg=name
            )


class TestLayoutLeftOverlap:
    """A Kokkos ``Layout.LEFT`` port stores column-major views, which
    ``stencil.flat`` refuses, so its core keeps 2-D slices."""

    def _port(self, grid):
        from repro.models.kokkos import Layout
        from repro.models.kokkos_port import KokkosPort

        return KokkosPort(grid, layout=Layout.LEFT)

    def test_runs_without_fallback_and_matches_the_plain_run(self):
        deck = default_deck(n=24, solver="cg", end_step=2)
        plain = TeaLeaf(deck, port=self._port(deck.grid()))
        plain.run()
        app = TeaLeaf(
            dataclasses.replace(deck, tl_overlap=True),
            port=self._port(deck.grid()),
        )
        result = app.run()
        assert result.fallbacks == []
        assert result.comm["overlap_steps"] > 0
        np.testing.assert_array_equal(app.field(F.U), plain.field(F.U))
        core, _ = region_views(app.port._codegen_ctx())
        assert type(core) is RegionSlices

    @pytest.mark.parametrize("call", SWEEPS, ids=lambda c: c.op)
    def test_core_sweep_allocates_less_than_one_interior_array(self, call):
        """NumPy buffers a column-major operand in fixed 8192-cell
        blocks, so the bound holds at 256²; flattening the padded
        arrays would copy each of them whole."""
        n = 256
        ctx = _warm_port(self._port(Grid2D(n, n)), n)
        core, _ = region_views(ctx)
        sweep = codegen.OP_DEFS[call.op].sweep
        sweep(ctx, core, call.args)
        tracemalloc.start()
        try:
            sweep(ctx, core, call.args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"{call.op} core sweep peaked at {peak} bytes"
