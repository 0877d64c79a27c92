"""Unit tests for the kernel-plan IR: fusion legality, barrier hoisting,
compile caching, and executor semantics.

The behavioural guarantees (bitwise-identical results fused vs unfused)
live in ``test_plan_execution.py``; this file pins the *compiler* — which
adjacent calls may share a traversal and which must not.
"""

import pytest

from repro.core import fields as F
from repro.core.grid import Grid2D
from repro.models.base import available_models, make_port
from repro.models.plan import (
    OPS,
    BarrierStep,
    Bind,
    CommStats,
    FusedGroup,
    HaloStep,
    KernelCall,
    Plan,
    PlanExecutor,
    ScalarStep,
    check_finite,
    executor_for,
    fused_spec,
)
from repro.util.errors import CorruptionError


class TestFusionLegality:
    def test_precondition_and_dot_fuse(self):
        # The PCG tail's precondition + r.z pair: z is written same-cell,
        # dot reads it same-cell — legal in one traversal.
        plan = Plan(
            "t",
            (
                KernelCall("cg_precon_jacobi"),
                KernelCall("dot_fields", (F.R, F.Z), out="rrz"),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert len(steps) == 1 and isinstance(steps[0], FusedGroup)

    def test_pcg_setup_fuses_to_one_traversal(self):
        plan = Plan(
            "t",
            (
                KernelCall("cg_precon_jacobi"),
                KernelCall("ppcg_calc_p", (0.0,)),
                KernelCall("dot_fields", (F.R, F.Z), out="rro"),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert len(steps) == 1
        assert len(steps[0].calls) == 3

    def test_stencil_read_after_write_blocks_fusion(self):
        # cg_calc_p writes p; cg_calc_w reads p through the stencil —
        # neighbour cells would see mid-traversal values.
        plan = Plan(
            "t",
            (
                KernelCall("cg_calc_p", (Bind("beta"),)),
                KernelCall("cg_calc_w", out="pw"),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert len(steps) == 2

    def test_stencil_write_after_read_blocks_fusion(self):
        # tea_leaf_residual stencil-reads u; cg_calc_ur writes u.
        plan = Plan(
            "t",
            (
                KernelCall("tea_leaf_residual"),
                KernelCall("cg_calc_ur", (0.5,), out="rrn"),
            ),
        )
        assert len(plan.compiled(fuse=True)) == 2

    def test_bind_produced_in_group_blocks_fusion(self):
        # The direction update needs beta, which only exists after the
        # group's reduction completes — it must not join.
        plan = Plan(
            "t",
            (
                KernelCall("dot_fields", (F.R, F.Z), out="beta"),
                KernelCall("ppcg_calc_p", (Bind("beta"),)),
            ),
        )
        assert len(plan.compiled(fuse=True)) == 2

    @pytest.mark.parametrize(
        "op", ["cheby_iterate", "ppcg_precon_inner", "jacobi_iterate", "copy_field"]
    )
    def test_structurally_unfusable_ops(self, op):
        assert not OPS[op].fusable

    def test_unfusable_neighbour_leaves_singletons(self):
        plan = Plan(
            "t",
            (
                KernelCall("cg_precon_jacobi"),
                KernelCall("copy_field", (F.Z, F.P)),
                KernelCall("dot_fields", (F.R, F.Z), out="rro"),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert [type(s).__name__ for s in steps] == ["KernelCall"] * 3

    def test_fuse_off_is_identity(self):
        steps = (
            KernelCall("cg_precon_jacobi"),
            KernelCall("dot_fields", (F.R, F.Z), out="rrz"),
        )
        plan = Plan("t", steps)
        assert plan.compiled(fuse=False) == list(steps)


class TestBarrierHoisting:
    PLAN = (
        KernelCall("set_field"),
        BarrierStep("begin_solve"),
        KernelCall("tea_leaf_init", (Bind("dt"), Bind("coefficient"))),
    )

    def test_transparent_barrier_hoists_around_group(self):
        plan = Plan("t", self.PLAN)
        steps = plan.compiled(fuse=True)
        # One fused traversal; the no-op barrier lands before it.
        assert [type(s).__name__ for s in steps] == ["BarrierStep", "FusedGroup"]
        assert len(steps[1].calls) == 2


class TestCompileCaching:
    def test_compiled_lists_are_cached_per_variant(self):
        plan = Plan(
            "t",
            (
                KernelCall("cg_precon_jacobi"),
                KernelCall("dot_fields", (F.R, F.Z), out="rrz"),
            ),
        )
        assert plan.compiled(True) is plan.compiled(True)
        assert plan.compiled(False) is plan.compiled(False)
        assert plan.compiled(True) is not plan.compiled(False)


class TestFusedSpec:
    def test_produced_fields_not_recounted_as_reads(self):
        calls = (
            KernelCall("cg_precon_jacobi"),  # reads r,kx,ky -> writes z
            KernelCall("dot_fields", (F.R, F.Z), out="rrz"),  # z produced
        )
        spec = fused_spec(calls)
        assert spec.name == "fused:cg_precon+dot_product"
        # r, kx, ky enter once; z is produced in-group, not re-read.
        assert spec.reads == 3
        assert spec.writes == 1
        assert spec.has_reduction
        assert spec.flops == OPS["cg_precon_jacobi"].spec().flops + OPS[
            "dot_fields"
        ].spec().flops


class TestCheckFinite:
    def test_passes_finite(self):
        assert check_finite("pw", 1.5) == 1.5

    def test_raises_with_historical_wording(self):
        with pytest.raises(CorruptionError, match="non-finite solver scalar pw"):
            check_finite("pw", float("nan"))


class _RecordingPort:
    """Minimal duck-typed port: records public kernel calls."""

    supports_fusion = False
    plan_executor = None

    def __init__(self):
        self.calls = []

    def cg_precon_jacobi(self):
        self.calls.append("cg_precon_jacobi")

    def dot_fields(self, a, b):
        self.calls.append(f"dot_fields({a},{b})")
        return 4.0

    def ppcg_calc_p(self, beta):
        self.calls.append(f"ppcg_calc_p({beta})")

    def update_halo(self, names, depth):
        self.calls.append(f"halo({','.join(names)},{depth})")

    def begin_solve(self):
        self.calls.append("begin_solve")


class TestExecutor:
    def test_executes_steps_and_returns_env(self):
        port = _RecordingPort()
        plan = Plan(
            "t",
            (
                HaloStep((F.P,), depth=2),
                KernelCall("cg_precon_jacobi"),
                KernelCall("dot_fields", (F.R, F.Z), out="rrz", finite=True),
                ScalarStep("beta", lambda env: env["rrz"] / 2.0),
                KernelCall("ppcg_calc_p", (Bind("beta"),)),
                BarrierStep("begin_solve"),
            ),
        )
        env = PlanExecutor(port).run(plan)
        assert env["rrz"] == 4.0 and env["beta"] == 2.0
        assert port.calls == [
            "halo(p,2)",
            "cg_precon_jacobi",
            "dot_fields(r,z)",
            "ppcg_calc_p(2.0)",
            "begin_solve",
        ]

    def test_fuse_requested_but_port_unsupported(self):
        port = _RecordingPort()
        assert PlanExecutor(port, fuse=True).fuse is False

    def test_executor_for_prefers_attached_executor(self):
        port = _RecordingPort()
        attached = PlanExecutor(port)
        port.plan_executor = attached
        assert executor_for(port) is attached

    def test_executor_for_bare_port_falls_back_unfused(self):
        port = _RecordingPort()
        ex = executor_for(port)
        assert ex.port is port and ex.fuse is False

    def test_executor_for_rejects_inherited_executor(self):
        # A delegating proxy (the lockstep harness) exposes the inner
        # port's executor; reusing it would bypass the proxy.
        inner = _RecordingPort()
        inner.plan_executor = PlanExecutor(inner)

        class Proxy:
            def __getattr__(self, name):
                return getattr(inner, name)

        proxy = Proxy()
        ex = executor_for(proxy)
        assert ex is not inner.plan_executor
        assert ex.port is proxy


class TestCommStats:
    def test_sync_halo_is_fully_exposed(self):
        stats = CommStats()
        stats.record_halo("p", ("x",), 2, comm_ms=1.5)
        d = stats.as_dict()
        assert d["comm_ms"] == d["exposed_ms"] == pytest.approx(1.5)
        assert d["halo_steps"] == 1
        assert d["sites"][0]["depth"] == 2

    def test_sites_aggregate_by_key(self):
        stats = CommStats()
        for _ in range(10):
            stats.record_halo("p", ("u",), 1, comm_ms=0.1)
        d = stats.as_dict()
        assert len(d["sites"]) == 1
        assert d["sites"][0]["count"] == 10


class TestFusionAcrossHalos:
    def test_disjoint_halo_hoists_before_group(self):
        # The halo touches only u; the group reads/writes r, z, p — the
        # exchange commutes with every member and runs first, letting the
        # calls on either side share a traversal.
        plan = Plan(
            "t",
            (
                KernelCall("cg_precon_jacobi"),
                HaloStep((F.U,), depth=1),
                KernelCall("ppcg_calc_p", (0.0,)),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert [type(s).__name__ for s in steps] == ["HaloStep", "FusedGroup"]
        assert len(steps[1].calls) == 2

    def test_overlapping_halo_still_splits_group(self):
        # The halo refreshes z, which the open group just wrote: hoisting
        # it would reflect stale boundary values.  It must stay a fence.
        plan = Plan(
            "t",
            (
                KernelCall("cg_precon_jacobi"),
                HaloStep((F.Z,), depth=1),
                KernelCall("ppcg_calc_p", (0.0,)),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert [type(s).__name__ for s in steps] == [
            "KernelCall",
            "HaloStep",
            "KernelCall",
        ]

    def test_halo_reading_group_member_splits(self):
        # The halo touches p, read (same-cell) and written by the group.
        plan = Plan(
            "t",
            (
                KernelCall("cg_calc_p", (0.5,)),
                HaloStep((F.P,), depth=1),
                KernelCall("cg_precon_jacobi"),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert [type(s).__name__ for s in steps] == [
            "KernelCall",
            "HaloStep",
            "KernelCall",
        ]

    def test_leading_halo_passes_through(self):
        # No group open yet: the halo stays in place, the following pair
        # still fuses.
        plan = Plan(
            "t",
            (
                HaloStep((F.P,), depth=1),
                KernelCall("cg_precon_jacobi"),
                KernelCall("dot_fields", (F.R, F.Z), out="rrz"),
            ),
        )
        steps = plan.compiled(fuse=True)
        assert [type(s).__name__ for s in steps] == ["HaloStep", "FusedGroup"]


class TestFusionAudit:
    """The WAW / pointwise-RAW audit every constructed group re-checks."""

    def test_same_cell_raw_and_waw_are_legal(self):
        # ppcg_precon_init writes w/sd/z; ppcg_calc_p reads z same-cell.
        # Bodies run in order per cell, so the group is representable.
        group = FusedGroup(
            (
                KernelCall("ppcg_precon_init", (2.0,)),
                KernelCall("ppcg_calc_p", (0.5,)),
            )
        )
        assert len(group.calls) == 2

    def test_stencil_raw_group_is_unrepresentable(self):
        from repro.util.errors import ModelError

        with pytest.raises(ModelError, match="stencil-reads"):
            FusedGroup(
                (
                    KernelCall("cg_calc_p", (0.5,)),
                    KernelCall("cg_calc_w", out="pw"),
                )
            )

    def test_stencil_war_group_is_unrepresentable(self):
        from repro.util.errors import ModelError

        with pytest.raises(ModelError, match="stencil-reads"):
            FusedGroup(
                (
                    KernelCall("tea_leaf_residual"),
                    KernelCall("cg_calc_ur", (0.5,), out="rrn"),
                )
            )

    def test_unfusable_member_is_unrepresentable(self):
        from repro.util.errors import ModelError

        with pytest.raises(ModelError, match="not a fusable"):
            FusedGroup(
                (
                    KernelCall("set_field"),
                    KernelCall("copy_field", (F.U, F.R)),
                )
            )

    def test_bind_dependency_is_unrepresentable(self):
        from repro.util.errors import ModelError

        with pytest.raises(ModelError, match="binds"):
            FusedGroup(
                (
                    KernelCall("dot_fields", (F.R, F.Z), out="beta"),
                    KernelCall("ppcg_calc_p", (Bind("beta"),)),
                )
            )

    def test_no_illegal_fusion_reachable_from_solver_plans(self):
        # Regression sweep: compile every solver's plan fragments (plus
        # the driver prologue/epilogue) in all variants; FusedGroup
        # construction audits each group, so an illegal one would raise.
        import dataclasses

        from repro.core.deck import default_deck
        from repro.core.driver import solve_step_plans
        from repro.core.solvers import solver_plan_fragments
        from repro.models.plan import audit_fusion

        groups = 0
        for solver in ("cg", "chebyshev", "ppcg", "jacobi"):
            deck = default_deck(n=16, solver=solver, end_step=1)
            for precon in ("none", "jac_diag"):
                d = dataclasses.replace(deck, tl_preconditioner_type=precon)
                prologue, epilogue = solve_step_plans(d.grid().halo)
                for plan in (prologue, *solver_plan_fragments(d), epilogue):
                    for step in plan.compiled(True):
                        if isinstance(step, FusedGroup):
                            audit_fusion(step.calls)  # re-check explicitly
                            groups += 1
        assert groups > 0


class TestWawBitwiseEquivalence:
    def test_waw_group_matches_sequential_dispatch(self):
        # Two members writing the same fields (w/sd/z twice): on every
        # fusing port the lowered group must equal back-to-back
        # interpreted dispatch bit for bit, in one launch instead of three.
        import numpy as np

        from repro.core.deck import default_deck
        from repro.core.driver import TeaLeaf
        from repro.models.codegen import lower_steps

        deck = default_deck(n=24, solver="cg", end_step=1)
        calls = (
            KernelCall("ppcg_precon_init", (2.0,)),
            KernelCall("ppcg_precon_init", (4.0,)),
            KernelCall("ppcg_calc_p", (0.5,)),
        )
        (step,) = lower_steps([FusedGroup(calls)])

        def run(model, fused):
            app = TeaLeaf(deck, model=model)
            app.run()
            port = app.port
            before = app.trace.kernel_launches()
            if fused:
                port.dispatch_compiled(step, step.argv)
            else:
                for c in calls:
                    port.dispatch(c)
            launches = app.trace.kernel_launches() - before
            fields = {
                name: port.read_field(name).copy()
                for name in (F.W, F.SD, F.Z, F.P)
            }
            return fields, launches

        fusing = [
            m
            for m in available_models()
            if make_port(m, Grid2D(nx=8, ny=8)).supports_fusion
        ]
        assert fusing
        for model in fusing:
            (a, na), (b, nb) = run(model, fused=True), run(model, fused=False)
            assert (na, nb) == (1, 3), model
            for name in a:
                np.testing.assert_array_equal(
                    a[name], b[name], err_msg=f"{model}: {name}"
                )
