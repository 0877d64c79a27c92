"""Halo prefixes: under ``--fuse`` a refresh runs inside the launch that reads it.

The plan compiler folds a reflective halo refresh into the kernel call or
fused group right behind it when that traversal stencil-reads every
refreshed field (``plan._prefix_halos``).  On the single-chunk ports that
fuse, each ghost cell the 5-point stencil reads mirrors the cell that
reads it, so the prefix changes no bit: these tests pin the solution,
the iteration trajectory, the residual histories and the summaries
against the unfused interpreted run on every fusing port and solver —
plain, under fault injection with recovery, and under dead-field poison
(a fused run always runs compiled) — and pin that each prefixed refresh
costs exactly one launch less while the comm ledger and the checkpoint
write journal still count it.
"""

import dataclasses
import gc

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf, solve_step_plans
from repro.core.grid import Grid2D
from repro.core.solvers.base import CG_ITER_HEAD
from repro.core.solvers.cheby import CHEBY_HEAD, CHEBY_STEP
from repro.core.solvers.jacobi import JACOBI_RESIDUAL, JACOBI_STEP
from repro.core.solvers.ppcg import PPCG_RESTART
from repro.models import plan as plan_module
from repro.models.base import available_models, make_port
from repro.models.plan import (
    CompiledKernel,
    FaultStep,
    FusedGroup,
    GuardStep,
    HaloStep,
    KernelCall,
    Plan,
    render_step,
)
from repro.util.errors import ModelError

SETUPS = {
    "cg": ("cg", "none"),
    "cg-jac_diag": ("cg", "jac_diag"),
    "chebyshev": ("chebyshev", "none"),
    "ppcg": ("ppcg", "none"),
    "jacobi": ("jacobi", "none"),
}

FUSING_MODELS = [
    m for m in available_models() if make_port(m, Grid2D(nx=8, ny=8)).supports_fusion
]

#: Flag families the prefix must stay invisible under.
FAMILIES = {
    "plain": {},
    "resilient": {"tl_resilient": True, "tl_inject": "nan:u:5,raise:update_halo:9"},
    "poison": {"tl_poison_dead_fields": True},
}


def kinds(steps):
    return [type(s).__name__ for s in steps]


# --------------------------------------------------------------------- #
# the compiler pass
# --------------------------------------------------------------------- #
class TestPrefixPass:
    def test_cg_head_refreshes_inside_cg_calc_w(self):
        (step,) = CG_ITER_HEAD.compiled(fuse=True)
        assert isinstance(step, FusedGroup)
        assert step.halo == HaloStep((F.P,), depth=1)
        assert [c.op for c in step.calls] == ["cg_calc_w"]
        # A one-member group launches under its member's own spec.
        assert step.spec.name == "cg_calc_w"

    @pytest.mark.parametrize(
        "plan", [CHEBY_HEAD, CHEBY_STEP, PPCG_RESTART], ids=lambda p: p.name
    )
    def test_lone_sweeps_take_the_prefix(self, plan):
        groups = [s for s in plan.compiled(fuse=True) if isinstance(s, FusedGroup)]
        assert len(groups) == 1 and groups[0].halo is not None
        assert not any(isinstance(s, HaloStep) for s in plan.compiled(fuse=True))

    def test_every_preconditioner_step_takes_the_prefix(self):
        from repro.core.solvers.eigenvalue import EigenEstimate
        from repro.core.solvers.ppcg import polynomial_preconditioner_plan

        estimate = EigenEstimate(eigen_min=0.1, eigen_max=8.0)
        plan = polynomial_preconditioner_plan(estimate, 4)
        steps = plan.compiled(fuse=True)
        assert kinds(steps) == ["KernelCall"] + ["FusedGroup"] * 4
        assert all(s.halo == HaloStep((F.SD,), depth=1) for s in steps[1:])

    def test_jacobi_residual_prefix_leads_the_fused_pair(self):
        (step,) = JACOBI_RESIDUAL.compiled(fuse=True)
        assert step.halo == HaloStep((F.U,), depth=1)
        assert [c.op for c in step.calls] == ["tea_leaf_residual", "norm2_field"]
        assert step.spec.name == "fused:tea_leaf_residual+norm2"

    def test_jacobi_sweep_keeps_its_refresh(self):
        # jacobi_iterate stencil-reads r (its stash of u), not u.
        assert kinds(JACOBI_STEP.compiled(fuse=True)) == ["HaloStep", "KernelCall"]

    def test_prologue_refresh_has_no_consumer(self):
        prologue, _ = solve_step_plans(2)
        assert kinds(prologue.compiled(fuse=True)) == [
            "BarrierStep",
            "FusedGroup",
            "HaloStep",
        ]

    def test_unfused_plans_keep_every_refresh(self):
        for plan in (CG_ITER_HEAD, CHEBY_HEAD, CHEBY_STEP, JACOBI_RESIDUAL):
            assert plan.compiled(fuse=False) == list(plan.steps)

    def test_prefix_needs_a_stencil_read_of_every_refreshed_field(self):
        with pytest.raises(ModelError, match="illegal halo prefix"):
            FusedGroup(
                (KernelCall("cg_calc_p", (0.5,)),), halo=HaloStep((F.P,), depth=1)
            )
        with pytest.raises(ModelError, match=r"stencil-reads \['u'\]"):
            FusedGroup(
                (KernelCall("cg_calc_w", out="pw"),),
                halo=HaloStep((F.P, F.U), depth=1),
            )

    def test_compound_op_never_runs_inside_a_group(self):
        # jacobi_iterate's public method stashes u in r before the sweep.
        halo = HaloStep((F.R,), depth=1)
        call = KernelCall("jacobi_iterate", out="change")
        with pytest.raises(ModelError, match="more than one operation"):
            FusedGroup((call,), halo=halo)
        assert kinds(Plan("t", (halo, call)).compiled(fuse=True)) == [
            "HaloStep",
            "KernelCall",
        ]

    def test_lone_unfusable_member_still_cannot_join_others(self):
        with pytest.raises(ModelError, match="not a fusable"):
            FusedGroup(
                (KernelCall("cheby_init", (2.0,)), KernelCall("set_field")),
                halo=HaloStep((F.U,), depth=1),
            )

    def test_exchange_fault_point_comes_first(self):
        steps = CG_ITER_HEAD.compiled(fuse=True, instrument=True)
        assert kinds(steps) == ["FaultStep", "FaultStep", "FusedGroup", "GuardStep"]
        assert steps[0] == FaultStep(("update_halo",))
        assert steps[1] == FaultStep(("cg_calc_w",))
        assert isinstance(steps[3], GuardStep) and steps[3].guard == "pw"

    def test_codegen_lowers_the_prefixed_group_to_one_launch(self):
        (step,) = CG_ITER_HEAD.compiled(fuse=True, codegen=True)
        assert isinstance(step, CompiledKernel)
        assert step.halo == HaloStep((F.P,), depth=1)
        assert [name for name, _ in step.launches] == ["cg_calc_w"]
        assert step.reductions == ("cg_calc_w",)

    def test_render(self):
        (step,) = CG_ITER_HEAD.compiled(fuse=True)
        assert render_step(step) == (
            "fused[1] cg_calc_w  { prefix update_halo(p, depth=1); "
            "pw = cg_calc_w()   # reduction; writes w }"
        )
        (lowered,) = CG_ITER_HEAD.compiled(fuse=True, codegen=True)
        assert render_step(lowered).startswith(
            "compiled[1] cg_calc_w  { prefix update_halo(p, depth=1); "
            "pw = cg_calc_w()"
        )


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("codegen", [False, True], ids=["interpreted", "codegen"])
@pytest.mark.parametrize("model", FUSING_MODELS)
def test_refresh_lands_before_the_members(model, codegen):
    """The boundary faces' coefficients are zero, so a stale ghost only
    shows when it is not finite: NaN ghosts make ``p.w`` NaN unless the
    prefix refreshes them before ``cg_calc_w`` reads them.  The fused run
    always runs compiled; ``codegen`` picks the unfused reference's path."""
    from repro.models.plan import PlanExecutor

    out = {}
    for fuse in (False, True):
        app = TeaLeaf(default_deck(n=16, solver="cg", end_step=1), model=model)
        app.run()
        p = app.port._device_array(F.P)
        h = app.grid.halo
        for ghosts in (np.s_[:h, :], np.s_[-h:, :], np.s_[:, :h], np.s_[:, -h:]):
            p[ghosts] = np.nan
        ex = PlanExecutor(app.port, fuse=fuse, codegen=codegen)
        assert ex.codegen is (fuse or codegen)
        launches = app.trace.kernel_launches()
        env = ex.run(CG_ITER_HEAD)
        out[fuse] = (
            env["pw"],
            app.trace.kernel_launches() - launches,
            app.port.read_field(F.P),
            app.port.read_field(F.W),
        )
    (pw0, n0, p0, w0), (pw1, n1, p1, w1) = out[False], out[True]
    assert np.isfinite(pw1) and pw1 == pw0
    assert (n0, n1) == (2, 1)
    np.testing.assert_array_equal(p1, p0)
    np.testing.assert_array_equal(w1, w0)


# --------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------- #
def solve(model, setup, **flags):
    solver, precon = SETUPS[setup]
    deck = dataclasses.replace(
        default_deck(n=32, solver=solver, end_step=1),
        tl_preconditioner_type=precon,
        **flags,
    )
    app = TeaLeaf(deck, model=model)
    result = app.run()
    hist = result.trace.kernel_histogram()
    # Incremental checkpoints copy what the write journal names.
    ck = app.resilience.checkpoints if app.resilience else None
    return {
        "u": app.field(F.U),
        "iterations": result.total_iterations,
        "history": [(s.solve.error, s.solve.history) for s in result.steps],
        "summary": result.final_summary,
        "halo_steps": result.comm["halo_steps"],
        "launches": result.trace.kernel_launches(),
        "halo_launches": hist["halo_update"],
        "fallbacks": result.fallbacks,
        "injections": result.resilience.injections if result.resilience else 0,
        "journal": (ck.periodic_bytes_copied, ck.periodic_bytes_full) if ck else None,
    }


def _clear_compiled_plans():
    for obj in gc.get_objects():
        if isinstance(obj, Plan):
            obj._compiled.clear()


@pytest.fixture(scope="module")
def prefix_runs():
    """Per fusing port, setup and flag family: the unfused run, the fused
    run, and the fused run without prefixes."""
    runs = {}
    for model in FUSING_MODELS:
        for setup in SETUPS:
            for family, flags in FAMILIES.items():
                runs[model, setup, family] = {
                    # Poisoned runs answer to the plain unfused run.
                    "unfused": runs[model, setup, "plain"]["unfused"]
                    if family == "poison"
                    else solve(model, setup, **flags),
                    "fused": solve(model, setup, tl_fuse_kernels=True, **flags),
                }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "_prefix_halos", list)
        _clear_compiled_plans()
        try:
            for model in FUSING_MODELS:
                for setup in SETUPS:
                    runs[model, setup, "plain"]["unprefixed"] = solve(
                        model, setup, tl_fuse_kernels=True
                    )
        finally:
            _clear_compiled_plans()
    return runs


RESULT_KEYS = (
    "iterations", "history", "summary", "halo_steps", "injections", "journal",
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_prefix_is_bitwise_invisible(prefix_runs, setup, family):
    for model in FUSING_MODELS:
        run = prefix_runs[model, setup, family]
        base = run["unfused"]
        assert base["fallbacks"] == []
        got = run["fused"]
        assert got["fallbacks"] == [], model
        np.testing.assert_array_equal(got["u"], base["u"], err_msg=model)
        for key in RESULT_KEYS:
            assert got[key] == base[key], f"{model}: {key}"
        if family == "resilient":
            assert base["injections"] == 2, model
            assert base["journal"][0] > 0, model


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_one_launch_fewer_per_prefixed_halo(prefix_runs, setup):
    for model in FUSING_MODELS:
        run = prefix_runs[model, setup, "plain"]
        before, after = run["unprefixed"], run["fused"]
        np.testing.assert_array_equal(after["u"], before["u"], err_msg=model)
        prefixed = before["halo_launches"] - after["halo_launches"]
        assert prefixed > 0, model
        assert before["launches"] - after["launches"] == prefixed, model
        # Every exchange is still one ledger entry, standalone or prefix.
        assert after["halo_steps"] == before["halo_steps"] == run["unfused"][
            "halo_steps"
        ]


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_only_unread_refreshes_stay_standalone(prefix_runs, setup):
    """The prologue's refresh (one per step) has no consumer; Jacobi's
    sweep refreshes u but stencil-reads r.  Every other refresh is a
    prefix, so these are the only standalone halo launches left."""
    for model in FUSING_MODELS:
        run = prefix_runs[model, setup, "plain"]
        standalone = 1  # the prologue, one step
        if setup == "jacobi":
            standalone += run["unfused"]["iterations"]
        assert run["fused"]["halo_launches"] == standalone, model
