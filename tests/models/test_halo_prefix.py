"""Halo prefixes: under ``--fuse`` a refresh runs inside the launch that reads it.

The plan compiler folds a reflective halo refresh into the kernel call or
fused group right behind it when that traversal stencil-reads every
refreshed field (``plan._prefix_halos``).  On the single-chunk ports that
fuse, each ghost cell the 5-point stencil reads mirrors the cell that
reads it, so the prefix changes no bit: the differential harness
(``test_equivalence.py``) pins that on every fusing port, solver and
flag set, and that only unread refreshes stay standalone.  Here: the
compiler pass, the refresh landing before the members of a hand-built
executor's group, and, against the compiler with the pass switched off,
that each prefixed refresh costs exactly one launch less while the comm
ledger still counts it.
"""

import gc

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf, solve_step_plans
from repro.core.solvers.base import CG_ITER_HEAD
from repro.core.solvers.cheby import CHEBY_HEAD, CHEBY_STEP
from repro.core.solvers.jacobi import JACOBI_RESIDUAL, JACOBI_STEP
from repro.core.solvers.ppcg import PPCG_RESTART
from repro.models import plan as plan_module
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
from tests.models import test_equivalence as harness
from tests.models.test_equivalence import (
    FUSING_MODELS,
    PLAIN,
    SETUPS,
    Row,
    flags,
    run_row,
    solve,
)

FUSE = flags("fuse")


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
        # The copy of u into r reads no stencil, and jacobi_iterate
        # stencil-reads r (the copy), not u.
        assert kinds(JACOBI_STEP.compiled(fuse=True)) == [
            "HaloStep",
            "KernelCall",
            "KernelCall",
        ]
        ops = [s.op for s in JACOBI_STEP.steps[1:]]
        assert ops == ["copy_field", "jacobi_iterate"]

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
# against the compiler without the prefix pass
# --------------------------------------------------------------------- #
def _clear_compiled_plans():
    for obj in gc.get_objects():
        if isinstance(obj, Plan):
            obj._compiled.clear()


@pytest.fixture(scope="module")
def unprefixed():
    """Each fusing port's fused solve of every setup, compiled without
    halo prefixes: a plan no user can reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "_prefix_halos", list)
        _clear_compiled_plans()
        try:
            return {
                (model, setup): run_row(Row(setup, model, FUSE))
                for model in FUSING_MODELS
                for setup in SETUPS
            }
        finally:
            _clear_compiled_plans()


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_one_launch_fewer_per_prefixed_halo(unprefixed, setup):
    for model in FUSING_MODELS:
        before = unprefixed[model, setup]
        after = solve(Row(setup, model, FUSE))
        assert after.u_sha == before.u_sha, model
        prefixed = (
            before.signature["kernel_histogram"]["halo_update"]
            - after.signature["kernel_histogram"]["halo_update"]
        )
        assert prefixed > 0, model
        launches = before.signature["kernel_launches"] - after.signature["kernel_launches"]
        assert launches == prefixed, model
        # Every exchange is still one ledger entry, standalone or prefix.
        unfused = solve(Row(setup, model, PLAIN))
        assert after.comm["halo_steps"] == before.comm["halo_steps"] == unfused.comm[
            "halo_steps"
        ]


# The end-to-end checks are harness rows; these ids stay as their aliases.
#: Family -> (deck suffix, flags): poison runs for two steps.
FAMILIES = {
    "plain": ("", FUSE),
    "poison": ("@2", flags("codegen+fuse+poison+residency")),
    "resilient": ("", flags("fuse+residency+resilient")),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_prefix_is_bitwise_invisible(setup, family):
    suffix, flag_set = FAMILIES[family]
    harness.check(*(Row(setup + suffix, m, flag_set) for m in FUSING_MODELS))


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_only_unread_refreshes_stay_standalone(setup):
    harness.check(*(Row(setup, m, FUSE) for m in FUSING_MODELS))
