"""The compiled hot path: plan steps lowered to composed loop bodies.

The interpreted executor is faithful but slow: every kernel goes through
the port's dispatch and its model's runtime (a ``parallel for`` region,
a simulated device launch), so wall time is dominated by interpreter
frames rather than arithmetic.  This module lowers a compiled
:class:`~repro.models.plan.Plan` one step further: each
:class:`~repro.models.plan.KernelCall`, or whole
:class:`~repro.models.plan.FusedGroup`, becomes **one Python function**
that runs each op's sweeps from :data:`OP_DEFS` in turn over the port's
whole interior.  The sweeps are the OpenMP-C loop bodies of
:mod:`repro.models.loopbodies`, the one NumPy definition of each op, so
a codegen run is bit-for-bit the interpreted run on every port; a
reducing op folds its contribution through
:func:`~repro.models.reduction.deterministic_sum`, the tree every port
finalises with.  A fused group has no other body: every group the
executor runs is lowered here.

The functions hold no geometry and no scalars: grid facts arrive through
the port's whole-interior :class:`~repro.models.loopbodies.Slab`
(``Port._codegen_ctx``) and scalar arguments through a per-execution
``argv`` table, so one lowered step serves every port, grid and
iteration, and the per-plan ``Plan._compiled`` entry keyed by (fuse,
instrument, codegen) reuses each lowered step list wholesale across
iterations.
"""

from __future__ import annotations

from typing import Callable

from repro.core.kernels import KernelSpec
from repro.models import loopbodies as lb
from repro.models.plan import (
    OPS,
    Bind,
    CompiledKernel,
    FusedGroup,
    HaloStep,
    KernelCall,
)
from repro.models.reduction import deterministic_sum

Sweep = Callable[[lb.Slab, tuple], object]


#: Every op a plan can lower, as its sweeps, run in order over the whole
#: interior.  ``field_summary`` is absent: the driver dispatches it
#: outside any plan.
OP_DEFS: dict[str, tuple[Sweep, ...]] = {
    "set_field": (lb.set_field,),
    "tea_leaf_init": (lb.tea_leaf_init, lb.zero_walls),
    "tea_leaf_residual": (lb.tea_leaf_residual,),
    "cg_init": (lb.cg_init,),
    "cg_calc_w": (lb.cg_calc_w,),
    "cg_calc_ur": (lb.cg_calc_ur,),
    "cg_calc_p": (lb.cg_calc_p,),
    "ppcg_calc_p": (lb.ppcg_calc_p,),
    "cheby_init": (lb.cheby_init, lb.cheby_calc_u),
    "cheby_iterate": (lb.cheby_iterate_r, lb.cheby_iterate_sd),
    "ppcg_precon_init": (lb.ppcg_precon_init,),
    "ppcg_precon_inner": (lb.ppcg_inner_w, lb.ppcg_inner_sd),
    "cg_precon_jacobi": (lb.cg_precon_jacobi,),
    "jacobi_iterate": (lb.jacobi_iterate,),
    "norm2_field": (lb.norm2_field,),
    "dot_fields": (lb.dot_fields,),
    "copy_field": (lb.copy_field,),
    "tea_leaf_finalise": (lb.tea_leaf_finalise,),
}


def _op_fn(op: str) -> Sweep:
    """``op``'s sweeps as one ``fn(slab, args)``; a reducing op returns
    its last sweep's contribution folded to a scalar."""
    *first, last = OP_DEFS[op]
    if OPS[op].reduction:

        def reduce(slab: lb.Slab, args: tuple) -> float:
            for sweep in first:
                sweep(slab, args)
            return deterministic_sum(last(slab, args))

        return reduce
    if not first:
        return last

    def run(slab: lb.Slab, args: tuple) -> None:
        for sweep in first:
            sweep(slab, args)
        last(slab, args)

    return run


# --------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------- #
def _lower(
    calls: tuple[KernelCall, ...],
    launches: tuple[tuple[str, KernelSpec | None], ...],
    halo: HaloStep | None = None,
) -> CompiledKernel:
    fns = tuple(_op_fn(c.op) for c in calls)

    def fn(slab: lb.Slab, argv: tuple[tuple, ...]) -> tuple:
        return tuple([f(slab, args) for f, args in zip(fns, argv)])

    return CompiledKernel(
        calls=calls,
        fn=fn,
        launches=launches,
        argv=tuple(c.args for c in calls),
        has_binds=any(isinstance(a, Bind) for c in calls for a in c.args),
        halo=halo,
        reductions=tuple(c.op for c in calls if c.spec.reduction),
    )


def lower_steps(steps: list) -> list:
    """Lower every kernel call with a definition, and every fused group.

    Halo, scalar, barrier, fault and guard steps pass through unchanged —
    codegen only replaces kernel *bodies*, so instrumentation points and
    execution order are exactly those of the interpreted plan.  Every
    member of a legal group has a definition, since ``field_summary`` is
    not fusable.  A group's halo prefix stays with it:
    ``Port.dispatch_compiled`` refreshes the halo inside the group's
    launch, before the members.
    """
    out: list = []
    for step in steps:
        if isinstance(step, KernelCall) and step.op in OP_DEFS:
            out.append(_lower((step,), ((step.spec.kernel, None),)))
        elif isinstance(step, FusedGroup):
            out.append(
                _lower(step.calls, ((step.spec.name, step.spec),), step.halo)
            )
        else:
            out.append(step)
    return out
