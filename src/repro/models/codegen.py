"""Plan-level NumPy kernels: the compiled hot path.

The interpreted executor is faithful but slow: every kernel body is a
Python loop nest over row slabs (or a simulated device runtime), so wall
time is dominated by interpreter frames rather than arithmetic.  This
module lowers a compiled :class:`~repro.models.plan.Plan` one step
further: each :class:`~repro.models.plan.KernelCall` — or whole
:class:`~repro.models.plan.FusedGroup` — becomes **one Python function**
composed from :data:`OP_DEFS`, which holds one plain NumPy definition per
operation: a straight chain of whole-interior ufunc calls.  No per-cell
frames, no per-slab dispatch, no per-call method lookups.  A fused group
has no other body: every group the executor runs is lowered here.

Bitwise contract
----------------
The definitions evaluate the same ufuncs, in the same association
orders, on the same operands of every interior cell as the interpreted
ports:
the stencil goes through :func:`~repro.models.stencil.matvec_into` /
:func:`~repro.models.stencil.diag_into` (the ``out=`` forms of
``row_matvec``/``row_diag``, whichever way the operands are indexed),
the per-timestep set-up through the shared
:func:`~repro.models.stencil.face_coefficient` and
:func:`~repro.models.loopbodies.zero_boundary_coefficients`, and every
reduction feeds its row-major contribution vector through
:func:`~repro.models.reduction.deterministic_sum` — the same pairwise
tree every port finalises with.  A codegen run is therefore
bit-for-bit identical to the interpreted run on every port.

Scratch rule
------------
The per-iteration definitions allocate nothing the size of the mesh.
Each ufunc writes through ``out=``: a result lands straight in its
destination field's interior view, and an intermediate in the context's
scratch, one block of three rows of ``ny * P`` floats (``P = nx + 2h``,
the row pitch) from :func:`~repro.models.stencil.scratch`, the pool the
OpenMP-C loop bodies draw on too.  ``A v``, ``beta p + src`` and
``cg_calc_ur`` run over the interior's span
(:func:`~repro.models.stencil.row_span`): every
operand is a 1-D slice of a flattened field, so each ufunc streams
contiguous memory (at 256², one ufunc costs about 90 µs through strided
views of the padded fields and 53 µs over the same cells as one run).
Results fill spans of scratch, and their pitched ``(ny, nx)`` views
feed the one write of each field through the field's interior view.
Other updates and the reduction contributions use ``T0``-``T2``,
contiguous ``(ny, nx)`` views at the row heads.  ``T0`` and the first
span share memory, so no ufunc may write one while it reads the other:
NumPy would copy the input into a hidden temporary.  Every definition
writes a scratch array before it reads it, so nothing is carried in
scratch between calls, and checkpoints, poison and residency, which see
only fields, never see it.

Each op is one function ``fn(ctx, args)`` over the whole interior that
returns its reduction partial (or ``None``).  The functions hold no
geometry and no scalars: grid facts arrive through a per-port
:class:`CodegenContext` and scalar arguments through a per-execution
``argv`` table, so one lowered step serves every port, grid and
iteration, and the per-plan ``Plan._compiled`` entry keyed by (fuse,
instrument, codegen) reuses each lowered step list wholesale across
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import fields as F
from repro.core.kernels import KernelSpec
from repro.core.operators import RECIP_CONDUCTIVITY
from repro.models.loopbodies import zero_boundary_coefficients
from repro.models.plan import (
    OPS,
    Bind,
    CompiledKernel,
    FusedGroup,
    HaloStep,
    KernelCall,
)
from repro.models.reduction import deterministic_sum
from repro.models.stencil import (
    diag_into,
    face_coefficient,
    flat,
    matvec_into,
    region_stencil,
    row_span,
    scratch,
)


class CodegenContext:
    """Geometry, array access and scratch for the op definitions.

    One per port, built lazily by ``Port._codegen_ctx``.  ``array`` is
    the port's ``_device_array`` accessor — the same arrays the halo
    logic mutates — so compiled writes land exactly where the
    interpreted ``_k_*`` primitives write.  ``dx2``/``dy2`` are the
    precomputed squares: ports compute ``rx = dt / (dx*dx)``, and the
    compiled code must divide by the identical product to match bits.

    Scratch is one block of three rows of ``ny * pitch`` floats (see the
    module's scratch rule).  ``T0``-``T2`` are contiguous ``(ny, nx)``
    views at the row heads; ``spans`` are the rows' first ``length``
    cells, indexed like the fields' interior run :attr:`span`; and
    ``pitched`` are ``(ny, nx)`` views of the spans' interior cells, for
    the write-back.  The views hold the block, so the pool keeps it
    while the context lives; every context and OpenMP-family port of
    one geometry shares it, and keeps one scratch footprint in cache
    rather than one each.
    """

    __slots__ = (
        "array", "h", "nx", "ny", "pitch", "dx2", "dy2",
        "I", "Ip", "Im", "J", "Jp", "Jm", "at", "span", "spans", "pitched",
        "T0", "T1", "T2",
    )

    def __init__(self, array: Callable[[str], np.ndarray], grid: Any) -> None:
        h, nx, ny = grid.halo, grid.nx, grid.ny
        pitch = nx + 2 * h
        self.array = array
        self.h, self.nx, self.ny, self.pitch = h, nx, ny, pitch
        self.dx2 = grid.dx * grid.dx
        self.dy2 = grid.dy * grid.dy
        #: Full-interior row/column slices and their stencil shifts —
        #: the r0=0, r1=ny slab of the interpreted loop bodies.
        self.I = slice(h, h + ny)
        self.Ip = slice(h + 1, h + ny + 1)
        self.Im = slice(h - 1, h + ny - 1)
        self.J = slice(h, h + nx)
        self.Jp = slice(h + 1, h + nx + 1)
        self.Jm = slice(h - 1, h + nx - 1)
        self.at = region_stencil(self.I, self.Im, self.Ip, self.J, self.Jm, self.Jp)
        _, length, self.span = row_span(h, nx, 0, ny)
        block = scratch(ny, pitch)
        self.T0, self.T1, self.T2 = (b[: ny * nx].reshape(ny, nx) for b in block)
        self.spans = tuple(b[:length] for b in block)
        self.pitched = tuple(b.reshape(ny, pitch)[:, :nx] for b in block)

    def span_of(self, name: str) -> np.ndarray:
        """Field ``name``'s interior span, as a 1-D view."""
        return flat(self.array(name), self.pitch)[self.span.c]

    def matvec(self, v: str) -> np.ndarray:
        """``A v`` over the whole interior, as the view ``pitched[0]``.

        Evaluated over the interior's span; the result occupies the
        first scratch row, so ``T0`` is not free until it has been read.
        """
        A, pitch = self.array, self.pitch
        matvec_into(
            flat(A(v), pitch), flat(A(F.KX), pitch), flat(A(F.KY), pitch),
            self.span, *self.spans,
        )
        return self.pitched[0]


# --------------------------------------------------------------------- #
# one NumPy definition per op
# --------------------------------------------------------------------- #
def _set_field(ctx: CodegenContext, args: tuple) -> None:
    A = ctx.array
    A(F.ENERGY1)[ctx.I, ctx.J] = A(F.ENERGY0)[ctx.I, ctx.J]


def _tea_leaf_init(ctx: CodegenContext, args: tuple) -> None:
    # rx/ry fold dt into the face coefficients; the coefficient mode is
    # a runtime test on the args.  Runs once per timestep, so it keeps
    # the expression form.
    A, I, J, Im, Jm = ctx.array, ctx.I, ctx.J, ctx.Im, ctx.Jm
    density, u, kx, ky = A(F.DENSITY), A(F.U), A(F.KX), A(F.KY)
    rx = args[0] / ctx.dx2
    ry = args[0] / ctx.dy2
    u[I, J] = A(F.ENERGY1)[I, J] * density[I, J]
    A(F.U0)[I, J] = u[I, J]
    if args[1] == RECIP_CONDUCTIVITY:
        wc = 1.0 / density[I, J]
        wx = 1.0 / density[I, Jm]
        wy = 1.0 / density[Im, J]
    else:
        wc = density[I, J]
        wx = density[I, Jm]
        wy = density[Im, J]
    kx[I, J] = face_coefficient(wx, wc, rx)
    ky[I, J] = face_coefficient(wy, wc, ry)
    zero_boundary_coefficients(kx, ky, ctx.h, ctx.nx, ctx.ny)


def _tea_leaf_residual(ctx: CodegenContext, args: tuple) -> None:
    A, I, J = ctx.array, ctx.I, ctx.J
    np.subtract(A(F.U0)[I, J], ctx.matvec(F.U), out=A(F.R)[I, J])


def _cg_init(ctx: CodegenContext, args: tuple) -> float:
    A, I, J, T0 = ctx.array, ctx.I, ctx.J, ctx.T0
    r = A(F.R)[I, J]
    Av = ctx.matvec(F.U)
    A(F.W)[I, J] = Av
    np.subtract(A(F.U0)[I, J], Av, out=r)
    A(F.P)[I, J] = r
    np.multiply(r, r, out=T0)
    return deterministic_sum(T0.ravel())


def _cg_calc_w(ctx: CodegenContext, args: tuple) -> float:
    A, I, J, T0 = ctx.array, ctx.I, ctx.J, ctx.T0
    A(F.W)[I, J] = ctx.matvec(F.P)
    np.multiply(A(F.P)[I, J], A(F.W)[I, J], out=T0)
    return deterministic_sum(T0.ravel())


def _cg_calc_ur(ctx: CodegenContext, args: tuple) -> float:
    A, I, J, T0 = ctx.array, ctx.I, ctx.J, ctx.T0
    (s0, s1, s2), (u, r, rr) = ctx.spans, ctx.pitched
    np.multiply(args[0], ctx.span_of(F.P), out=s0)
    np.add(ctx.span_of(F.U), s0, out=s0)
    A(F.U)[I, J] = u
    np.multiply(args[0], ctx.span_of(F.W), out=s1)
    np.subtract(ctx.span_of(F.R), s1, out=s1)
    A(F.R)[I, J] = r
    np.multiply(s1, s1, out=s2)
    T0[...] = rr
    return deterministic_sum(T0.ravel())


def _calc_p(src: str) -> Callable[[CodegenContext, tuple], None]:
    """``p = beta p + src``: CG (src = r) and PPCG (src = z)."""

    def calc_p(ctx: CodegenContext, args: tuple) -> None:
        out = ctx.spans[0]
        np.multiply(args[0], ctx.span_of(F.P), out=out)
        np.add(ctx.span_of(src), out, out=out)
        ctx.array(F.P)[ctx.I, ctx.J] = ctx.pitched[0]

    return calc_p


def _cheby_init(ctx: CodegenContext, args: tuple) -> None:
    # The interpreted bodies stage A u through the w workspace; w is not
    # in this op's declared write set (every consumer rewrites it first),
    # so this definition keeps it in scratch.
    A, I, J = ctx.array, ctx.I, ctx.J
    r, sd, u = A(F.R)[I, J], A(F.SD)[I, J], A(F.U)[I, J]
    np.subtract(A(F.U0)[I, J], ctx.matvec(F.U), out=r)
    np.divide(r, args[0], out=sd)
    np.add(u, sd, out=u)


def _smooth(res: str, acc: str) -> Callable[[CodegenContext, tuple], None]:
    """One polynomial smoothing step.

    ``res -= A sd``, then ``sd = alpha sd + beta res`` and
    ``acc += sd``.  Chebyshev smooths the residual r into u, the PPCG
    inner step the workspace w into z.
    """

    def smooth(ctx: CodegenContext, args: tuple) -> None:
        A, I, J, T0 = ctx.array, ctx.I, ctx.J, ctx.T0
        r, sd, x = A(res)[I, J], A(F.SD)[I, J], A(acc)[I, J]
        np.subtract(r, ctx.matvec(F.SD), out=r)
        np.multiply(args[0], sd, out=sd)
        np.multiply(args[1], r, out=T0)
        np.add(sd, T0, out=sd)
        np.add(x, sd, out=x)

    return smooth


def _ppcg_precon_init(ctx: CodegenContext, args: tuple) -> None:
    A, I, J = ctx.array, ctx.I, ctx.J
    w, sd = A(F.W)[I, J], A(F.SD)[I, J]
    w[...] = A(F.R)[I, J]
    np.divide(w, args[0], out=sd)
    A(F.Z)[I, J] = sd


def _cg_precon_jacobi(ctx: CodegenContext, args: tuple) -> None:
    A, I, J = ctx.array, ctx.I, ctx.J
    z = A(F.Z)[I, J]
    diag_into(A(F.KX), A(F.KY), ctx.at, z)
    np.divide(A(F.R)[I, J], z, out=z)


def _jacobi_iterate(ctx: CodegenContext, args: tuple) -> float:
    # Matches the shared shim: stash the old iterate in r (the port's
    # only free array), sweep u from it, return sum |u_new - u_old|.
    # u = (u0 + kxE rE + kxW rW + kyN rN + kyS rS) / diag, left to right.
    A, T0, T1 = ctx.array, ctx.T0, ctx.T1
    I, Ip, Im, J, Jp, Jm = ctx.I, ctx.Ip, ctx.Im, ctx.J, ctx.Jp, ctx.Jm
    u, r, kx, ky = A(F.U), A(F.R), A(F.KX), A(F.KY)
    r[...] = u
    diag_into(kx, ky, ctx.at, T0)
    x = u[I, J]
    np.multiply(kx[I, Jp], r[I, Jp], out=T1)
    np.add(A(F.U0)[I, J], T1, out=x)
    np.multiply(kx[I, J], r[I, Jm], out=T1)
    np.add(x, T1, out=x)
    np.multiply(ky[Ip, J], r[Ip, J], out=T1)
    np.add(x, T1, out=x)
    np.multiply(ky[I, J], r[Im, J], out=T1)
    np.add(x, T1, out=x)
    np.divide(x, T0, out=x)
    np.subtract(x, r[I, J], out=T0)
    np.absolute(T0, out=T0)
    return deterministic_sum(T0.ravel())


def _norm2_field(ctx: CodegenContext, args: tuple) -> float:
    v = ctx.array(args[0])[ctx.I, ctx.J]
    np.multiply(v, v, out=ctx.T0)
    return deterministic_sum(ctx.T0.ravel())


def _dot_fields(ctx: CodegenContext, args: tuple) -> float:
    A, I, J = ctx.array, ctx.I, ctx.J
    np.multiply(A(args[0])[I, J], A(args[1])[I, J], out=ctx.T0)
    return deterministic_sum(ctx.T0.ravel())


def _copy_field(ctx: CodegenContext, args: tuple) -> None:
    ctx.array(args[1])[...] = ctx.array(args[0])


def _tea_leaf_finalise(ctx: CodegenContext, args: tuple) -> None:
    A, I, J = ctx.array, ctx.I, ctx.J
    np.divide(A(F.U)[I, J], A(F.DENSITY)[I, J], out=A(F.ENERGY1)[I, J])


@dataclass(frozen=True)
class OpDef:
    """One operation's NumPy definition (see the module docstring).

    ``launches`` overrides the single traced launch of the op's kernel.
    """

    fn: Callable[[CodegenContext, tuple], float | None]
    launches: tuple[str, ...] = ()


#: Every op a plan can lower.  ``field_summary`` is absent: the driver
#: calls it directly on the port, outside any plan.
OP_DEFS: dict[str, OpDef] = {
    "set_field": OpDef(_set_field),
    "tea_leaf_init": OpDef(_tea_leaf_init),
    "tea_leaf_residual": OpDef(_tea_leaf_residual),
    "cg_init": OpDef(_cg_init),
    "cg_calc_w": OpDef(_cg_calc_w),
    "cg_calc_ur": OpDef(_cg_calc_ur),
    "cg_calc_p": OpDef(_calc_p(F.R)),
    "ppcg_calc_p": OpDef(_calc_p(F.Z)),
    "cheby_init": OpDef(_cheby_init),
    "cheby_iterate": OpDef(_smooth(F.R, F.U)),
    "ppcg_precon_init": OpDef(_ppcg_precon_init),
    "ppcg_precon_inner": OpDef(_smooth(F.W, F.Z)),
    "cg_precon_jacobi": OpDef(_cg_precon_jacobi),
    "jacobi_iterate": OpDef(
        _jacobi_iterate, launches=("copy_field", "jacobi_iterate")
    ),
    "norm2_field": OpDef(_norm2_field),
    "dot_fields": OpDef(_dot_fields),
    "copy_field": OpDef(_copy_field),
    "tea_leaf_finalise": OpDef(_tea_leaf_finalise),
}


# --------------------------------------------------------------------- #
# lowering
# --------------------------------------------------------------------- #
def _lower(
    calls: tuple[KernelCall, ...],
    launches: tuple[tuple[str, KernelSpec | None], ...],
    halo: HaloStep | None = None,
) -> CompiledKernel:
    fns = tuple(OP_DEFS[c.op].fn for c in calls)

    def fn(ctx: CodegenContext, argv: tuple[tuple, ...]) -> tuple:
        return tuple([f(ctx, args) for f, args in zip(fns, argv)])

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
    member of a legal group has a definition: ``field_summary`` is not
    fusable and ``jacobi_iterate`` is refused as compound.  A group's
    halo prefix stays with it: ``Port.dispatch_compiled`` refreshes the
    halo inside the group's launch, before the members.
    """
    out: list = []
    for step in steps:
        if isinstance(step, KernelCall) and step.op in OP_DEFS:
            names = OP_DEFS[step.op].launches or (OPS[step.op].kernel,)
            out.append(_lower((step,), tuple((n, None) for n in names)))
        elif isinstance(step, FusedGroup):
            out.append(
                _lower(step.calls, ((step.spec.name, step.spec),), step.halo)
            )
        else:
            out.append(step)
    return out
