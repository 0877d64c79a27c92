"""Plan-level NumPy codegen: the compiled hot path.

The interpreted executor is faithful but slow: every kernel body is a
Python loop nest over row slabs (or a simulated device runtime), so wall
time is dominated by interpreter frames rather than arithmetic.  This
module lowers a compiled :class:`~repro.models.plan.Plan` one step
further: each :class:`~repro.models.plan.KernelCall` — or whole
:class:`~repro.models.plan.FusedGroup` — becomes **one generated Python
function** whose body is a straight chain of whole-interior NumPy ufunc
expressions built from the :data:`~repro.models.plan.OPS` dataflow table.
No per-cell frames, no per-slab dispatch, no per-call method lookups.

Bitwise contract
----------------
Generated bodies evaluate the same ufuncs, in the same association
orders, over the same full-interior slices as the interpreted ports:
the stencil goes through :func:`~repro.models.stencil.matvec_into` /
:func:`~repro.models.stencil.diag_into` (the ``out=`` forms of
``row_matvec``/``row_diag``), the per-timestep set-up through the shared
:func:`~repro.models.stencil.face_coefficient` and
:func:`~repro.models.loopbodies.zero_boundary_coefficients`, and every
reduction feeds its row-major contribution vector through
:func:`~repro.models.reduction.deterministic_sum` — the same pairwise
tree every port finalises with.  A codegen run is therefore
bit-for-bit identical to the interpreted run on every port.

Scratch rule
------------
The per-iteration bodies allocate nothing the size of the mesh.  Each
ufunc writes through ``out=``: a result lands straight in its
destination field's interior view, and an intermediate in one of the
context's three interior-shaped scratch arrays ``T0``-``T2``.  Every
body writes a scratch array before it reads it, so nothing is carried in
scratch between calls, and checkpoints, poison and residency, which see
only fields, never see it.

Caching
-------
Generated functions contain **no geometry and no scalars**: grid facts
arrive through a per-port :class:`CodegenContext` and scalar arguments
through a per-execution ``argv`` table, so the only thing baked into
source text is field *names*.  That makes the module-level function
cache (:data:`CACHE_STATS` counts hits/misses) shareable across ports,
grids, and plan instances; the per-plan ``Plan._compiled`` entry keyed
by (fuse, transparency, instrument, codegen, overlap) then reuses each
lowered step list wholesale across iterations.  :data:`CACHE_STATS` is
the process-global aggregate — per-run rates come from
``PlanExecutor.codegen_cache_stats``, which snapshots it at executor
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import fields as F
from repro.core.kernels import KernelSpec
from repro.core.operators import RECIP_CONDUCTIVITY
from repro.models.loopbodies import zero_boundary_coefficients
from repro.models.plan import OPS, Bind, CompiledKernel, FusedGroup, KernelCall
from repro.models.reduction import deterministic_sum
from repro.models.stencil import diag_into, face_coefficient, matvec_into


class CodegenContext:
    """Geometry, array access and scratch for generated bodies.

    One per port, built lazily by ``Port._codegen_ctx``.  ``array`` is
    the port's ``_device_array`` accessor — the same arrays the halo
    logic mutates — so generated writes land exactly where the
    interpreted ``_k_*`` primitives write.  ``dx2``/``dy2`` are the
    precomputed squares: ports compute ``rx = dt / (dx*dx)``, and the
    generated code must divide by the identical product to match bits.

    ``T0``-``T2`` are the interior-shaped scratch arrays of the module's
    scratch rule, allocated once here.  Sharing them across every body
    the port runs relies on one port never being driven from two threads
    at once; nothing in ``src/`` does that.
    """

    __slots__ = (
        "array", "h", "nx", "ny", "dx2", "dy2",
        "I", "Ip", "Im", "J", "Jp", "Jm", "T0", "T1", "T2",
    )

    def reduce(self, values: np.ndarray) -> float:
        """Canonical deterministic interior reduction.

        Generated bodies route every reduction through the slice
        source's ``reduce`` (bound as ``RD`` in the preamble) instead of
        calling ``deterministic_sum`` directly, so an overlap region
        (:class:`repro.models.overlap.RegionSlices`) can assert that no
        partial-region sweep ever sums.
        """
        return deterministic_sum(values.ravel())

    def __init__(self, array: Callable[[str], np.ndarray], grid: Any) -> None:
        h, nx, ny = grid.halo, grid.nx, grid.ny
        self.array = array
        self.h, self.nx, self.ny = h, nx, ny
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
        self.T0 = np.empty((ny, nx))
        self.T1 = np.empty((ny, nx))
        self.T2 = np.empty((ny, nx))


# --------------------------------------------------------------------- #
# the template table
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Template:
    """How one operation lowers to source lines.

    ``fields(args)`` lists the fields the body touches (fetch order =
    first use); ``emit(lines, args, k)`` appends the member body, where
    ``k`` is the member slot indexing ``argv`` and suffixing locals.
    ``baked`` marks arg positions whose *values* are baked into the
    generated source (field-name strings only — never scalars), and so
    participate in the function-cache key.  ``launches`` overrides the
    default single traced launch.
    """

    fields: Callable[[tuple], tuple[str, ...]]
    emit: Callable[[list[str], tuple, int], None]
    baked: tuple[int, ...] = ()
    launches: Callable[[KernelCall], tuple[tuple[str, KernelSpec | None], ...]] | None = None


def _mv(v: str, out: str, t0: str, t1: str) -> str:
    return (
        f"matvec_into(v_{v}, v_kx, v_ky, I, Im, Ip, J, Jm, Jp, "
        f"{out}, {t0}, {t1})"
    )


_NONE = "res.append(None)"


def _e_set_field(L: list[str], args: tuple, k: int) -> None:
    L += [f"v_{F.ENERGY1}[I, J] = v_{F.ENERGY0}[I, J]", _NONE]


def _e_tea_leaf_init(L: list[str], args: tuple, k: int) -> None:
    # rx/ry fold dt into the face coefficients; the coefficient-mode
    # branch stays a runtime test on argv so the generated source is
    # shared between conductivity modes (and dt values).  Runs once per
    # timestep, so it keeps the expression form.
    L += [
        f"dt_{k} = argv[{k}][0]",
        f"rx_{k} = dt_{k} / ctx.dx2",
        f"ry_{k} = dt_{k} / ctx.dy2",
        "v_u[I, J] = v_energy1[I, J] * v_density[I, J]",
        "v_u0[I, J] = v_u[I, J]",
        f"if argv[{k}][1] == RECIP:",
        f"    wc_{k} = 1.0 / v_density[I, J]",
        f"    wx_{k} = 1.0 / v_density[I, Jm]",
        f"    wy_{k} = 1.0 / v_density[Im, J]",
        "else:",
        f"    wc_{k} = v_density[I, J]",
        f"    wx_{k} = v_density[I, Jm]",
        f"    wy_{k} = v_density[Im, J]",
        f"v_kx[I, J] = face_coefficient(wx_{k}, wc_{k}, rx_{k})",
        f"v_ky[I, J] = face_coefficient(wy_{k}, wc_{k}, ry_{k})",
        "zero_boundary_coefficients(v_kx, v_ky, ctx.h, ctx.nx, ctx.ny)",
        _NONE,
    ]


def _e_tea_leaf_residual(L: list[str], args: tuple, k: int) -> None:
    # A u lands in r's interior, then r = u0 - r in place.
    L += [
        _mv("u", "v_r[I, J]", "T0", "T1"),
        "np.subtract(v_u0[I, J], v_r[I, J], out=v_r[I, J])",
        _NONE,
    ]


def _e_cg_init(L: list[str], args: tuple, k: int) -> None:
    L += [
        _mv("u", "v_w[I, J]", "T0", "T1"),
        "np.subtract(v_u0[I, J], v_w[I, J], out=v_r[I, J])",
        "v_p[I, J] = v_r[I, J]",
        "np.multiply(v_r[I, J], v_r[I, J], out=T0)",
        "res.append(RD(T0))",
    ]


def _e_cg_calc_w(L: list[str], args: tuple, k: int) -> None:
    L += [
        _mv("p", "v_w[I, J]", "T0", "T1"),
        "np.multiply(v_p[I, J], v_w[I, J], out=T0)",
        "res.append(RD(T0))",
    ]


def _e_cg_calc_ur(L: list[str], args: tuple, k: int) -> None:
    L += [
        f"a_{k} = argv[{k}][0]",
        f"np.multiply(a_{k}, v_p[I, J], out=T0)",
        "np.add(v_u[I, J], T0, out=v_u[I, J])",
        f"np.multiply(a_{k}, v_w[I, J], out=T0)",
        "np.subtract(v_r[I, J], T0, out=v_r[I, J])",
        "np.multiply(v_r[I, J], v_r[I, J], out=T0)",
        "res.append(RD(T0))",
    ]


def _e_cg_calc_p(L: list[str], args: tuple, k: int) -> None:
    L += [
        f"np.multiply(argv[{k}][0], v_p[I, J], out=v_p[I, J])",
        "np.add(v_r[I, J], v_p[I, J], out=v_p[I, J])",
        _NONE,
    ]


def _e_ppcg_calc_p(L: list[str], args: tuple, k: int) -> None:
    L += [
        f"np.multiply(argv[{k}][0], v_p[I, J], out=v_p[I, J])",
        "np.add(v_z[I, J], v_p[I, J], out=v_p[I, J])",
        _NONE,
    ]


def _e_cheby_init(L: list[str], args: tuple, k: int) -> None:
    # The interpreted bodies stage A u through the w workspace; w is not
    # in this op's declared write set (every consumer rewrites it first),
    # so the generated body stages it in r, which it overwrites anyway.
    L += [
        _mv("u", "v_r[I, J]", "T0", "T1"),
        "np.subtract(v_u0[I, J], v_r[I, J], out=v_r[I, J])",
        f"np.divide(v_r[I, J], argv[{k}][0], out=v_sd[I, J])",
        "np.add(v_u[I, J], v_sd[I, J], out=v_u[I, J])",
        _NONE,
    ]


def _e_cheby_iterate(L: list[str], args: tuple, k: int) -> None:
    L += [
        _mv("sd", "T0", "T1", "T2"),
        "np.subtract(v_r[I, J], T0, out=v_r[I, J])",
        f"np.multiply(argv[{k}][0], v_sd[I, J], out=v_sd[I, J])",
        f"np.multiply(argv[{k}][1], v_r[I, J], out=T0)",
        "np.add(v_sd[I, J], T0, out=v_sd[I, J])",
        "np.add(v_u[I, J], v_sd[I, J], out=v_u[I, J])",
        _NONE,
    ]


def _e_ppcg_precon_init(L: list[str], args: tuple, k: int) -> None:
    L += [
        "v_w[I, J] = v_r[I, J]",
        f"np.divide(v_w[I, J], argv[{k}][0], out=v_sd[I, J])",
        "v_z[I, J] = v_sd[I, J]",
        _NONE,
    ]


def _e_ppcg_precon_inner(L: list[str], args: tuple, k: int) -> None:
    L += [
        _mv("sd", "T0", "T1", "T2"),
        "np.subtract(v_w[I, J], T0, out=v_w[I, J])",
        f"np.multiply(argv[{k}][0], v_sd[I, J], out=v_sd[I, J])",
        f"np.multiply(argv[{k}][1], v_w[I, J], out=T0)",
        "np.add(v_sd[I, J], T0, out=v_sd[I, J])",
        "np.add(v_z[I, J], v_sd[I, J], out=v_z[I, J])",
        _NONE,
    ]


def _e_cg_precon_jacobi(L: list[str], args: tuple, k: int) -> None:
    L += [
        "diag_into(v_kx, v_ky, I, Ip, J, Jp, v_z[I, J])",
        "np.divide(v_r[I, J], v_z[I, J], out=v_z[I, J])",
        _NONE,
    ]


def _e_jacobi_iterate(L: list[str], args: tuple, k: int) -> None:
    # Matches the shared shim: stash the old iterate in r (the port's
    # only free array), sweep u from it, return sum |u_new - u_old|.
    # u = (u0 + kxE rE + kxW rW + kyN rN + kyS rS) / diag, left to right.
    L += [
        "v_r[...] = v_u",
        "diag_into(v_kx, v_ky, I, Ip, J, Jp, T0)",
        "np.multiply(v_kx[I, Jp], v_r[I, Jp], out=T1)",
        "np.add(v_u0[I, J], T1, out=v_u[I, J])",
        "np.multiply(v_kx[I, J], v_r[I, Jm], out=T1)",
        "np.add(v_u[I, J], T1, out=v_u[I, J])",
        "np.multiply(v_ky[Ip, J], v_r[Ip, J], out=T1)",
        "np.add(v_u[I, J], T1, out=v_u[I, J])",
        "np.multiply(v_ky[I, J], v_r[Im, J], out=T1)",
        "np.add(v_u[I, J], T1, out=v_u[I, J])",
        "np.divide(v_u[I, J], T0, out=v_u[I, J])",
        "np.subtract(v_u[I, J], v_r[I, J], out=T0)",
        "np.absolute(T0, out=T0)",
        "res.append(RD(T0))",
    ]


def _e_norm2_field(L: list[str], args: tuple, k: int) -> None:
    v = f"v_{args[0]}[I, J]"
    L += [f"np.multiply({v}, {v}, out=T0)", "res.append(RD(T0))"]


def _e_dot_fields(L: list[str], args: tuple, k: int) -> None:
    L += [
        f"np.multiply(v_{args[0]}[I, J], v_{args[1]}[I, J], out=T0)",
        "res.append(RD(T0))",
    ]


def _e_copy_field(L: list[str], args: tuple, k: int) -> None:
    L += [f"v_{args[1]}[...] = v_{args[0]}", _NONE]


def _e_tea_leaf_finalise(L: list[str], args: tuple, k: int) -> None:
    L += [
        f"np.divide(v_u[I, J], v_{F.DENSITY}[I, J], out=v_{F.ENERGY1}[I, J])",
        _NONE,
    ]


def _static(*names: str) -> Callable[[tuple], tuple[str, ...]]:
    return lambda args: names


_TEMPLATES: dict[str, _Template] = {
    "set_field": _Template(_static(F.ENERGY0, F.ENERGY1), _e_set_field),
    "tea_leaf_init": _Template(
        _static(F.DENSITY, F.ENERGY1, F.U, F.U0, F.KX, F.KY), _e_tea_leaf_init
    ),
    "tea_leaf_residual": _Template(
        _static(F.U0, F.U, F.KX, F.KY, F.R), _e_tea_leaf_residual
    ),
    "cg_init": _Template(
        _static(F.U, F.U0, F.KX, F.KY, F.W, F.R, F.P), _e_cg_init
    ),
    "cg_calc_w": _Template(_static(F.P, F.KX, F.KY, F.W), _e_cg_calc_w),
    "cg_calc_ur": _Template(_static(F.U, F.R, F.P, F.W), _e_cg_calc_ur),
    "cg_calc_p": _Template(_static(F.R, F.P), _e_cg_calc_p),
    "ppcg_calc_p": _Template(_static(F.Z, F.P), _e_ppcg_calc_p),
    "cheby_init": _Template(
        _static(F.U, F.U0, F.KX, F.KY, F.R, F.SD), _e_cheby_init
    ),
    "cheby_iterate": _Template(
        _static(F.R, F.SD, F.U, F.KX, F.KY), _e_cheby_iterate
    ),
    "ppcg_precon_init": _Template(
        _static(F.R, F.W, F.SD, F.Z), _e_ppcg_precon_init
    ),
    "ppcg_precon_inner": _Template(
        _static(F.W, F.SD, F.Z, F.KX, F.KY), _e_ppcg_precon_inner
    ),
    "cg_precon_jacobi": _Template(
        _static(F.R, F.KX, F.KY, F.Z), _e_cg_precon_jacobi
    ),
    "jacobi_iterate": _Template(
        _static(F.U, F.U0, F.KX, F.KY, F.R),
        _e_jacobi_iterate,
        launches=lambda c: (("copy_field", None), ("jacobi_iterate", None)),
    ),
    "norm2_field": _Template(
        lambda args: (args[0],), _e_norm2_field, baked=(0,)
    ),
    "dot_fields": _Template(
        lambda args: (args[0], args[1]), _e_dot_fields, baked=(0, 1)
    ),
    "copy_field": _Template(
        lambda args: (args[0], args[1]), _e_copy_field, baked=(0, 1)
    ),
    "tea_leaf_finalise": _Template(
        _static(F.U, F.DENSITY, F.ENERGY1), _e_tea_leaf_finalise
    ),
    # field_summary is intentionally absent: the driver calls it directly
    # on the port, outside any plan, so it never reaches the lowerer.
}


#: Exec environment for generated functions: NumPy plus the shared
#: bitwise-contract helpers.
_GLOBALS: dict[str, Any] = {
    "np": np,
    "matvec_into": matvec_into,
    "diag_into": diag_into,
    "face_coefficient": face_coefficient,
    "zero_boundary_coefficients": zero_boundary_coefficients,
    "RECIP": RECIP_CONDUCTIVITY,
}

#: Generated functions keyed by the member (op, baked-args) tuples.
#: Shared across ports, grids, and plans — nothing grid- or
#: scalar-specific is baked into source text.
_FN_CACHE: dict[tuple, tuple[Callable, str]] = {}

#: Function-cache telemetry (the codegen-cache test reads this).
CACHE_STATS = {"hits": 0, "misses": 0}


def clear_cache() -> None:
    """Drop all generated functions and reset the hit/miss counters."""
    _FN_CACHE.clear()
    CACHE_STATS["hits"] = 0
    CACHE_STATS["misses"] = 0


def _cache_key(calls: tuple[KernelCall, ...]) -> tuple:
    return tuple(
        (c.op,) + tuple(c.args[i] for i in _TEMPLATES[c.op].baked)
        for c in calls
    )


def generate_source(calls: tuple[KernelCall, ...]) -> str:
    """The generated function source for ``calls`` (docs/tests helper).

    Generated functions take an optional region ``R`` (a
    :class:`~repro.models.overlap.RegionSlices`): when given, the body's
    slices come from the region instead of the full-interior context, so
    the async overlap executor can run the same cached function over an
    interior core or a boundary strip; the region also supplies
    region-shaped views of the scratch arrays.  ``ctx.*`` geometry (``h``,
    ``nx``, ``dx2``...) stays whole-grid either way — only the
    whole-interior ops use it, and those are never region-split.
    """
    lines = [
        "def _gen(ctx, argv, R=None):",
        "    A = ctx.array",
        "    S = ctx if R is None else R",
        "    I = S.I; Ip = S.Ip; Im = S.Im",
        "    J = S.J; Jp = S.Jp; Jm = S.Jm",
        "    T0 = S.T0; T1 = S.T1; T2 = S.T2",
        "    RD = S.reduce",
    ]
    fetched: list[str] = []
    for c in calls:
        for name in _TEMPLATES[c.op].fields(c.args):
            if name not in fetched:
                fetched.append(name)
    for name in fetched:
        lines.append(f"    v_{name} = A({name!r})")
    lines.append("    res = []")
    for k, c in enumerate(calls):
        lines.append(f"    # -- {c.op}")
        body: list[str] = []
        _TEMPLATES[c.op].emit(body, c.args, k)
        lines.extend("    " + b for b in body)
    lines.append("    return tuple(res)")
    return "\n".join(lines)


def _function_for(calls: tuple[KernelCall, ...]) -> tuple[Callable, str]:
    key = _cache_key(calls)
    hit = _FN_CACHE.get(key)
    if hit is not None:
        CACHE_STATS["hits"] += 1
        return hit
    CACHE_STATS["misses"] += 1
    source = generate_source(calls)
    tag = "+".join(c.op for c in calls)
    ns = dict(_GLOBALS)
    exec(compile(source, f"<codegen:{tag}>", "exec"), ns)
    entry = (ns["_gen"], source)
    _FN_CACHE[key] = entry
    return entry


def _lower(
    calls: tuple[KernelCall, ...],
    launches: tuple[tuple[str, KernelSpec | None], ...],
) -> CompiledKernel:
    fn, source = _function_for(calls)
    return CompiledKernel(
        calls=calls,
        fn=fn,
        launches=launches,
        argv=tuple(c.args for c in calls),
        has_binds=any(isinstance(a, Bind) for c in calls for a in c.args),
        source=source,
    )


def lowerable(step: Any) -> bool:
    """True when ``step`` has a codegen lowering."""
    if isinstance(step, KernelCall):
        return step.op in _TEMPLATES
    if isinstance(step, FusedGroup):
        return all(c.op in _TEMPLATES for c in step.calls)
    return False


def lower_steps(steps: list) -> list:
    """Lower every kernel call / fused group in a compiled step list.

    Halo, scalar, barrier, fault and guard steps pass through unchanged —
    codegen only replaces kernel *bodies*, so instrumentation points and
    execution order are exactly those of the interpreted plan.
    """
    out: list = []
    for step in steps:
        if isinstance(step, KernelCall) and step.op in _TEMPLATES:
            t = _TEMPLATES[step.op]
            launches = (
                t.launches(step)
                if t.launches is not None
                else ((OPS[step.op].kernel, None),)
            )
            out.append(_lower((step,), launches))
        elif isinstance(step, FusedGroup) and all(
            c.op in _TEMPLATES for c in step.calls
        ):
            out.append(_lower(step.calls, ((step.spec.name, step.spec),)))
        else:
            out.append(step)
    return out
