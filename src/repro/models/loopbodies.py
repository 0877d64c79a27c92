"""The OpenMP-C TeaLeaf loop bodies: the one NumPy definition of each op.

The paper's OpenMP 4.0 port "added a target region to each of the
performance critical functions" of the OpenMP C codebase, and the OpenACC
port "was possible to use the OpenMP 4.0 codebase as a starting point,
changing the directives but maintaining the same data transitions" (§3.1,
§3.2).  This module is that shared C codebase.  The directive ports run
it one ``parallel for`` region per sweep, and the compiled path
(:mod:`repro.models.codegen`) composes the same bodies over the whole
interior, in the way OP2 builds every backend from one parallel-loop
description.  Kokkos, RAJA, OpenCL and CUDA do **not** use these bodies:
their ports re-express the kernels through their own abstractions, as the
paper's did, and are held to the same bits by the differential harness.

Each sweep is one function ``fn(slab, args)`` over the interior rows
``[r0, r1)`` of a :class:`Slab`, where ``args`` are the plan call's
arguments.  A reducing sweep returns its row-major contribution as a view
of scratch, for the caller to fold through
:func:`~repro.models.reduction.deterministic_sum` before the next sweep
of the geometry overwrites it.  :func:`zero_walls` and :func:`copy_field`
are whole-array steps, run once outside any slab.

Reach contract: a sweep reads only rows ``[h+r0-1, h+r1]`` and writes
only the slab's interior cells (rows ``[h+r0, h+r1)`` by columns
``[h, h+nx)``), which makes the static row decomposition race-free.  It
is also what lets :class:`~repro.models.openmp.OpenMPRuntime` run a whole
team as the one slab ``[0, ny)``: the per-thread chunks give the same
bits in any order.  An op that stencil-reads a field it also writes is
therefore two sweeps: ``cheby_init`` (r and sd, then ``u += sd``),
``cheby_iterate`` and ``ppcg_precon_inner`` (``res -= A sd``, then the
sd and accumulator update).

Scratch rule: the sweeps allocate nothing the size of the mesh.  Each
ufunc writes through ``out=``: a result lands straight in its
destination field's interior view, and an intermediate in the slab's
block of :func:`~repro.models.stencil.scratch`, three rows of
``rows * P`` floats (``P = nx + 2h``, the row pitch).  ``A v``,
``beta p + src`` and ``cg_calc_ur`` run over the slab's span
(:func:`~repro.models.stencil.row_span`): every operand is a 1-D slice of
a flattened field, so each ufunc streams contiguous memory, and the
span's pitched ``(rows, nx)`` view feeds the one write of each field.
Other intermediates and the contributions use ``T0``-``T2``, contiguous
``(rows, nx)`` views at the row heads.  ``T0`` and the first span share
memory, so no ufunc may write one while it reads the other: NumPy would
copy the input into a hidden temporary.  Every sweep writes scratch
before it reads it, so nothing is carried in scratch between calls, and
checkpoints, poison and residency, which see only fields, never see it.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core import fields as F
from repro.core.operators import RECIP_CONDUCTIVITY
from repro.models.stencil import (
    diag_into,
    face_coefficient,
    flat,
    matvec_into,
    region_stencil,
    row_span,
    scratch,
)


class Slab:
    """Interior rows ``[r0, r1)`` of one port's arrays, and their scratch.

    ``array`` resolves a field name to the array the kernels use (a
    port's host dict, its data environment or its ``_device_array``).
    ``dx2``/``dy2`` are the precomputed squares: ports compute
    ``rx = dt / (dx*dx)``, and every body must divide by the identical
    product to match bits.  ``I``/``J`` and their shifts slice the slab's
    rows and the interior columns, ``at`` is their region stencil and
    ``span`` the rows' span.  The views of the rows' scratch block (see
    the module's scratch rule) hold the block, so the pool keeps it while
    the slab lives; every slab of one geometry shares it.
    """

    __slots__ = (
        "array", "h", "nx", "ny", "pitch", "dx2", "dy2", "cell_volume",
        "I", "Ip", "Im", "J", "Jp", "Jm", "at", "span", "spans", "pitched",
        "T0", "T1", "T2",
    )

    def __init__(
        self,
        array: Callable[[str], np.ndarray],
        grid: Any,
        r0: int = 0,
        r1: int | None = None,
    ) -> None:
        h, nx, ny = grid.halo, grid.nx, grid.ny
        r1 = ny if r1 is None else r1
        rows, pitch = r1 - r0, nx + 2 * h
        self.array = array
        self.h, self.nx, self.ny, self.pitch = h, nx, ny, pitch
        self.dx2 = grid.dx * grid.dx
        self.dy2 = grid.dy * grid.dy
        self.cell_volume = grid.cell_volume
        self.I = slice(h + r0, h + r1)
        self.Ip = slice(h + r0 + 1, h + r1 + 1)
        self.Im = slice(h + r0 - 1, h + r1 - 1)
        self.J = slice(h, h + nx)
        self.Jp = slice(h + 1, h + nx + 1)
        self.Jm = slice(h - 1, h + nx - 1)
        self.at = region_stencil(self.I, self.Im, self.Ip, self.J, self.Jm, self.Jp)
        _, length, self.span = row_span(h, nx, r0, r1)
        block = scratch(rows, pitch)
        self.T0, self.T1, self.T2 = (b[: rows * nx].reshape(rows, nx) for b in block)
        self.spans = tuple(b[:length] for b in block)
        self.pitched = tuple(b.reshape(rows, pitch)[:, :nx] for b in block)

    def span_of(self, name: str) -> np.ndarray:
        """Field ``name``'s span over the slab's rows, as a 1-D view."""
        return flat(self.array(name), self.pitch)[self.span.c]

    def matvec(self, v: str) -> np.ndarray:
        """``A v`` over the slab, as the view ``pitched[0]``.

        Evaluated over the slab's span; the result occupies the first
        scratch row, so ``T0`` is not free until it has been read.
        """
        A, pitch = self.array, self.pitch
        matvec_into(
            flat(A(v), pitch), flat(A(F.KX), pitch), flat(A(F.KY), pitch),
            self.span, *self.spans,
        )
        return self.pitched[0]


def set_field(s: Slab, args: tuple) -> None:
    """energy1 = energy0."""
    A = s.array
    A(F.ENERGY1)[s.I, s.J] = A(F.ENERGY0)[s.I, s.J]


def tea_leaf_init(s: Slab, args: tuple) -> None:
    """u = u0 = energy1 density; face coefficients from density (harmonic).

    ``args`` are ``(dt, coefficient)``: rx/ry fold dt into the face
    coefficients.  Runs once per timestep, so it keeps the expression
    form.  The walls are zeroed afterwards, by :func:`zero_walls`.
    """
    A, I, J, Im, Jm = s.array, s.I, s.J, s.Im, s.Jm
    density, u = A(F.DENSITY), A(F.U)
    rx = args[0] / s.dx2
    ry = args[0] / s.dy2
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
    A(F.KX)[I, J] = face_coefficient(wx, wc, rx)
    A(F.KY)[I, J] = face_coefficient(wy, wc, ry)


def zero_walls(s: Slab, args: tuple) -> None:
    """Zero wall-face coefficients: the reflective (zero-flux) boundary.

    A whole-array step, run once after the :func:`tea_leaf_init` sweep.
    """
    kx, ky, h = s.array(F.KX), s.array(F.KY), s.h
    kx[:, : h + 1] = 0.0
    kx[:, h + s.nx :] = 0.0
    ky[: h + 1, :] = 0.0
    ky[h + s.ny :, :] = 0.0


def tea_leaf_residual(s: Slab, args: tuple) -> None:
    """r = u0 - A u."""
    A = s.array
    np.subtract(A(F.U0)[s.I, s.J], s.matvec(F.U), out=A(F.R)[s.I, s.J])


def cg_init(s: Slab, args: tuple) -> np.ndarray:
    """w = A u; r = u0 - w; p = r; contributes rro = r.r."""
    A, I, J = s.array, s.I, s.J
    r = A(F.R)[I, J]
    Av = s.matvec(F.U)
    A(F.W)[I, J] = Av
    np.subtract(A(F.U0)[I, J], Av, out=r)
    A(F.P)[I, J] = r
    return np.multiply(r, r, out=s.T0)


def cg_calc_w(s: Slab, args: tuple) -> np.ndarray:
    """w = A p; contributes pw = p.w, formed over the span."""
    A, I, J = s.array, s.I, s.J
    A(F.W)[I, J] = s.matvec(F.P)
    np.multiply(s.span_of(F.P), s.spans[0], out=s.spans[1])
    s.T0[...] = s.pitched[1]
    return s.T0


def cg_calc_ur(s: Slab, args: tuple) -> np.ndarray:
    """u += alpha p; r -= alpha w; contributes rrn = r.r."""
    A, I, J = s.array, s.I, s.J
    (s0, s1, s2), (u, r, rr) = s.spans, s.pitched
    np.multiply(args[0], s.span_of(F.P), out=s0)
    np.add(s.span_of(F.U), s0, out=s0)
    A(F.U)[I, J] = u
    np.multiply(args[0], s.span_of(F.W), out=s1)
    np.subtract(s.span_of(F.R), s1, out=s1)
    A(F.R)[I, J] = r
    np.multiply(s1, s1, out=s2)
    s.T0[...] = rr
    return s.T0


def _calc_p(s: Slab, src: str, beta: float) -> None:
    """p = beta p + src."""
    out = s.spans[0]
    np.multiply(beta, s.span_of(F.P), out=out)
    np.add(s.span_of(src), out, out=out)
    s.array(F.P)[s.I, s.J] = s.pitched[0]


def cg_calc_p(s: Slab, args: tuple) -> None:
    """p = r + beta p."""
    _calc_p(s, F.R, args[0])


def ppcg_calc_p(s: Slab, args: tuple) -> None:
    """p = z + beta p (the preconditioned direction update)."""
    _calc_p(s, F.Z, args[0])


def cheby_init(s: Slab, args: tuple) -> None:
    """r = u0 - A u; sd = r/theta.  ``u += sd`` is the second sweep."""
    A, I, J = s.array, s.I, s.J
    r = A(F.R)[I, J]
    np.subtract(A(F.U0)[I, J], s.matvec(F.U), out=r)
    np.divide(r, args[0], out=A(F.SD)[I, J])


def cheby_calc_u(s: Slab, args: tuple) -> None:
    """u += sd: the second sweep of ``cheby_init``."""
    A, I, J = s.array, s.I, s.J
    u = A(F.U)[I, J]
    np.add(u, A(F.SD)[I, J], out=u)


def _smooth_residual(s: Slab, res: str) -> None:
    """res -= A sd (sd is read-only, so the slabs are race-free)."""
    r = s.array(res)[s.I, s.J]
    np.subtract(r, s.matvec(F.SD), out=r)


def _smooth_direction(s: Slab, res: str, acc: str, alpha: float, beta: float) -> None:
    """sd = alpha sd + beta res; acc += sd."""
    A, I, J = s.array, s.I, s.J
    sd, x = A(F.SD)[I, J], A(acc)[I, J]
    np.multiply(alpha, sd, out=sd)
    np.multiply(beta, A(res)[I, J], out=s.T0)
    np.add(sd, s.T0, out=sd)
    np.add(x, sd, out=x)


def cheby_iterate_r(s: Slab, args: tuple) -> None:
    """First sweep of a Chebyshev step: r -= A sd."""
    _smooth_residual(s, F.R)


def cheby_iterate_sd(s: Slab, args: tuple) -> None:
    """Second sweep: sd = alpha sd + beta r; u += sd."""
    _smooth_direction(s, F.R, F.U, args[0], args[1])


def ppcg_precon_init(s: Slab, args: tuple) -> None:
    """w = r; sd = w/theta; z = sd."""
    A, I, J = s.array, s.I, s.J
    w, sd = A(F.W)[I, J], A(F.SD)[I, J]
    w[...] = A(F.R)[I, J]
    np.divide(w, args[0], out=sd)
    A(F.Z)[I, J] = sd


def ppcg_inner_w(s: Slab, args: tuple) -> None:
    """First sweep of a PPCG inner step: w -= A sd."""
    _smooth_residual(s, F.W)


def ppcg_inner_sd(s: Slab, args: tuple) -> None:
    """Second sweep: sd = alpha sd + beta w; z += sd."""
    _smooth_direction(s, F.W, F.Z, args[0], args[1])


def cg_precon_jacobi(s: Slab, args: tuple) -> None:
    """z = r / diag(A), the diagonal-Jacobi preconditioner apply."""
    A = s.array
    z = A(F.Z)[s.I, s.J]
    diag_into(A(F.KX), A(F.KY), s.at, z)
    np.divide(A(F.R)[s.I, s.J], z, out=z)


def jacobi_iterate(s: Slab, args: tuple) -> np.ndarray:
    """u from the old iterate in r; contributes |u - r|.

    u = (u0 + kxE rE + kxW rW + kyN rN + kyS rS) / diag, left to right.
    """
    A, T0, T1 = s.array, s.T0, s.T1
    I, Ip, Im, J, Jp, Jm = s.I, s.Ip, s.Im, s.J, s.Jp, s.Jm
    u, r, kx, ky = A(F.U), A(F.R), A(F.KX), A(F.KY)
    diag_into(kx, ky, s.at, T0)
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
    return np.absolute(T0, out=T0)


def norm2_field(s: Slab, args: tuple) -> np.ndarray:
    """Contributes the squared 2-norm of field ``args[0]``."""
    v = s.array(args[0])[s.I, s.J]
    return np.multiply(v, v, out=s.T0)


def dot_fields(s: Slab, args: tuple) -> np.ndarray:
    """Contributes the dot product of fields ``args[0]`` and ``args[1]``."""
    A, I, J = s.array, s.I, s.J
    return np.multiply(A(args[0])[I, J], A(args[1])[I, J], out=s.T0)


def copy_field(s: Slab, args: tuple) -> None:
    """Field ``args[1]`` = field ``args[0]`` over the whole allocation.

    A whole-array step: the copy includes the halos.
    """
    s.array(args[1])[...] = s.array(args[0])


def tea_leaf_finalise(s: Slab, args: tuple) -> None:
    """energy1 = u / density."""
    A, I, J = s.array, s.I, s.J
    np.divide(A(F.U)[I, J], A(F.DENSITY)[I, J], out=A(F.ENERGY1)[I, J])


def field_summary(
    s: Slab, args: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (volume, mass, internal energy, temperature) contributions.

    Each term is formed per cell (``vol * d``, not ``vol * sum(d)``), so
    the contribution values match the other ports' summary kernels bit for
    bit before the shared deterministic reduction folds them.  Runs once
    per step, so it returns fresh vectors rather than four of scratch.
    """
    A, I, J, vol = s.array, s.I, s.J, s.cell_volume
    d = A(F.DENSITY)[I, J]
    return (
        np.full(d.size, vol),
        (vol * d).ravel(),
        (vol * d * A(F.ENERGY1)[I, J]).ravel(),
        (vol * A(F.U)[I, J]).ravel(),
    )
