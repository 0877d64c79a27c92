"""The OpenMP-C TeaLeaf loop bodies shared by the directive-based ports.

The paper's OpenMP 4.0 port "added a target region to each of the
performance critical functions" of the OpenMP C codebase, and the OpenACC
port "was possible to use the OpenMP 4.0 codebase as a starting point,
changing the directives but maintaining the same data transitions" (§3.1,
§3.2).  This module is that shared C codebase: each function is one loop
nest over a contiguous slab of interior rows ``[r0, r1)``, written exactly
as the directive models parallelise it (outer rows distributed across
threads/gangs, inner row vectorised).

Kokkos, RAJA, OpenCL and CUDA do **not** use these bodies — their ports
re-express the kernels through their own abstractions, as the paper's did.

All bodies take raw arrays plus the halo depth ``h`` and interior width
``nx``.  Reach contract: a body reads only rows ``[h+r0-1, h+r1]`` and
writes only the slab's interior cells (rows ``[h+r0, h+r1)`` by columns
``[h, h+nx)``), which is what makes the static row decomposition
race-free.  It is also what lets
:class:`~repro.models.openmp.OpenMPRuntime` run a whole team as the one
slab ``[0, ny)``: the per-thread chunks give the same bits in any order.
Within those rows the stencil may read any column: :func:`matvec_slab`
runs over the slab's span (:func:`~repro.models.stencil.row_span`), whose
gap cells between rows read the halo columns and corners, and keeps only
the interior cells.  Update kernels that read neighbour values of an
array they also write are split into two sweeps (matvec sweep, then axpy
sweep), mirroring the reference kernels.

The bodies of the CG iteration (:func:`matvec_slab`,
:func:`cg_calc_ur_slab`, :func:`cg_calc_p_slab`) sweep the span through
``out=`` into the slab geometry's block of
:func:`~repro.models.stencil.scratch`, with the ufuncs, operands and order
of the generated ``cg_calc_ur`` and ``calc_p``, and write each field once
through its interior view.  A port holds its geometry's block, so those
sweeps allocate nothing; a reduction body still returns a fresh
contribution vector, which callers may keep past the next call.
"""

from __future__ import annotations

import numpy as np

from repro.models.stencil import (
    face_coefficient,
    flat,
    matvec_into,
    row_diag,
    row_span,
    scratch,
)


def _rows(h: int, r0: int, r1: int, dk: int = 0) -> slice:
    return slice(h + r0 + dk, h + r1 + dk)


def _cols(h: int, nx: int, dj: int = 0) -> slice:
    return slice(h + dj, h + nx + dj)


def _slab_scratch(h: int, nx: int, r0: int, r1: int):
    """``(pitch, length, stencil, block)`` of interior rows ``[r0, r1)``.

    ``length`` and ``stencil`` are the rows' span (:func:`row_span`);
    ``block`` is the rows' scratch block, whose rows' first ``length``
    cells each hold one span.
    """
    pitch = nx + 2 * h
    _, length, at = row_span(h, nx, r0, r1)
    return pitch, length, at, scratch(r1 - r0, pitch)


def _interior(row: np.ndarray, rows: int, pitch: int, nx: int) -> np.ndarray:
    """A scratch row's span's interior cells, as a ``(rows, nx)`` view."""
    return row.reshape(rows, pitch)[:, :nx]


def matvec_slab(
    out: np.ndarray,
    v: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """out[slab] = A v over interior rows [r0, r1).

    Evaluated over the slab's span in scratch; ``out`` is written once,
    through its interior view.
    """
    pitch, length, at, block = _slab_scratch(h, nx, r0, r1)
    matvec_into(
        flat(v, pitch), flat(kx, pitch), flat(ky, pitch), at,
        block[0, :length], block[1, :length], block[2, :length],
    )
    out[_rows(h, r0, r1), _cols(h, nx)] = _interior(block[0], r1 - r0, pitch, nx)


def tea_leaf_init_slab(
    density: np.ndarray,
    energy: np.ndarray,
    u: np.ndarray,
    u0: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    rx: float,
    ry: float,
    recip: bool,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """u = u0 = energy*density; face coefficients from density (harmonic)."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    Jm = _cols(h, nx, -1)
    Im = _rows(h, r0, r1, -1)

    u[I, J] = energy[I, J] * density[I, J]
    u0[I, J] = u[I, J]

    if recip:
        wc = 1.0 / density[I, J]
        wx = 1.0 / density[I, Jm]
        wy = 1.0 / density[Im, J]
    else:
        wc = density[I, J]
        wx = density[I, Jm]
        wy = density[Im, J]
    kx[I, J] = face_coefficient(wx, wc, rx)
    ky[I, J] = face_coefficient(wy, wc, ry)


def zero_boundary_coefficients(
    kx: np.ndarray, ky: np.ndarray, h: int, nx: int, ny: int
) -> None:
    """Zero wall-face coefficients: the reflective (zero-flux) boundary."""
    kx[:, : h + 1] = 0.0
    kx[:, h + nx :] = 0.0
    ky[: h + 1, :] = 0.0
    ky[h + ny :, :] = 0.0


def residual_slab(
    r: np.ndarray,
    u0: np.ndarray,
    u: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """r = u0 - A u."""
    matvec_slab(r, u, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] = u0[I, J] - r[I, J]


def cg_init_slab(
    w: np.ndarray,
    r: np.ndarray,
    p: np.ndarray,
    u: np.ndarray,
    u0: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """w = A u; r = u0 - w; p = r; returns per-cell rro contributions."""
    matvec_slab(w, u, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] = u0[I, J] - w[I, J]
    p[I, J] = r[I, J]
    rr = r[I, J]
    return (rr * rr).ravel()


def cg_calc_w_slab(
    w: np.ndarray,
    p: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """w = A p; returns per-cell pw = p.w contributions."""
    matvec_slab(w, p, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    return (p[I, J] * w[I, J]).ravel()


def cg_calc_ur_slab(
    u: np.ndarray,
    r: np.ndarray,
    p: np.ndarray,
    w: np.ndarray,
    alpha: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """u += alpha p; r -= alpha w; returns per-cell rrn contributions."""
    pitch, length, at, block = _slab_scratch(h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    su, sr = block[0, :length], block[1, :length]
    np.multiply(alpha, flat(p, pitch)[at.c], out=su)
    np.add(flat(u, pitch)[at.c], su, out=su)
    u[I, J] = _interior(block[0], r1 - r0, pitch, nx)
    np.multiply(alpha, flat(w, pitch)[at.c], out=sr)
    np.subtract(flat(r, pitch)[at.c], sr, out=sr)
    rr = _interior(block[1], r1 - r0, pitch, nx)
    r[I, J] = rr
    return np.multiply(rr, rr).ravel()


def cg_calc_p_slab(
    p: np.ndarray,
    r: np.ndarray,
    beta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """p = r + beta p."""
    pitch, length, at, block = _slab_scratch(h, nx, r0, r1)
    out = block[0, :length]
    np.multiply(beta, flat(p, pitch)[at.c], out=out)
    np.add(flat(r, pitch)[at.c], out, out=out)
    p[_rows(h, r0, r1), _cols(h, nx)] = _interior(block[0], r1 - r0, pitch, nx)


def cheby_init_slab(
    r: np.ndarray,
    sd: np.ndarray,
    u: np.ndarray,
    u0: np.ndarray,
    w: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    theta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """r = u0 - A u; sd = r/theta (u update happens in the second sweep)."""
    matvec_slab(w, u, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] = u0[I, J] - w[I, J]
    sd[I, J] = r[I, J] / theta


def cheby_calc_u_slab(
    u: np.ndarray,
    sd: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """u += sd (second sweep of init and iterate)."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    u[I, J] += sd[I, J]


def cheby_iterate_r_slab(
    r: np.ndarray,
    sd: np.ndarray,
    w: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """First sweep: r -= A sd (sd read-only, so slabs are race-free)."""
    matvec_slab(w, sd, kx, ky, h, nx, r0, r1)
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    r[I, J] -= w[I, J]


def cheby_iterate_sd_slab(
    sd: np.ndarray,
    r: np.ndarray,
    u: np.ndarray,
    alpha: float,
    beta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """Second sweep: sd = alpha sd + beta r; u += sd."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    sd[I, J] = alpha * sd[I, J] + beta * r[I, J]
    u[I, J] += sd[I, J]


def ppcg_precon_init_slab(
    w: np.ndarray,
    sd: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    theta: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """w = r; sd = w/theta; z = sd."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    w[I, J] = r[I, J]
    sd[I, J] = w[I, J] / theta
    z[I, J] = sd[I, J]


def cg_precon_slab(
    z: np.ndarray,
    r: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """z = r / diag(A), the diagonal-Jacobi preconditioner apply."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    Jp = _cols(h, nx, 1)
    Ip = _rows(h, r0, r1, 1)
    z[I, J] = r[I, J] / row_diag(kx, ky, I, Ip, J, Jp)


def jacobi_iterate_slab(
    u: np.ndarray,
    un: np.ndarray,
    u0: np.ndarray,
    kx: np.ndarray,
    ky: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> np.ndarray:
    """u from old copy un: the Jacobi sweep; returns per-cell |u - un|."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    Jp = _cols(h, nx, 1)
    Jm = _cols(h, nx, -1)
    Ip = _rows(h, r0, r1, 1)
    Im = _rows(h, r0, r1, -1)
    diag = row_diag(kx, ky, I, Ip, J, Jp)
    u[I, J] = (
        u0[I, J]
        + kx[I, Jp] * un[I, Jp]
        + kx[I, J] * un[I, Jm]
        + ky[Ip, J] * un[Ip, J]
        + ky[I, J] * un[Im, J]
    ) / diag
    return np.abs(u[I, J] - un[I, J]).ravel()


def finalise_slab(
    energy: np.ndarray,
    u: np.ndarray,
    density: np.ndarray,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> None:
    """energy = u / density."""
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    energy[I, J] = u[I, J] / density[I, J]


def field_summary_slab(
    density: np.ndarray,
    energy: np.ndarray,
    u: np.ndarray,
    cell_volume: float,
    h: int,
    nx: int,
    r0: int,
    r1: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (volume, mass, internal energy, temperature) contributions.

    Each term is formed per cell — ``vol * d``, not ``vol * sum(d)`` — so
    the contribution values match the other ports' summary kernels bit for
    bit before the shared deterministic reduction folds them.
    """
    I = _rows(h, r0, r1)
    J = _cols(h, nx)
    d = density[I, J]
    e = energy[I, J]
    vol = np.full(d.size, cell_volume)
    mass = (cell_volume * d).ravel()
    ie = (cell_volume * d * e).ravel()
    temp = (cell_volume * u[I, J]).ravel()
    return vol, mass, ie, temp
