"""Shared 5-point stencil arithmetic and interior-index helpers.

Every port applies the same symmetric five-point operator

    (A v)_ij = (1 + kxE + kxW + kyN + kyS) v_ij
               - (kxE v_E + kxW v_W) - (kyN v_N + kyS v_S)

but the paper's ports each re-derived the index arithmetic in their own
idiom: CUDA and OpenCL from a flattened 1-D launch index, Kokkos from
layout-polymorphic strides, RAJA from precomputed indirection lists, and
the OpenMP/OpenACC loop bodies from 2-D row slabs.  The *expressions* were
copy-pasted between those files; this module is the single home for them.

Bitwise contract: callers pass their own neighbour offsets / slices, and
each helper keeps exactly one association order, so all ports produce
bit-for-bit identical values regardless of how they index (the PR 3
equivalence gate depends on this).

The ``*_into`` forms used by the compiled hot path evaluate the same
order through ``out=`` into caller-owned arrays.
"""

from __future__ import annotations

import numpy as np


def decode_interior(idx: np.ndarray, n: int, pitch: int, h: int, nx: int):
    """Overspill guard + interior flat-index computation for 1-D launches.

    ``idx`` is the batch of global work-item / thread indices; returns
    ``(valid, i, j, k)`` where ``valid`` masks indices below ``n``, ``i``
    is the flat padded-array position of each interior cell, and ``j``/``k``
    are its padded column/row coordinates.
    """
    valid = idx < n
    c = idx[valid]
    k = c // nx + h
    j = c % nx + h
    return valid, k * pitch + j, j, k


def flat_matvec(i: np.ndarray, v, kx, ky, east: int, north: int) -> np.ndarray:
    """A v at flat interior indices ``i`` with explicit neighbour offsets.

    CUDA/OpenCL pass ``east=1, north=pitch`` (row-major flattening), Kokkos
    passes its layout-derived strides, RAJA ``east=1, north=pitch``.
    """
    return (
        (1.0 + kx[i + east] + kx[i] + ky[i + north] + ky[i]) * v[i]
        - (kx[i + east] * v[i + east] + kx[i] * v[i - east])
        - (ky[i + north] * v[i + north] + ky[i] * v[i - north])
    )


def flat_diag(i: np.ndarray, kx, ky, east: int, north: int) -> np.ndarray:
    """diag(A) at flat interior indices ``i`` (Jacobi / jac_diag kernels)."""
    return 1.0 + kx[i + east] + kx[i] + ky[i + north] + ky[i]


def row_matvec(v, kx, ky, I, Im, Ip, J, Jm, Jp) -> np.ndarray:
    """A v over a 2-D row slab given centre/shifted row and column slices.

    The OpenMP slab bodies pass slices covering rows ``[r0, r1)``; the
    Kokkos hierarchical port passes a single team row.
    """
    return (
        (1.0 + kx[I, Jp] + kx[I, J] + ky[Ip, J] + ky[I, J]) * v[I, J]
        - (kx[I, Jp] * v[I, Jp] + kx[I, J] * v[I, Jm])
        - (ky[Ip, J] * v[Ip, J] + ky[I, J] * v[Im, J])
    )


def row_diag(kx, ky, I, Ip, J, Jp) -> np.ndarray:
    """diag(A) over a 2-D row slab."""
    return 1.0 + kx[I, Jp] + kx[I, J] + ky[Ip, J] + ky[I, J]


def diag_into(kx, ky, I, Ip, J, Jp, out) -> np.ndarray:
    """:func:`row_diag` written through ``out=``: same sums, same order.

    ``out`` is a ``(len(I), len(J))`` array that shares no memory with
    ``kx``/``ky``; nothing else is allocated.
    """
    np.add(1.0, kx[I, Jp], out=out)
    np.add(out, kx[I, J], out=out)
    np.add(out, ky[Ip, J], out=out)
    np.add(out, ky[I, J], out=out)
    return out


def matvec_into(v, kx, ky, I, Im, Ip, J, Jm, Jp, out, t0, t1) -> np.ndarray:
    """:func:`row_matvec` written through ``out=`` with two scratch arrays.

    Evaluates the identical association order — the diagonal term, then
    minus the x pair, then minus the y pair — so every cell's bits match
    :func:`row_matvec`.  ``out``, ``t0`` and ``t1`` are distinct
    ``(len(I), len(J))`` arrays sharing no memory with ``v``/``kx``/``ky``.
    """
    diag_into(kx, ky, I, Ip, J, Jp, out)
    np.multiply(out, v[I, J], out=out)
    np.multiply(kx[I, Jp], v[I, Jp], out=t0)
    np.multiply(kx[I, J], v[I, Jm], out=t1)
    np.add(t0, t1, out=t0)
    np.subtract(out, t0, out=out)
    np.multiply(ky[Ip, J], v[Ip, J], out=t0)
    np.multiply(ky[I, J], v[Im, J], out=t1)
    np.add(t0, t1, out=t0)
    np.subtract(out, t0, out=out)
    return out


def face_coefficient(wa, wb, scale):
    """Harmonic-mean face conduction coefficient with rx/ry folded in.

    ``scale * (wa + wb) / (2 wa wb)`` in exactly this association order —
    the tea_leaf_init bodies of every port (and the codegen backend) must
    produce the same bits for kx/ky or nothing downstream matches.
    """
    return scale * (wa + wb) / (2.0 * wa * wb)
