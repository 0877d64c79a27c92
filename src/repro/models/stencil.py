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

The ``*_into`` forms evaluate that order through ``out=`` into
caller-owned arrays, over a :class:`Stencil` of five operand keys, and
serve both ways of reaching the operands:

* a **region** (:func:`region_stencil`) indexes the padded 2-D arrays
  with row/column slice pairs, for any rectangle and any memory order;
* a **span** (:func:`row_span`) indexes the flattened arrays with 1-D
  slices.  Interior rows ``[r0, r1)`` of a C-ordered array with row
  pitch ``P = nx + 2h`` lie in one flat run that starts at
  ``(h + r0) P + h`` and holds ``(r1 - r0 - 1) P + nx`` cells; the
  neighbours are that run shifted by ``+1``, ``-1``, ``+P`` and ``-P``.
  Each ufunc then streams contiguous memory instead of a strided view.
  The ``2h`` halo cells between consecutive rows get values nobody
  reads; callers copy the interior out through a pitched ``(rows, nx)``
  view of the result.  :func:`flat` is the one place an array becomes a
  span's operand, and it refuses any array whose rows are not ``P``
  contiguous cells, where a flat shift would name the wrong neighbour.

A span's results land in :func:`scratch`, the one pool of scratch
blocks that the generated kernels and the OpenMP-C loop bodies share.
"""

from __future__ import annotations

import functools
import weakref
from typing import Any, NamedTuple

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


class Stencil(NamedTuple):
    """The five operand keys of the 5-point operator.

    ``c`` indexes the centre cells, ``e``/``w``/``n``/``s`` their east,
    west, north and south neighbours: 2-D slice pairs for a region,
    1-D slices of the flattened arrays for a span.
    """

    c: Any
    e: Any
    w: Any
    n: Any
    s: Any


def region_stencil(I, Im, Ip, J, Jm, Jp) -> Stencil:
    """The operand keys of the 2-D region ``[I, J]`` of the padded arrays."""
    return Stencil((I, J), (I, Jp), (I, Jm), (Ip, J), (Im, J))


@functools.lru_cache(maxsize=1024)
def row_span(h: int, nx: int, r0: int, r1: int) -> tuple[int, int, Stencil]:
    """``(start, length, stencil)`` of interior rows ``[r0, r1)`` as a span.

    The run ``[start, start + length)`` of a flattened C-ordered array
    with row pitch ``nx + 2h`` holds the band's interior cells (and the
    halo cells between its rows); ``stencil`` is that run and its four
    shifts.  Reads reach rows ``[h + r0 - 1, h + r1]`` only.  Cached:
    the OpenMP slabs ask for the same few bands on every sweep.
    """
    pitch = nx + 2 * h
    start = (h + r0) * pitch + h
    length = (r1 - r0 - 1) * pitch + nx
    return start, length, Stencil(
        *(slice(start + d, start + d + length) for d in (0, 1, -1, pitch, -pitch))
    )


#: Scratch blocks by ``(rows, pitch)``, shared by every holder of that
#: geometry and freed with the last of them.
_SCRATCH: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def scratch(rows: int, pitch: int) -> np.ndarray:
    """The scratch block of ``rows`` rows of pitch ``pitch``.

    Three rows of ``rows * pitch`` floats: each holds one span of those
    rows (``length <= rows * pitch``) or a ``(rows, pitch)`` array.  The
    pool keeps a block only while someone holds it: a port holds its
    geometry's block, so its sweeps allocate nothing, while a caller that
    holds none gets a block that lives for its call.  Every user writes
    scratch before it reads it and carries nothing in it between calls,
    so holders of one geometry share one block.  That relies on no two
    ports being driven from two threads at once; nothing in ``src/``
    does that.
    """
    block = _SCRATCH.get((rows, pitch))
    if block is None:
        block = _SCRATCH[(rows, pitch)] = np.empty((3, rows * pitch))
    return block


def flat(a: np.ndarray, pitch: int) -> np.ndarray:
    """``a`` as one flat run of cells, for a span to index.

    ``reshape(-1)`` of a non-contiguous array silently copies, and a row
    length other than ``pitch`` moves every neighbour, so both are
    refused here rather than computed wrong.
    """
    if a.ndim != 2 or a.shape[1] != pitch or not a.flags.c_contiguous:
        raise ValueError(
            f"a span needs a C-contiguous array with rows of {pitch} cells, "
            f"got shape {a.shape} with strides {a.strides}"
        )
    return a.reshape(-1)


def diag_into(kx, ky, at: Stencil, out) -> np.ndarray:
    """:func:`row_diag` written through ``out=``: same sums, same order.

    ``at`` indexes ``kx``/``ky`` (2-D for a region, flat for a span);
    ``out`` has the shape of ``kx[at.c]`` and shares no memory with
    ``kx``/``ky``.  Nothing else is allocated.
    """
    np.add(1.0, kx[at.e], out=out)
    np.add(out, kx[at.c], out=out)
    np.add(out, ky[at.n], out=out)
    np.add(out, ky[at.c], out=out)
    return out


def matvec_into(v, kx, ky, at: Stencil, out, t0, t1) -> np.ndarray:
    """:func:`row_matvec` written through ``out=`` with two scratch arrays.

    Evaluates the identical association order — the diagonal term, then
    minus the x pair, then minus the y pair — so every cell's bits match
    :func:`row_matvec`, however ``at`` reaches the operands.  ``out``,
    ``t0`` and ``t1`` are distinct arrays of the shape of ``v[at.c]``
    sharing no memory with ``v``/``kx``/``ky``.
    """
    diag_into(kx, ky, at, out)
    np.multiply(out, v[at.c], out=out)
    np.multiply(kx[at.e], v[at.e], out=t0)
    np.multiply(kx[at.c], v[at.w], out=t1)
    np.add(t0, t1, out=t0)
    np.subtract(out, t0, out=out)
    np.multiply(ky[at.n], v[at.n], out=t0)
    np.multiply(ky[at.c], v[at.s], out=t1)
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
