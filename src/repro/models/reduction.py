"""The shared deterministic reduction core.

Every port emulation used to finalise its reductions in its own floating
point order — Kokkos summed a whole contribution array with ``np.sum``,
RAJA accumulated per-segment partials left to right, CUDA and OpenCL ran
an in-device tree and then ``np.sum``-ed the block partials on the host,
and OpenMP summed per-thread chunk partials at the join.  Those orders all
differ at ULP level, so CG's ``alpha``/``beta`` diverged across ports and
the drift compounded over hundreds of iterations, breaking the paper's
premise that "core solver logic and parameters were kept consistent
between ports".

This module defines the *one* canonical summation order every port now
finalises through:

1. the contribution vector (one value per interior cell, row-major) is
   zero-padded to a whole number of :data:`CHUNK`-wide chunks;
2. each chunk is folded by the classic power-of-two stride-halving
   pairwise tree — exactly the shared-memory tree the CUDA/OpenCL
   emulations already run per block/work-group of :data:`CHUNK` lanes, so
   their in-device stage *is* the canonical chunk stage;
3. the chunk partials are zero-padded to the next power of two and folded
   by the same pairwise tree (:func:`combine_partials`), replacing each
   port's ad-hoc host-side combine.

Zero-padding is exact for IEEE-754 addition (``x + 0.0 == x`` for every
non-degenerate ``x``), so any port that naturally produces a zero tail —
a GPU launch rounded up to whole blocks, say — already matches the
canonical padding bit for bit.

Each port still *dispatches* its reduction through its own API shape
(functors + reducers, ``ReduceSum`` objects, device partials buffers,
``reduction(+:...)`` chunk partials) and still records its own trace
events; only the floating-point combine order is shared.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Canonical chunk width: the CUDA block size / OpenCL work-group size the
#: TeaLeaf GPU ports launch with, so the device tree equals the chunk tree.
CHUNK = 128


def _tree_fold(rows: np.ndarray) -> np.ndarray:
    """Fold each row of ``(m, 2**k)`` by the stride-halving pairwise tree.

    This is the shared-memory reduction loop —
    ``if (tid < stride) sdata[tid] += sdata[tid + stride]`` — applied to
    every row at once; returns the ``m`` per-row results.

    The input is never copied.  The first level adds each row's two
    halves straight from ``rows`` into a lane-major ``(2**(k-1), m)``
    work array, so ``work[lane, row]`` is that row's ``sdata[lane]``.
    Every later level is then one in-place add of two contiguous slabs,
    ``work[:stride] += work[stride:2*stride]``: the same pairs, added in
    the same order, as the per-row loop.
    """
    rows = np.asarray(rows, dtype=np.float64)
    half = rows.shape[1] // 2
    if half == 0:
        return rows[:, 0].copy()
    work = np.add(rows[:, :half].T, rows[:, half : 2 * half].T, order="C")
    stride = half // 2
    while stride >= 1:
        work[:stride] += work[stride : 2 * stride]
        stride //= 2
    return work[0]


def chunk_partials(values: np.ndarray, chunk: int = CHUNK) -> np.ndarray:
    """Stage 1: per-chunk pairwise-tree sums of a zero-padded vector.

    Whole chunks fold through a reshaped view of the input; only a
    trailing partial chunk is copied into a zero-padded buffer.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    whole = flat.size - flat.size % chunk
    partials = _tree_fold(flat[:whole].reshape(-1, chunk))
    if whole == flat.size:
        return partials
    tail = np.zeros((1, chunk))
    tail[0, : flat.size - whole] = flat[whole:]
    return np.concatenate([partials, _tree_fold(tail)])


def combine_partials(partials: np.ndarray) -> float:
    """Stage 2: fold chunk/block partials by one zero-padded pairwise tree.

    This is the canonical host-side combine: GPU ports call it directly on
    the block partials they copied back from the device.
    """
    flat = np.asarray(partials, dtype=np.float64).ravel()
    if flat.size == 0:
        return 0.0
    width = 1
    while width < flat.size:
        width <<= 1
    if width > flat.size:
        flat = np.concatenate([flat, np.zeros(width - flat.size)])
    return float(_tree_fold(flat.reshape(1, width))[0])


def deterministic_sum(values: np.ndarray, chunk: int = CHUNK) -> float:
    """The canonical fixed-shape sum every port's reduction finalises with."""
    return combine_partials(chunk_partials(values, chunk))


def deterministic_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Canonical dot product: elementwise products, canonical sum."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    return deterministic_sum(av * bv)


def deterministic_multi_sum(arrays: Sequence[np.ndarray]) -> tuple[float, ...]:
    """Multi-accumulator variant (the field summary's four totals)."""
    return tuple(deterministic_sum(a) for a in arrays)
