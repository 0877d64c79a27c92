"""OpenMP 3.0 execution semantics: thread teams, static schedule, reductions.

``parallel_for`` corresponds to ``#pragma omp parallel for schedule(static)``
over an outer loop: the iteration range is split into one contiguous chunk
per thread (:func:`static_chunks`).  ``parallel_reduce`` additionally gives
each thread a private partial that is combined at the join, which is
OpenMP's ``reduction(+:...)`` clause.

The emulation runs the whole team as one slab, ``body(0, n)``, as the CUDA
launch runs its grid as one SIMT batch and Kokkos runs a ``RangePolicy``.
That is bitwise what running the team chunk by chunk gives:

- the static chunks are contiguous and in thread order, so together they
  are exactly ``[0, n)``;
- every loop body keeps the reach contract of
  :mod:`repro.models.loopbodies`: it writes only its slab's interior cells
  and reads no array it writes outside them, so no chunk sees another's
  writes and any execution order, or all chunks at once, gives the same
  bits;
- a reduction body returns one contribution per iteration, so the
  concatenated chunk contributions are the single call's contribution
  vector, which the shared deterministic tree folds.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.reduction import deterministic_sum

#: Default team size: the paper's CPU runs use dual-socket E5-2670 with 16
#: threads and compact affinity (§4.1).
DEFAULT_NUM_THREADS = 16


def static_chunks(n: int, nthreads: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` chunks of ``range(n)``, one per thread.

    Matches OpenMP's ``schedule(static)`` without a chunk size: the first
    ``n % nthreads`` chunks get one extra iteration.  Threads with no work
    receive no chunk (empty chunks are skipped, as a real runtime would).
    """
    if n < 0:
        raise ValueError(f"iteration count must be non-negative, got {n}")
    if nthreads < 1:
        raise ValueError(f"thread count must be positive, got {nthreads}")
    base, extra = divmod(n, nthreads)
    chunks: list[tuple[int, int]] = []
    start = 0
    for t in range(nthreads):
        size = base + (1 if t < extra else 0)
        if size == 0:
            continue
        chunks.append((start, start + size))
        start += size
    return chunks


class OpenMPRuntime:
    """A fork-join thread team with static scheduling, run as one batch.

    ``num_threads`` fixes the static schedule a region stands for; each
    region runs its team as one slab over ``[0, n)`` (see the module
    docstring for why that is bitwise the per-thread schedule).  Reduction
    contributions are finalised through the shared deterministic pairwise
    tree (:mod:`repro.models.reduction`) rather than the thread-join order,
    so reduction scalars are bitwise identical across all ports.
    """

    def __init__(self, num_threads: int = DEFAULT_NUM_THREADS) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        self.num_threads = num_threads
        #: Number of parallel regions entered (fork-join overhead counter).
        self.regions = 0

    def _fork(self, n: int) -> bool:
        """Enter one parallel region over ``range(n)``; True if it has work."""
        if n < 0:
            raise ValueError(f"iteration count must be non-negative, got {n}")
        self.regions += 1
        return n > 0

    def parallel_for(self, n: int, body: Callable[[int, int], None]) -> None:
        """``#pragma omp parallel for schedule(static)`` over ``range(n)``.

        ``body(start, end)`` processes the contiguous rows ``[start, end)``;
        the team runs as the one slab ``[0, n)``.
        """
        if self._fork(n):
            body(0, n)

    def parallel_reduce(
        self,
        n: int,
        body: Callable[[int, int], float],
        initial: float = 0.0,
    ) -> float:
        """``parallel for reduction(+:acc)`` over ``range(n)``.

        The team's contribution — a scalar, or a per-iteration array for
        bodies that expose their elementwise terms — is the canonical
        iteration-order contribution vector, finalised by the shared
        deterministic pairwise tree.
        """
        if not self._fork(n):
            return initial
        return initial + deterministic_sum(_contribution(body(0, n)))

    def parallel_reduce_multi(
        self,
        n: int,
        body: Callable[[int, int], tuple[float, ...]],
        width: int,
    ) -> tuple[float, ...]:
        """Multi-variable reduction (``reduction(+:a,b,c)``)."""
        if not self._fork(n):
            return (0.0,) * width
        partial = body(0, n)
        if len(partial) != width:
            raise ValueError(
                f"reduction body returned {len(partial)} values, expected {width}"
            )
        return tuple(deterministic_sum(_contribution(v)) for v in partial)


def _contribution(value) -> np.ndarray:
    """A body's reduction result as a flat float64 contribution vector."""
    return np.atleast_1d(np.asarray(value, dtype=np.float64)).ravel()
