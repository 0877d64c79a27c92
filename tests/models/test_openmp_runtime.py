"""OpenMP 3.0 runtime: static scheduling, the batched team, reductions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.base import make_port
from repro.models.openmp.runtime import (
    OpenMPRuntime,
    is_simd,
    simd,
    static_chunks,
)
from repro.models.reduction import deterministic_sum


class TestStaticChunks:
    def test_even_split(self):
        assert static_chunks(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_first(self):
        chunks = static_chunks(10, 4)
        sizes = [e - s for s, e in chunks]
        assert sizes == [3, 3, 2, 2]

    def test_more_threads_than_work(self):
        chunks = static_chunks(2, 8)
        assert chunks == [(0, 1), (1, 2)]

    def test_zero_iterations(self):
        assert static_chunks(0, 4) == []

    @pytest.mark.parametrize("n,t", [(-1, 4), (4, 0)])
    def test_invalid_args(self, n, t):
        with pytest.raises(ValueError):
            static_chunks(n, t)

    @given(n=st.integers(0, 500), t=st.integers(1, 64))
    def test_partition_invariants(self, n, t):
        """Chunks are contiguous, disjoint, ordered and cover [0, n)."""
        chunks = static_chunks(n, t)
        assert len(chunks) <= t
        covered = 0
        prev_end = 0
        for start, end in chunks:
            assert start == prev_end
            assert end > start
            covered += end - start
            prev_end = end
        assert covered == n
        # static schedule: sizes differ by at most 1
        if chunks:
            sizes = [e - s for s, e in chunks]
            assert max(sizes) - min(sizes) <= 1


class TestRuntime:
    def test_parallel_for_visits_everything(self):
        omp = OpenMPRuntime(num_threads=4)
        hits = np.zeros(10)

        def body(start, end):
            hits[start:end] += 1

        omp.parallel_for(10, body)
        assert np.all(hits == 1)
        assert omp.regions == 1

    def test_parallel_reduce_matches_serial(self):
        omp = OpenMPRuntime(num_threads=5)
        data = np.arange(100, dtype=float)
        total = omp.parallel_reduce(100, lambda s, e: float(data[s:e].sum()))
        assert total == pytest.approx(data.sum())

    def test_parallel_reduce_initial(self):
        omp = OpenMPRuntime(num_threads=2)
        assert omp.parallel_reduce(0, lambda s, e: 1.0, initial=5.0) == 5.0

    def test_multi_reduction(self):
        omp = OpenMPRuntime(num_threads=3)
        data = np.arange(30, dtype=float)
        sums = omp.parallel_reduce_multi(
            30, lambda s, e: (float(data[s:e].sum()), float(e - s)), width=2
        )
        assert sums[0] == pytest.approx(data.sum())
        assert sums[1] == 30.0

    def test_multi_reduction_arity_checked(self):
        omp = OpenMPRuntime(num_threads=2)
        with pytest.raises(ValueError, match="reduction body"):
            omp.parallel_reduce_multi(4, lambda s, e: (1.0,), width=2)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            OpenMPRuntime(num_threads=0)


class TestSimdMarker:
    def test_marker_preserves_behaviour(self):
        @simd
        def body(x):
            return x * 2

        assert body(21) == 42
        assert is_simd(body)

    def test_unmarked(self):
        assert not is_simd(lambda x: x)


class TestBatchedTeam:
    """Each region runs its team as one slab over ``[0, n)``."""

    @staticmethod
    def _calls(omp, method, n):
        calls = []

        def body(start, end):
            calls.append((start, end))
            return np.ones(end - start) if method != "parallel_for" else None

        if method == "parallel_reduce_multi":
            omp.parallel_reduce_multi(n, lambda s, e: (body(s, e),) * 2, width=2)
        else:
            getattr(omp, method)(n, body)
        return calls

    @pytest.mark.parametrize(
        "method", ["parallel_for", "parallel_reduce", "parallel_reduce_multi"]
    )
    def test_body_runs_once_over_the_whole_range(self, method):
        omp = OpenMPRuntime(num_threads=4)
        assert self._calls(omp, method, 10) == [(0, 10)]
        assert self._calls(omp, method, 0) == []
        assert omp.regions == 2

    @pytest.mark.parametrize(
        "method", ["parallel_for", "parallel_reduce", "parallel_reduce_multi"]
    )
    def test_negative_count_is_refused(self, method):
        omp = OpenMPRuntime(num_threads=4)
        with pytest.raises(ValueError, match="non-negative"):
            self._calls(omp, method, -1)

    def test_empty_reductions_return_their_identity(self):
        omp = OpenMPRuntime(num_threads=4)
        assert omp.parallel_reduce(0, lambda s, e: 1.0, initial=2.5) == 2.5
        assert omp.parallel_reduce_multi(0, lambda s, e: (1.0,), width=3) == (
            0.0, 0.0, 0.0,
        )


class PerThreadRuntime(OpenMPRuntime):
    """The per-thread schedule the batch stands for.

    Replays ``static_chunks(n, num_threads)`` one chunk at a time, last
    thread first, and concatenates reduction contributions in thread
    order.  Each chunk's contribution is copied at once, as a thread's
    private partial would be: a loop body returns a view of scratch that
    the next chunk of its size overwrites.
    """

    def _replay(self, n, body):
        self.regions += 1
        chunks = static_chunks(n, self.num_threads)
        results = {chunk: _private(body(*chunk)) for chunk in reversed(chunks)}
        return [results[chunk] for chunk in chunks]

    def parallel_for(self, n, body):
        self._replay(n, body)

    def parallel_reduce(self, n, body, initial=0.0):
        parts = self._replay(n, body)
        if not parts:
            return initial
        return initial + deterministic_sum(np.concatenate([np.ravel(p) for p in parts]))

    def parallel_reduce_multi(self, n, body, width):
        parts = self._replay(n, body)
        return tuple(
            deterministic_sum(np.concatenate([np.ravel(p[i]) for p in parts]))
            if parts else 0.0
            for i in range(width)
        )


def _private(partial):
    """A copy of one chunk's contribution, or of each of several."""
    if isinstance(partial, tuple):
        return tuple(np.array(p, dtype=np.float64) for p in partial)
    return np.array(partial, dtype=np.float64)


#: (solver, preconditioner, a kernel the solve must launch).  32x32 is the
#: smallest mesh on which Chebyshev and PPCG leave their CG warm-up, so
#: ``cheby_iterate`` and ``ppcg_inner`` launch (at 24x24 neither does).
SOLVES = [
    ("cg", "none", "cg_calc_w"),
    ("cg", "jac_diag", "cg_calc_w"),
    ("chebyshev", "none", "cheby_iterate"),
    ("ppcg", "none", "ppcg_inner"),
    ("jacobi", "none", "jacobi_iterate"),
]


def _solve(model, solver, precon, runtime=None):
    deck = dataclasses.replace(
        default_deck(n=32, solver=solver, end_step=2),
        tl_preconditioner_type=precon,
    )
    port = make_port(model, deck.grid())
    if runtime is not None:
        port.omp = runtime(port.omp.num_threads)
    app = TeaLeaf(deck, port=port)
    result = app.run()
    return {
        "u": app.field(F.U)[app.grid.inner()].copy(),
        "per_step": result.iterations_per_step(),
        "summary": result.steps[-1].summary,
        "launches": result.trace.kernel_histogram(),
        "regions": port.omp.regions,
    }


@pytest.mark.parametrize("model", ["openmp-f90", "openmp4", "openacc"])
@pytest.mark.parametrize("solver,precon,kernel", SOLVES)
def test_batch_is_bitwise_the_per_thread_schedule(model, solver, precon, kernel):
    batched = _solve(model, solver, precon)
    per_thread = _solve(model, solver, precon, PerThreadRuntime)
    assert batched["launches"][kernel] > 0
    assert batched["regions"] == per_thread["regions"] > 0
    np.testing.assert_array_equal(batched["u"], per_thread["u"])
    assert batched["per_step"] == per_thread["per_step"]
    assert batched["summary"] == per_thread["summary"]
    assert batched["launches"] == per_thread["launches"]
