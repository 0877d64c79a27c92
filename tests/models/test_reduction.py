"""The shared deterministic reduction core.

Every port finalises its reduction partials through this one pairwise
tree, so these properties — padding transparency, chunk/combine
consistency, accuracy against fsum, and bit-for-bit agreement with the
row-wise stride-halving loop the tree was first written as — are what
make cross-port bitwise equality possible at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.reduction import (
    CHUNK,
    _tree_fold,
    chunk_partials,
    combine_partials,
    deterministic_dot,
    deterministic_multi_sum,
    deterministic_sum,
)


def random_values(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)


class TestDeterministicSum:
    def test_empty(self):
        assert deterministic_sum(np.zeros(0)) == 0.0

    def test_single_value(self):
        assert deterministic_sum(np.asarray([3.25])) == 3.25

    @pytest.mark.parametrize("n", [1, 2, 7, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3])
    def test_zero_padding_is_exact(self, n):
        """Appending zeros never changes the result (x + 0.0 == x)."""
        values = random_values(n, seed=n)
        padded = np.concatenate([values, np.zeros(17)])
        assert deterministic_sum(values) == deterministic_sum(padded)

    def test_equals_chunked_pipeline(self):
        values = random_values(1000, seed=1)
        assert deterministic_sum(values) == combine_partials(chunk_partials(values))

    def test_layout_independent(self):
        """Non-contiguous views reduce identically to contiguous copies."""
        base = random_values(2 * 513, seed=2)
        strided = base[::2]
        assert deterministic_sum(strided) == deterministic_sum(strided.copy())

    @given(n=st.integers(0, 600), seed=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_close_to_fsum(self, n, seed):
        """Pairwise trees are at least as accurate as recursive summation."""
        values = random_values(n, seed=seed)
        exact = math.fsum(values)
        got = deterministic_sum(values)
        scale = max(1.0, float(np.abs(values).sum()))
        assert abs(got - exact) <= 1e-12 * scale

    def test_order_sensitivity_is_the_point(self):
        """The canonical order is fixed; permuting inputs may change bits.

        This documents that deterministic_sum is *not* a mathematical
        set-sum: ports must present contributions in the canonical
        row-major interior order to get bitwise-identical scalars.
        """
        values = random_values(300, seed=3)
        assert deterministic_sum(values) == deterministic_sum(values.copy())


# --------------------------------------------------------------------- #
# reference: the row-wise stride-halving loop
# --------------------------------------------------------------------- #
def row_loop_fold(rows):
    """``sdata[tid] += sdata[tid + stride]`` over every row of a copy."""
    work = np.asarray(rows, dtype=np.float64).copy()
    stride = work.shape[1] // 2
    while stride >= 1:
        work[:, :stride] += work[:, stride : 2 * stride]
        stride //= 2
    return work[:, 0].copy()


def row_loop_chunk_partials(values, chunk=CHUNK):
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return np.zeros(0)
    pad = (-flat.size) % chunk
    if pad:
        flat = np.concatenate([flat, np.zeros(pad)])
    return row_loop_fold(flat.reshape(-1, chunk))


def row_loop_sum(values):
    partials = row_loop_chunk_partials(values)
    if partials.size == 0:
        return 0.0
    width = 1
    while width < partials.size:
        width <<= 1
    padded = np.concatenate([partials, np.zeros(width - partials.size)])
    return float(row_loop_fold(padded.reshape(1, width))[0])


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def special_values(shape, seed, rate):
    """Values over forty decades, with a share of ±0, ±inf and NaN."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
    mask = rng.random(shape) < rate
    values[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return values


def bits(values):
    """uint64 view of ``values`` with every NaN mapped to one pattern.

    When two NaNs meet, which sign survives depends on the operand order
    of the machine loop NumPy picks (IEEE-754 leaves it open, and the
    reference loop itself flips it with the array shape), so NaN is
    compared as NaN and every other value bit for bit.
    """
    out = np.array(values, dtype=np.float64, ndmin=1)
    out[np.isnan(out)] = np.nan
    return out.view(np.uint64)


#: Vector lengths around whole numbers of chunks.
around_chunks = st.builds(
    lambda q, d: max(0, q * CHUNK + d), st.integers(0, 6), st.integers(-3, 3)
)
rates = st.sampled_from([0.0, 0.05, 0.5, 1.0])


class TestTreeMatchesRowLoop:
    """The copy-free fold adds the same pairs in the same order."""

    @given(
        m=st.integers(1, 9),
        k=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
        rate=rates,
    )
    @settings(max_examples=150, deadline=None)
    def test_tree_fold(self, m, k, seed, rate):
        rows = special_values((m, 2**k), seed, rate)
        with np.errstate(all="ignore"):
            got, want = _tree_fold(rows), row_loop_fold(rows)
        np.testing.assert_array_equal(bits(got), bits(want))

    @given(n=around_chunks, seed=st.integers(0, 2**32 - 1), rate=rates,
           strided=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_chunk_partials_and_sum(self, n, seed, rate, strided):
        values = special_values(2 * n if strided else n, seed, rate)
        if strided:
            values = values[::2]
        with np.errstate(all="ignore"):
            partials = chunk_partials(values)
            want_partials = row_loop_chunk_partials(values)
            total, want_total = deterministic_sum(values), row_loop_sum(values)
        np.testing.assert_array_equal(bits(partials), bits(want_partials))
        np.testing.assert_array_equal(bits(total), bits(want_total))

    def test_input_is_not_modified(self):
        values = special_values(3 * CHUNK + 5, 11, 0.1)
        before = values.copy()
        with np.errstate(all="ignore"):
            deterministic_sum(values)
        np.testing.assert_array_equal(bits(values), bits(before))


class TestCombinePartials:
    def test_empty(self):
        assert combine_partials(np.zeros(0)) == 0.0

    def test_pow2_tree(self):
        # 4 partials: ((a+c) + (b+d)) after one stride-2 then stride-1 fold.
        a, b, c, d = 1e100, 1.0, -1e100, 2.0
        assert combine_partials(np.asarray([a, b, c, d])) == (a + c) + (b + d)

    def test_non_pow2_zero_padded(self):
        partials = random_values(5, seed=4)
        padded = np.concatenate([partials, np.zeros(3)])
        assert combine_partials(partials) == combine_partials(padded)


class TestDotAndMulti:
    def test_dot_equals_sum_of_products(self):
        a = random_values(333, seed=5)
        b = random_values(333, seed=6)
        assert deterministic_dot(a, b) == deterministic_sum(a * b)

    def test_dot_shape_mismatch(self):
        with pytest.raises(ValueError):
            deterministic_dot(np.zeros(3), np.zeros(4))

    def test_multi_sum_is_per_array(self):
        arrays = [random_values(50, seed=s) for s in range(4)]
        got = deterministic_multi_sum(arrays)
        assert got == tuple(deterministic_sum(a) for a in arrays)


class TestScalarDispatchBitwise:
    def test_kokkos_scalar_matches_batch(self):
        """Scalar (per-index) Kokkos dispatch reduces bit-identically to
        batch dispatch: both buffer through the same reducer finalize."""
        from repro.models.kokkos.parallel import RangePolicy, Sum, parallel_reduce

        values = random_values(301, seed=7)
        batch = parallel_reduce(RangePolicy(0, 301), lambda idx: values[idx])
        scalar = parallel_reduce(
            RangePolicy(0, 301, scalar=True), lambda i: values[i], Sum()
        )
        assert batch == scalar
        assert batch == deterministic_sum(values)


class TestRajaDeterministicFinalize:
    def test_get_idempotent(self):
        from repro.models.raja import ReduceSum, seq_exec

        r = ReduceSum(seq_exec)
        r += random_values(40, seed=8)
        r += random_values(24, seed=9)
        first = r.get()
        assert r.get() == first

    def test_buffered_finalize_matches_canonical(self):
        from repro.models.raja import ReduceSum, seq_exec

        values = random_values(200, seed=10)
        r = ReduceSum(seq_exec)
        # Segment-at-a-time accumulation, as forall delivers rows.
        for start in range(0, 200, 25):
            r += values[start : start + 25]
        assert r.get() == deterministic_sum(values)
