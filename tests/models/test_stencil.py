"""The ``out=`` stencil helpers against the expressions they stand in for.

The compiled hot path and the OpenMP row slabs evaluate the 5-point
operator through :func:`matvec_into` / :func:`diag_into`, over 2-D
regions (:func:`region_stencil`) or over contiguous spans of the
flattened arrays (:func:`row_span`), writing into a destination field's
interior view or into scratch.  Kokkos-HP keeps the expression forms
:func:`row_matvec` / :func:`row_diag`, and cross-port bitwise equality
needs every form to give the same bits on every layout, slab and band
they meet.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.stencil import (
    diag_into,
    flat,
    matvec_into,
    region_stencil,
    row_diag,
    row_matvec,
    row_span,
)

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def bits(values):
    """uint64 view with every NaN mapped to one pattern (which sign
    survives two NaNs meeting is the machine loop's choice)."""
    out = np.array(values, dtype=np.float64)
    out[np.isnan(out)] = np.nan
    return out.view(np.uint64)


@st.composite
def slabs(draw):
    """(h, ny, nx, region, order, seed, rate): a mesh, a slab of its
    interior (sometimes the whole interior) and how to fill it."""
    h = draw(st.integers(1, 2))
    ny, nx = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        region = (0, ny, 0, nx)
    else:
        r0 = draw(st.integers(0, ny - 1))
        c0 = draw(st.integers(0, nx - 1))
        region = (r0, draw(st.integers(r0 + 1, ny)), c0, draw(st.integers(c0 + 1, nx)))
    order = draw(st.sampled_from("CF"))
    seed = draw(st.integers(0, 2**32 - 1))
    rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return h, ny, nx, region, order, seed, rate


def _setup(case):
    h, ny, nx, (r0, r1, c0, c1), order, seed, rate = case
    rng = np.random.default_rng(seed)
    shape = (ny + 2 * h, nx + 2 * h)
    arrays = []
    for _ in range(4):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
        mask = rng.random(shape) < rate
        a[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
        arrays.append(np.asarray(a, order=order))
    slices = (
        slice(h + r0, h + r1), slice(h + r0 - 1, h + r1 - 1),
        slice(h + r0 + 1, h + r1 + 1), slice(h + c0, h + c1),
        slice(h + c0 - 1, h + c1 - 1), slice(h + c0 + 1, h + c1 + 1),
    )
    # Scratch as the codegen context holds it: interior-shaped, C order,
    # handed out as region views.
    scratch = [np.empty((ny, nx))[r0:r1, c0:c1] for _ in range(3)]
    return arrays, slices, scratch


@given(case=slabs(), into_field=st.booleans())
@settings(max_examples=200, deadline=None)
def test_matvec_into_matches_row_matvec(case, into_field):
    (v, kx, ky, dest), (I, Im, Ip, J, Jm, Jp), (t0, t1, t2) = _setup(case)
    out = dest[I, J] if into_field else t0
    with np.errstate(all="ignore"):
        want = row_matvec(v, kx, ky, I, Im, Ip, J, Jm, Jp)
        at = region_stencil(I, Im, Ip, J, Jm, Jp)
        got = matvec_into(v, kx, ky, at, out, t1, t2)
    assert np.shares_memory(got, out)
    np.testing.assert_array_equal(bits(got), bits(want))


@given(case=slabs(), into_field=st.booleans())
@settings(max_examples=200, deadline=None)
def test_diag_into_matches_row_diag(case, into_field):
    (_, kx, ky, dest), (I, Im, Ip, J, Jm, Jp), (t0, _, _) = _setup(case)
    out = dest[I, J] if into_field else t0
    with np.errstate(all="ignore"):
        want = row_diag(kx, ky, I, Ip, J, Jp)
        got = diag_into(kx, ky, region_stencil(I, Im, Ip, J, Jm, Jp), out)
    assert np.shares_memory(got, out)
    np.testing.assert_array_equal(bits(got), bits(want))


# --------------------------------------------------------------------- #
# spans: interior row bands of C-ordered arrays as one flat run
# --------------------------------------------------------------------- #
@st.composite
def bands(draw):
    """(h, ny, nx, r0, r1, seed, rate): a mesh and a band of interior
    rows that is the whole interior, starts at the first row, ends at
    the last, is a single row, or lies anywhere."""
    h = draw(st.integers(1, 2))
    ny, nx = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["whole", "first", "last", "single", "any"]))
    if kind == "whole":
        r0, r1 = 0, ny
    elif kind == "first":
        r0, r1 = 0, draw(st.integers(1, ny))
    elif kind == "last":
        r0, r1 = draw(st.integers(0, ny - 1)), ny
    elif kind == "single":
        r0 = draw(st.integers(0, ny - 1))
        r1 = r0 + 1
    else:
        r0 = draw(st.integers(0, ny - 1))
        r1 = draw(st.integers(r0 + 1, ny))
    seed = draw(st.integers(0, 2**32 - 1))
    rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return h, ny, nx, r0, r1, seed, rate


def _band_arrays(case):
    """v, kx, ky: C-ordered padded arrays with specials at ``rate`` in
    the interior and anything, NaN and inf included, in the halo
    columns a span's gap cells read."""
    h, ny, nx, _, _, seed, rate = case
    rng = np.random.default_rng(seed)
    shape = (ny + 2 * h, nx + 2 * h)
    arrays = []
    for _ in range(3):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
        mask = rng.random(shape) < rate
        a[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
        for cols in (slice(0, h), slice(h + nx, None)):
            halo = a[:, cols]
            halo[rng.random(halo.shape) < 0.5] = np.nan
            halo[rng.random(halo.shape) < 0.3] = np.inf
            halo[rng.random(halo.shape) < 0.3] = -np.inf
        assert a.flags.c_contiguous
        arrays.append(a)
    return arrays


@given(case=bands())
@settings(max_examples=200, deadline=None)
def test_span_matvec_matches_row_matvec(case):
    h, ny, nx, r0, r1, _, _ = case
    v, kx, ky = _band_arrays(case)
    pitch, rows = nx + 2 * h, r1 - r0
    start, length, at = row_span(h, nx, r0, r1)
    assert (start, length) == ((h + r0) * pitch + h, (rows - 1) * pitch + nx)
    I, J = slice(h + r0, h + r1), slice(h, h + nx)
    scratch = np.full((3, rows * pitch), 7.0)
    # The centre run holds the band's interior cells at pitch P.
    scratch[0, :length] = flat(v, pitch)[at.c]
    np.testing.assert_array_equal(
        bits(scratch[0].reshape(rows, pitch)[:, :nx]), bits(v[I, J])
    )
    with np.errstate(all="ignore"):
        want = row_matvec(
            v, kx, ky, I, slice(h + r0 - 1, h + r1 - 1),
            slice(h + r0 + 1, h + r1 + 1), J, slice(h - 1, h + nx - 1),
            slice(h + 1, h + nx + 1),
        )
        got = matvec_into(
            flat(v, pitch), flat(kx, pitch), flat(ky, pitch), at,
            *scratch[:, :length],
        )
    assert np.shares_memory(got, scratch[0])
    np.testing.assert_array_equal(
        bits(scratch[0].reshape(rows, pitch)[:, :nx]), bits(want)
    )


def test_span_refuses_arrays_it_cannot_index():
    a = np.zeros((6, 7))
    assert np.shares_memory(flat(a, 7), a)
    for bad in (np.asfortranarray(a), a[:, :6], a[:, ::2], a.ravel()):
        with pytest.raises(ValueError, match="C-contiguous"):
            flat(bad, bad.shape[-1])
    with pytest.raises(ValueError, match="rows of 9 cells"):
        flat(a, 9)
