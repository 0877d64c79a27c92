"""The ``out=`` stencil helpers against the expressions they stand in for.

The compiled hot path evaluates the 5-point operator through
:func:`matvec_into` / :func:`diag_into`, writing into a destination
field's interior view or into region views of the codegen scratch
arrays.  The interpreted ports keep the expression forms
:func:`row_matvec` / :func:`row_diag`, and cross-port bitwise equality
needs both to give the same bits on every layout and slab they meet.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.models.stencil import diag_into, matvec_into, row_diag, row_matvec

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
        got = matvec_into(v, kx, ky, I, Im, Ip, J, Jm, Jp, out, t1, t2)
    assert np.shares_memory(got, out)
    np.testing.assert_array_equal(bits(got), bits(want))


@given(case=slabs(), into_field=st.booleans())
@settings(max_examples=200, deadline=None)
def test_diag_into_matches_row_diag(case, into_field):
    (_, kx, ky, dest), (I, _, Ip, J, _, Jp), (t0, _, _) = _setup(case)
    out = dest[I, J] if into_field else t0
    with np.errstate(all="ignore"):
        want = row_diag(kx, ky, I, Ip, J, Jp)
        got = diag_into(kx, ky, I, Ip, J, Jp, out)
    assert np.shares_memory(got, out)
    np.testing.assert_array_equal(bits(got), bits(want))
