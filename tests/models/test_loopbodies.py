"""The OpenMP-C loop bodies keep to their reach contract.

Every sweep of :mod:`repro.models.loopbodies` is written for a static
row slab ``[r0, r1)`` of one shared array set.  The slabs of a team are
race-free only if a sweep reads nothing beyond rows ``[h+r0-1, h+r1]``
and writes nothing beyond the slab's interior cells.  The same contract
lets the OpenMP runtime run a whole team as the one slab ``[0, ny)``:
the per-thread chunks then give the same bits in any order, or all at
once.  The stencil runs over each slab's span, whose gap cells between
rows read halo columns and corners, so this pins what the sweeps
promise: values outside the slab's interior cells and their four
neighbours (the depth-2 halo columns, the corners, every row outside
``[h+r0-1, h+r1]``) change neither the slab's results nor its
reduction contributions, and no cell outside the slab's interior rows
by interior columns is written.

Each sweep runs on a :class:`~repro.models.loopbodies.Slab` over fresh
arrays of every field, with the args :data:`SWEEPS` gives it and with
its scratch block NaN-filled first, so a sweep that reads scratch it
has not written fails as well.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fields as F
from repro.core.grid import Grid2D
from repro.core.operators import CONDUCTIVITY, RECIP_CONDUCTIVITY
from repro.models import loopbodies as lb
from repro.models.stencil import scratch

#: Drawn scalars and the drawn coefficient mode, in an args template.
X, Y, MODE = "<x>", "<y>", "<mode>"

#: Every slab sweep and the template of its args.
SWEEPS = {
    lb.set_field: (),
    lb.tea_leaf_init: (X, MODE),
    lb.tea_leaf_residual: (),
    lb.cg_init: (),
    lb.cg_calc_w: (),
    lb.cg_calc_ur: (X,),
    lb.cg_calc_p: (X,),
    lb.ppcg_calc_p: (X,),
    lb.cheby_init: (X,),
    lb.cheby_calc_u: (),
    lb.cheby_iterate_r: (),
    lb.cheby_iterate_sd: (X, Y),
    lb.ppcg_precon_init: (X,),
    lb.ppcg_inner_w: (),
    lb.ppcg_inner_sd: (X, Y),
    lb.cg_precon_jacobi: (),
    lb.jacobi_iterate: (),
    lb.norm2_field: (F.R,),
    lb.dot_fields: (F.R, F.P),
    lb.tea_leaf_finalise: (),
    lb.field_summary: (),
}

#: The whole-array steps, which run once outside any slab.
WHOLE_ARRAY = {lb.zero_walls, lb.stash_u, lb.copy_field}


def test_every_body_is_pinned():
    public = {
        f
        for name, f in inspect.getmembers(lb, inspect.isfunction)
        if f.__module__ == lb.__name__ and not name.startswith("_")
    }
    assert public == set(SWEEPS) | WHOLE_ARRAY


@st.composite
def slabs(draw):
    """(h, ny, nx, r0, r1, seed, flag): a mesh, a slab and its inputs."""
    h = draw(st.integers(1, 2))
    ny, nx = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    r0 = draw(st.integers(0, ny - 1))
    r1 = draw(st.integers(r0 + 1, ny))
    return h, ny, nx, r0, r1, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


def _cover(h, ny, nx, r0, r1):
    """The slab's interior cells and their four neighbours."""
    mask = np.zeros((ny + 2 * h, nx + 2 * h), dtype=bool)
    rows, cols = slice(h + r0, h + r1), slice(h, h + nx)
    mask[rows, h - 1 : h + nx + 1] = True
    mask[h + r0 - 1, cols] = True
    mask[h + r1, cols] = True
    return mask


def _bits(value):
    """uint64 copies of a sweep's result: ``None``, an array or a tuple."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return np.asarray(value, dtype=np.float64).view(np.uint64).copy()


def _run(body, arrays, args, grid, r0, r1):
    """``body`` on copies of ``arrays``: (result bits, arrays after).

    The result is copied at once: it may be a view of the scratch block
    that the next run overwrites.
    """
    arrays = {name: a.copy() for name, a in arrays.items()}
    slab = lb.Slab(arrays.__getitem__, grid, r0, r1)
    scratch(r1 - r0, slab.pitch).fill(np.nan)
    return _bits(body(slab, args)), arrays


@pytest.mark.parametrize("body", list(SWEEPS), ids=lambda f: f.__name__)
@given(case=slabs())
@settings(max_examples=40, deadline=None)
def test_slab_reads_only_its_cover_and_writes_only_its_interior(body, case):
    h, ny, nx, r0, r1, seed, flag = case
    rng = np.random.default_rng(seed)
    grid = Grid2D(nx=nx, ny=ny, halo=h)
    shape = (ny + 2 * h, nx + 2 * h)
    arrays = {name: rng.random(shape) + 0.5 for name in F.FIELD_ORDER}
    drawn = {
        X: float(rng.uniform(0.5, 2.0)),
        Y: float(rng.uniform(0.5, 2.0)),
        MODE: RECIP_CONDUCTIVITY if flag else CONDUCTIVITY,
    }
    args = tuple(drawn.get(a, a) for a in SWEEPS[body])

    outside = ~_cover(h, ny, nx, r0, r1)
    poisoned = {}
    for name, a in arrays.items():
        p = a.copy()
        p[outside] = np.nan
        poisoned[name] = p

    want, finite_after = _run(body, arrays, args, grid, r0, r1)
    got, poisoned_after = _run(body, poisoned, args, grid, r0, r1)

    interior = np.zeros(shape, dtype=bool)
    interior[h + r0 : h + r1, h : h + nx] = True
    for name in arrays:
        assert not np.isnan(finite_after[name][interior]).any(), (
            f"{name}: slab interior read unwritten scratch"
        )
        np.testing.assert_array_equal(
            _bits(poisoned_after[name][interior]),
            _bits(finite_after[name][interior]),
            err_msg=f"{name}: slab interior depends on cells outside the cover",
        )
        for before, after in ((arrays, finite_after), (poisoned, poisoned_after)):
            np.testing.assert_array_equal(
                _bits(after[name][~interior]),
                _bits(before[name][~interior]),
                err_msg=f"{name}: written outside the slab interior",
            )
    if want is None:
        assert got is None
    else:
        pairs = zip(want, got) if isinstance(want, tuple) else [(want, got)]
        for a, b in pairs:
            assert not np.isnan(a.view(np.float64)).any(), "contribution read scratch"
            np.testing.assert_array_equal(b, a, err_msg="contributions differ")
