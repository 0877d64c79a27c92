"""The OpenMP-C loop bodies keep to their reach contract.

Every body of :mod:`repro.models.loopbodies` is written for a static
row slab ``[r0, r1)`` of one shared array set.  The slabs of a team are
race-free only if a body reads nothing beyond rows ``[h+r0-1, h+r1]``
and writes nothing beyond the slab's interior cells.  The same contract
lets the OpenMP runtime run a whole team as the one slab ``[0, ny)``:
the per-thread chunks then give the same bits in any order, or all at
once.  The stencil runs over each slab's span, whose gap cells between
rows read halo columns and corners, so this pins what the bodies
promise: values outside the slab's interior cells and their four
neighbours (the depth-2 halo columns, the corners, every row outside
``[h+r0-1, h+r1]``) change neither the slab's results nor its
reduction contributions, and no cell outside the slab's interior rows
by interior columns is written.

Each body is driven from its signature: ``np.ndarray`` parameters get
fresh arrays, ``float`` ones a scalar, ``bool`` ones a flag.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import loopbodies as lb

#: Every slab body: each public function of the module over rows
#: ``[r0, r1)``.
BODIES = [
    f
    for name, f in inspect.getmembers(lb, inspect.isfunction)
    if f.__module__ == lb.__name__
    and not name.startswith("_")
    and {"r0", "r1"} <= set(inspect.signature(f).parameters)
]


def test_every_slab_body_is_found():
    names = {f.__name__ for f in BODIES}
    assert {"matvec_slab", "residual_slab", "cg_calc_w_slab",
            "cheby_iterate_r_slab", "jacobi_iterate_slab"} <= names
    assert len(names) >= 15


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
    """uint64 views of a body's result: ``None``, an array or a tuple."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return np.asarray(value, dtype=np.float64).view(np.uint64).copy()


def _run(body, arrays, scalars, geometry):
    """Call ``body`` on copies of ``arrays``; (result, arrays after)."""
    arrays = {name: a.copy() for name, a in arrays.items()}
    kwargs = {**arrays, **scalars, **geometry}
    return body(**kwargs), arrays


@pytest.mark.parametrize("body", BODIES, ids=lambda f: f.__name__)
@given(case=slabs())
@settings(max_examples=40, deadline=None)
def test_slab_reads_only_its_cover_and_writes_only_its_interior(body, case):
    h, ny, nx, r0, r1, seed, flag = case
    rng = np.random.default_rng(seed)
    shape = (ny + 2 * h, nx + 2 * h)
    arrays, scalars = {}, {}
    for name, param in inspect.signature(body).parameters.items():
        kind = param.annotation
        if kind == "np.ndarray":
            arrays[name] = rng.random(shape) + 0.5
        elif kind == "float":
            scalars[name] = float(rng.uniform(0.5, 2.0))
        elif kind == "bool":
            scalars[name] = flag
    geometry = {"h": h, "nx": nx, "r0": r0, "r1": r1}
    assert arrays and set(arrays) | set(scalars) | set(geometry) == set(
        inspect.signature(body).parameters
    )

    outside = ~_cover(h, ny, nx, r0, r1)
    poisoned = {}
    for name, a in arrays.items():
        p = a.copy()
        p[outside] = np.nan
        poisoned[name] = p

    want, finite_after = _run(body, arrays, scalars, geometry)
    got, poisoned_after = _run(body, poisoned, scalars, geometry)

    interior = np.zeros(shape, dtype=bool)
    interior[h + r0 : h + r1, h : h + nx] = True
    for name in arrays:
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
        w, g = _bits(want), _bits(got)
        pairs = zip(w, g) if isinstance(w, tuple) else [(w, g)]
        for a, b in pairs:
            np.testing.assert_array_equal(b, a, err_msg="contributions differ")
