"""The compiled hot path allocates nothing the size of the mesh.

TeaLeaf is bandwidth bound, so every interior-sized temporary a generated
body allocates is bytes moved and cache spilled for nothing.  Generated
per-iteration bodies write through ``out=`` into destination views and
the port's scratch arrays (see :mod:`repro.models.codegen`), and the
reduction tree folds without copying its input.  This pins that with
``tracemalloc`` (NumPy reports its data buffers to it): one warm call of
each templated op must peak below one interior array's bytes.  The bound
is not zero because NumPy's iterator buffers on strided views and the
reduction tree's lane-major work array (half an interior array) are
allowed.

``step.fn`` is called directly: ``dispatch_compiled`` would also append
the launch to the port's trace, which grows on its own schedule.
``tea_leaf_init`` and ``set_field`` run once per timestep and are left out.
The ops the overlap executor splits are also pinned phase by phase: the
``sweep`` over the interior core, as it runs while an exchange is in
flight, over 2-D slices and over the core's span, and the ``tail`` over
the whole interior.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models import codegen
from repro.models.overlap import RegionSlices, SpanSlices, interior_partition
from repro.models.plan import KernelCall

#: Per-iteration ops with arguments that make each body run for real.
CALLS = (
    KernelCall("tea_leaf_residual"),
    KernelCall("cg_init"),
    KernelCall("cg_calc_w"),
    KernelCall("cg_calc_ur", (0.5,)),
    KernelCall("cg_calc_p", (0.25,)),
    KernelCall("ppcg_calc_p", (0.25,)),
    KernelCall("cheby_init", (2.0,)),
    KernelCall("cheby_iterate", (0.5, 0.25)),
    KernelCall("ppcg_precon_init", (2.0,)),
    KernelCall("ppcg_precon_inner", (0.5, 0.25)),
    KernelCall("cg_precon_jacobi"),
    KernelCall("jacobi_iterate"),
    KernelCall("norm2_field", (F.R,)),
    KernelCall("dot_fields", (F.R, F.P)),
    KernelCall("copy_field", (F.U, F.P)),
    KernelCall("tea_leaf_finalise"),
)


#: The ops with a region sweep, which the overlap executor splits.
SPLIT = tuple(c for c in CALLS if codegen.OP_DEFS[c.op].sweep is not None)


def test_every_per_iteration_template_is_pinned():
    skipped = {"tea_leaf_init", "set_field"}
    assert {c.op for c in CALLS} == set(codegen.OP_DEFS) - skipped
    assert {c.op for c in SPLIT} == {
        "tea_leaf_residual",
        "cg_calc_w",
        "cheby_iterate",
        "ppcg_precon_inner",
    }


@pytest.fixture(
    scope="module",
    params=[
        (model, n) for model in ("openmp-f90", "cuda", "kokkos") for n in (256, 250)
    ],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def warm_ctx(request):
    """A port's codegen context with finite values in every work field."""
    model, n = request.param
    app = TeaLeaf(default_deck(n=n, end_step=1), model=model)
    ctx = app.port._codegen_ctx()
    init = KernelCall("tea_leaf_init", (0.004, "conductivity"))
    step = codegen.lower_steps([init])[0]
    step.fn(ctx, step.argv)
    rng = np.random.default_rng(n)
    for name in (F.P, F.R, F.W, F.Z, F.SD):
        ctx.array(name)[...] = rng.random(ctx.array(name).shape) + 0.5
    return ctx


def _warm_peak_in_interior_arrays(ctx, run) -> float:
    """Peak traced bytes of the second of two calls, in interior arrays."""
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (ctx.nx * ctx.ny * np.dtype(np.float64).itemsize)


@pytest.mark.parametrize("call", CALLS, ids=lambda c: c.op)
def test_warm_call_peaks_below_one_interior_array(warm_ctx, call):
    step = codegen.lower_steps([call])[0]
    peak = _warm_peak_in_interior_arrays(
        warm_ctx, lambda: step.fn(warm_ctx, step.argv)
    )
    assert peak < 1.0, f"{call.op} peaked at {peak:.2f} interior arrays"


#: ``sweep`` over the core's 2-D slices, ``span_sweep`` over its span.
CORE_VIEWS = {"sweep": RegionSlices, "span_sweep": SpanSlices}


@pytest.mark.parametrize("phase", ["sweep", "span_sweep", "tail"])
@pytest.mark.parametrize("call", SPLIT, ids=lambda c: c.op)
def test_warm_overlap_phase_peaks_below_one_interior_array(
    warm_ctx, call, phase
):
    ctx = warm_ctx
    d = codegen.OP_DEFS[call.op]
    if phase in CORE_VIEWS:
        region = interior_partition(ctx.ny, ctx.nx, 1)[0]
        core = CORE_VIEWS[phase](ctx, region)
        run = lambda: d.sweep(ctx, core, call.args)  # noqa: E731
    else:
        run = lambda: d.tail(ctx, call.args)  # noqa: E731
    peak = _warm_peak_in_interior_arrays(ctx, run)
    assert peak < 1.0, (
        f"{call.op} {phase} peaked at {peak:.2f} interior arrays"
    )
