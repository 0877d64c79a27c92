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
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models import codegen
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


def test_every_per_iteration_template_is_pinned():
    skipped = {"tea_leaf_init", "set_field"}
    assert {c.op for c in CALLS} == set(codegen._TEMPLATES) - skipped


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


@pytest.mark.parametrize("call", CALLS, ids=lambda c: c.op)
def test_warm_call_peaks_below_one_interior_array(warm_ctx, call):
    ctx = warm_ctx
    step = codegen.lower_steps([call])[0]
    step.fn(ctx, step.argv)
    tracemalloc.start()
    try:
        step.fn(ctx, step.argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    interior = ctx.nx * ctx.ny * np.dtype(np.float64).itemsize
    assert peak < interior, (
        f"{call.op} peaked at {peak / interior:.2f} interior arrays"
    )
