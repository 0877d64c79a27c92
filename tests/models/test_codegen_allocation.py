"""The hot paths allocate nothing the size of the mesh.

TeaLeaf is bandwidth bound, so every interior-sized temporary a loop
body allocates is bytes moved and cache spilled for nothing.  The
compiled per-iteration ops run the loop bodies of
:mod:`repro.models.loopbodies`, which write through ``out=`` into
destination views and their slab's scratch block, and the reduction
tree folds without copying its input.  This pins that with
``tracemalloc`` (NumPy reports its data buffers to it): one warm call of
each lowered op must peak below one interior array's bytes.  The bound
is not zero because NumPy's iterator buffers on strided views and the
reduction tree's lane-major work array (half an interior array) are
allowed.

``step.fn`` is called directly: ``dispatch_compiled`` would also append
the launch to the port's trace, which grows on its own schedule.
``tea_leaf_init`` and ``set_field`` run once per timestep and are left out.

The interpreted OpenMP-family ports run the same loop bodies on their
team slab, which holds the same scratch block; a reduction body returns
its contribution as a view of that block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models import codegen
from repro.models import loopbodies as lb
from repro.models.base import make_port
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
    assert {c.op for c in CALLS} == set(codegen.OP_DEFS) - skipped


@pytest.fixture(
    scope="module",
    params=[
        (model, n) for model in ("openmp-f90", "cuda", "kokkos") for n in (256, 250)
    ],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def warm_ctx(request):
    """A port's codegen slab with finite values in every work field."""
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


def _peak(call) -> int:
    """Peak traced bytes of one warm ``call()``."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("call", CALLS, ids=lambda c: c.op)
def test_warm_call_peaks_below_one_interior_array(warm_ctx, call):
    ctx = warm_ctx
    step = codegen.lower_steps([call])[0]
    peak = _peak(lambda: step.fn(ctx, step.argv))
    interior = ctx.nx * ctx.ny * np.dtype(np.float64).itemsize
    assert peak < interior, (
        f"{call.op} peaked at {peak / interior:.2f} interior arrays"
    )


#: The OpenMP CG bodies on a port's team slab over the whole ``n x n``
#: interior, each with its allowed peak as a count of contribution
#: vectors plus fixed bytes: every contribution is a view of scratch, and
#: the stencil, ``beta p + r``, ``p.w`` and ``cg_calc_ur`` all sweep the
#: span, so none allocates a vector.
CG_BODIES = {
    "matvec": (lambda slab: slab.matvec(F.P), 0, 4096),
    "cg_calc_p": (lambda slab: lb.cg_calc_p(slab, (0.25,)), 0, 4096),
    "cg_calc_w": (lambda slab: lb.cg_calc_w(slab, ()), 0, 4096),
    "cg_calc_ur": (lambda slab: lb.cg_calc_ur(slab, (0.5,)), 0, 4096),
}


@pytest.mark.parametrize("body", list(CG_BODIES))
def test_openmp_cg_body_allocates_only_its_contributions(body):
    n = 128
    port = make_port("openmp-f90", default_deck(n=n).grid())
    f = port.fields
    rng = np.random.default_rng(5)
    for name in (F.U, F.R, F.P, F.W, F.KX, F.KY):
        f[name][...] = rng.random(f[name].shape) + 0.5
    slab = port._slab(0, n)
    run, vectors, extra = CG_BODIES[body]
    bound = vectors * n * n * np.dtype(np.float64).itemsize + extra
    peak = _peak(lambda: run(slab))
    assert peak < bound, f"{body} peaked at {peak} bytes, bound {bound}"
