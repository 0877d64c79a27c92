"""Writing the same kernel in every programming model's API.

The paper's core subject is the *shape* each model imposes on the same
computation.  This example implements one daxpy-like kernel
(``y = a*x + y`` over 1e5 elements) directly against each emulated API —
the boilerplate you see below is the boilerplate the paper's porting
effort measured (§3).

    python examples/writing_a_port.py
"""

import numpy as np

N = 100_000
A = 2.5


def with_openmp3() -> np.ndarray:
    """OpenMP 3.0: a parallel-for over static chunks.  Minimal ceremony."""
    from repro.models.openmp import OpenMPRuntime

    x, y = np.arange(N, dtype=float), np.ones(N)
    omp = OpenMPRuntime(num_threads=16)
    # #pragma omp parallel for schedule(static)
    omp.parallel_for(N, lambda s, e: y.__setitem__(slice(s, e), A * x[s:e] + y[s:e]))
    return y


def with_kokkos() -> np.ndarray:
    """Kokkos: Views + a lambda dispatched over a RangePolicy."""
    from repro.models import kokkos

    x = kokkos.View("x", (N,))
    y = kokkos.View("y", (N,))
    x.data[...] = np.arange(N, dtype=float)
    y.data[...] = 1.0
    kokkos.parallel_for(
        kokkos.RangePolicy(0, N),
        lambda i: y.flat.__setitem__(i, A * x.flat[i] + y.flat[i]),
    )
    # move the result back to the host space explicitly
    mirror = kokkos.create_mirror_view(y)
    kokkos.deep_copy(mirror, y)
    return mirror.data.copy()


def with_raja() -> np.ndarray:
    """RAJA: a lambda over an IndexSet, reductions via ReduceSum objects."""
    from repro.models import raja

    x, y = np.arange(N, dtype=float), np.ones(N)
    iset = raja.IndexSet([raja.RangeSegment(0, N // 2), raja.RangeSegment(N // 2, N)])
    raja.forall(
        raja.omp_parallel_for_exec,
        iset,
        lambda i: y.__setitem__(i, A * x[i] + y[i]),
    )
    return y


def with_cuda() -> np.ndarray:
    """CUDA: explicit device memory, memcpy, and <<<grid, block>>> math."""
    from repro.models import cuda

    rt = cuda.CudaRuntime()
    d_x = rt.malloc(N, "x")
    d_y = rt.malloc(N, "y")
    rt.memcpy(d_x, np.arange(N, dtype=float), cuda.MemcpyKind.HOST_TO_DEVICE)
    rt.memcpy(d_y, np.ones(N), cuda.MemcpyKind.HOST_TO_DEVICE)

    def daxpy_kernel(ctx, n, a, xx, yy):
        idx = ctx.blockIdx_x * ctx.blockDim_x + ctx.threadIdx_x
        i = idx[idx < n]  # guard iteration overspill
        yy[i] = a * xx[i] + yy[i]

    block = cuda.Dim3(128)
    grid = cuda.Dim3(cuda.blocks_for(N, 128))
    cuda.launch(daxpy_kernel, grid, block, N, A, d_x.data, d_y.data)
    out = np.zeros(N)
    rt.memcpy(out, d_y, cuda.MemcpyKind.DEVICE_TO_HOST)
    return out


def with_opencl() -> np.ndarray:
    """OpenCL: the full platform/context/queue/program/set_arg ceremony."""
    from repro.models import opencl

    platform, device = opencl.platform.find_device(opencl.DeviceType.GPU)
    ctx = opencl.Context([device])
    queue = opencl.CommandQueue(ctx, device)

    def daxpy_cl(gid, n, a, xx, yy):
        i = gid[gid < n]
        yy[i] = a * xx[i] + yy[i]

    program = opencl.Program(ctx, {"daxpy": daxpy_cl}).build()
    kernel = program.create_kernel("daxpy")
    buf_x = opencl.Buffer(ctx, opencl.MemFlags.READ_ONLY, size=N * 8)
    buf_y = opencl.Buffer(ctx, opencl.MemFlags.READ_WRITE, size=N * 8)
    queue.enqueue_write_buffer(buf_x, np.arange(N, dtype=float))
    queue.enqueue_write_buffer(buf_y, np.ones(N))
    kernel.set_arg(0, N)
    kernel.set_arg(1, A)
    kernel.set_arg(2, buf_x)
    kernel.set_arg(3, buf_y)
    local = 128
    global_size = ((N + local - 1) // local) * local
    queue.enqueue_nd_range_kernel(kernel, global_size, local)
    queue.finish()
    out = np.zeros(N)
    queue.enqueue_read_buffer(buf_y, out)
    return out


def with_openmp4() -> np.ndarray:
    """OpenMP 4.0: target data mapping + a target region per kernel."""
    from repro.models.openmp.directives import (
        DeviceDataEnvironment,
        TargetDataRegion,
        target,
    )
    from repro.models.tracing import Trace

    trace = Trace()
    env = DeviceDataEnvironment(trace)
    x, y = np.arange(N, dtype=float), np.ones(N)
    with TargetDataRegion(env, map_to={"x": x}, map_tofrom={"y": y}):
        with target(env, trace, "daxpy") as dev:
            dx, dy = dev.device("x"), dev.device("y")
            dy[...] = A * dx + dy
    return y


def with_kernel_plan() -> None:
    """The port-authoring surface after the kernel-plan refactor.

    A TeaLeaf port no longer re-implements the ~20-kernel call sequence:
    it supplies ``_k_<op>`` primitive bodies (plus a residency adapter
    for offload models) and inherits its one entry, ``Port.dispatch``,
    with tracing, fusion, and residency tracking, from ``Port``.  Solvers
    hand declarative :class:`Plan` objects to a :class:`PlanExecutor`,
    which runs every op through that entry and is also the one place
    cross-model optimisation happens: below, after a setup plan, the PCG
    tail's precondition + dot pair runs as two interpreted launches
    unfused and, fused, as one traversal compiled from the ops' NumPy
    definitions (a fused group always runs compiled) — with
    bitwise-identical scalars.
    """
    from repro.core import fields as F
    from repro.core.deck import default_deck
    from repro.models.base import make_port
    from repro.models.plan import BarrierStep, KernelCall, Plan, PlanExecutor
    from repro.models.tracing import Trace

    deck = default_deck(n=16, solver="cg", end_step=1)
    setup = Plan(
        "setup",
        (
            KernelCall("set_field"),
            BarrierStep("begin_solve"),
            KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient)),
            KernelCall("cg_init"),
        ),
    )
    plan = Plan(
        "pcg_tail_fragment",
        (
            KernelCall("cg_precon_jacobi"),
            KernelCall("dot_fields", (F.R, F.Z), out="rrz"),
        ),
    )
    scalars = {}
    for fuse in (False, True):
        trace = Trace()
        grid = deck.grid()
        port = make_port("openmp-f90", grid, trace)
        density = np.ones(grid.shape)
        energy = np.fromfunction(
            lambda j, i: 1.0 + 0.1 * (i + 2 * j), grid.shape
        )
        port.set_state(density, energy)
        PlanExecutor(port).run(setup)
        launches_before = trace.kernel_launches()
        env = PlanExecutor(port, fuse=fuse).run(plan)
        scalars[fuse] = env["rrz"]
        print(
            f"  fuse={'on ' if fuse else 'off'}: "
            f"{trace.kernel_launches() - launches_before} launches, "
            f"rrz={env['rrz']:.17e}"
        )
    assert scalars[False] == scalars[True]  # bitwise, not approximately
    print(plan.describe(fuse=True))


def main() -> None:
    expected = A * np.arange(N, dtype=float) + 1.0
    for name, fn in (
        ("OpenMP 3.0", with_openmp3),
        ("Kokkos", with_kokkos),
        ("RAJA", with_raja),
        ("CUDA", with_cuda),
        ("OpenCL", with_opencl),
        ("OpenMP 4.0", with_openmp4),
    ):
        result = fn()
        ok = np.allclose(result, expected)
        print(f"{name:12s} daxpy: {'OK' if ok else 'WRONG'}")
        assert ok
    print("kernel-plan dispatch (shared across all ports):")
    with_kernel_plan()


if __name__ == "__main__":
    main()
