"""OpenCL substrate: platform model, buffers, kernels, reductions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.opencl import (
    Buffer,
    CommandQueue,
    Context,
    DeviceType,
    MemFlags,
    Program,
    get_platforms,
)
from repro.models.opencl.platform import find_device
from repro.models.tracing import EventKind, Trace, TransferDirection
from repro.util.errors import ModelError


@pytest.fixture
def ctx_queue():
    platform, device = find_device(DeviceType.GPU)
    ctx = Context([device], Trace())
    return ctx, CommandQueue(ctx, device)


class TestPlatformModel:
    def test_installation_mirrors_the_testbed(self):
        platforms = get_platforms()
        names = {p.name for p in platforms}
        assert "Intel(R) OpenCL" in names
        assert "NVIDIA CUDA" in names

    def test_device_types_available(self):
        for device_type in DeviceType:
            platform, device = find_device(device_type)
            assert device.device_type is device_type

    def test_get_devices_filters(self):
        intel = next(p for p in get_platforms() if "Intel" in p.name)
        cpus = intel.get_devices(DeviceType.CPU)
        assert len(cpus) == 1
        assert "E5-2670" in cpus[0].name
        assert len(intel.get_devices()) == 2  # CPU + KNC accelerator

    def test_knc_is_an_accelerator(self):
        """Table 1: OpenCL drives KNC in offload (accelerator) mode."""
        _, knc = find_device(DeviceType.ACCELERATOR)
        assert "KNC" in knc.name
        assert knc.compute_units == 240


class TestBuffers:
    def test_write_read_round_trip(self, ctx_queue):
        ctx, queue = ctx_queue
        buf = Buffer(ctx, MemFlags.READ_WRITE, size=10 * 8)
        host = np.arange(10.0)
        queue.enqueue_write_buffer(buf, host)
        out = np.zeros(10)
        queue.enqueue_read_buffer(buf, out)
        np.testing.assert_array_equal(out, host)
        transfers = ctx.trace.filtered(kind=EventKind.TRANSFER)
        assert [t.direction for t in transfers] == [
            TransferDirection.H2D,
            TransferDirection.D2H,
        ]

    def test_copy_host_ptr_traced(self, ctx_queue):
        ctx, _ = ctx_queue
        Buffer(ctx, MemFlags.COPY_HOST_PTR, hostbuf=np.ones(5))
        assert ctx.trace.transfer_bytes() == 40

    def test_size_validation(self, ctx_queue):
        ctx, _ = ctx_queue
        with pytest.raises(ModelError):
            Buffer(ctx, MemFlags.READ_WRITE)
        with pytest.raises(ModelError):
            Buffer(ctx, MemFlags.READ_WRITE, size=0)
        with pytest.raises(ModelError, match="float64"):
            Buffer(ctx, MemFlags.READ_WRITE, size=13)

    def test_released_buffer_rejected(self, ctx_queue):
        ctx, queue = ctx_queue
        buf = Buffer(ctx, MemFlags.READ_WRITE, size=8)
        buf.release()
        with pytest.raises(ModelError, match="released"):
            queue.enqueue_write_buffer(buf, np.zeros(1))

    def test_transfer_size_mismatch(self, ctx_queue):
        ctx, queue = ctx_queue
        buf = Buffer(ctx, MemFlags.READ_WRITE, size=4 * 8)
        with pytest.raises(ModelError, match="write of"):
            queue.enqueue_write_buffer(buf, np.zeros(5))

    def test_context_accounting(self, ctx_queue):
        ctx, _ = ctx_queue
        Buffer(ctx, MemFlags.READ_WRITE, size=80)
        b = Buffer(ctx, MemFlags.READ_WRITE, size=80)
        assert ctx.allocated_bytes == 160
        b.release()
        assert ctx.allocated_bytes == 80


class TestProgramAndKernels:
    def test_build_then_create(self, ctx_queue):
        ctx, _ = ctx_queue
        program = Program(ctx, {"twice": lambda gid, a: None}).build()
        kernel = program.create_kernel("twice")
        assert kernel.num_args == 1

    def test_create_before_build_rejected(self, ctx_queue):
        ctx, _ = ctx_queue
        program = Program(ctx, {"k": lambda gid: None})
        with pytest.raises(ModelError, match="built"):
            program.create_kernel("k")

    def test_unknown_kernel_name(self, ctx_queue):
        ctx, _ = ctx_queue
        program = Program(ctx, {"k": lambda gid: None}).build()
        with pytest.raises(ModelError, match="no kernel"):
            program.create_kernel("missing")

    def test_unset_args_rejected_at_launch(self, ctx_queue):
        ctx, queue = ctx_queue
        program = Program(ctx, {"k": lambda gid, a, b: None}).build()
        kernel = program.create_kernel("k")
        kernel.set_arg(0, 1.0)
        with pytest.raises(ModelError, match="unset args \\[1\\]"):
            queue.enqueue_nd_range_kernel(kernel, 8, 8)

    def test_set_arg_index_bounds(self, ctx_queue):
        ctx, _ = ctx_queue
        kernel = Program(ctx, {"k": lambda gid, a: None}).build().create_kernel("k")
        with pytest.raises(ModelError, match="index 1 invalid"):
            kernel.set_arg(1, 0.0)

    def test_nd_range_must_tile(self, ctx_queue):
        ctx, queue = ctx_queue
        kernel = Program(ctx, {"k": lambda gid: None}).build().create_kernel("k")
        with pytest.raises(ModelError, match="multiple"):
            queue.enqueue_nd_range_kernel(kernel, 10, 8)

    def test_kernel_executes_on_device_views(self, ctx_queue):
        ctx, queue = ctx_queue
        buf = Buffer(ctx, MemFlags.READ_WRITE, size=8 * 8)
        queue.enqueue_write_buffer(buf, np.arange(8.0))

        def double(gid, n, data):
            i = gid[gid < n]
            data[i] = data[i] * 2.0

        kernel = Program(ctx, {"double": double}).build().create_kernel("double")
        kernel.set_arg(0, 8)
        kernel.set_arg(1, buf)
        queue.enqueue_nd_range_kernel(kernel, 8, 8)
        out = np.zeros(8)
        queue.enqueue_read_buffer(buf, out)
        np.testing.assert_array_equal(out, np.arange(8.0) * 2)

    def test_scalar_dispatch_equivalence(self, ctx_queue):
        ctx, queue = ctx_queue

        def add_index(gid, n, data):
            i = gid[gid < n]
            data[i] = data[i] + i

        results = []
        for scalar in (False, True):
            buf = Buffer(ctx, MemFlags.READ_WRITE, size=16 * 8)
            kernel = Program(ctx, {"k": add_index}).build().create_kernel("k")
            kernel.set_arg(0, 16)
            kernel.set_arg(1, buf)
            queue.enqueue_nd_range_kernel(kernel, 16, 4, scalar=scalar)
            out = np.zeros(16)
            queue.enqueue_read_buffer(buf, out)
            results.append(out)
        np.testing.assert_array_equal(results[0], results[1])


class TestWorkGroupReduction:
    def _reduce(self, ctx, queue, values, local_size, scalar=False):
        n = values.size

        def contrib(gid, total, data):
            out = np.zeros(gid.size)
            valid = gid < total
            out[valid] = data[gid[valid]]
            return out

        data = Buffer(ctx, MemFlags.COPY_HOST_PTR, hostbuf=values)
        global_size = ((n + local_size - 1) // local_size) * local_size
        partials = Buffer(ctx, MemFlags.READ_WRITE, size=(global_size // local_size) * 8)
        kernel = Program(ctx, {"r": contrib}).build().create_kernel("r")
        kernel.set_arg(0, n)
        kernel.set_arg(1, data)
        groups = queue.enqueue_reduction_kernel(
            kernel, global_size, local_size, partials, scalar=scalar
        )
        return float(partials.device_view[:groups].sum())

    @given(
        n=st.integers(1, 400),
        local=st.sampled_from([1, 2, 3, 4, 7, 8, 16, 64]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_matches_numpy_sum(self, n, local, seed):
        platform, device = find_device(DeviceType.GPU)
        ctx = Context([device], Trace())
        queue = CommandQueue(ctx, device)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n)
        total = self._reduce(ctx, queue, values, local)
        assert total == pytest.approx(float(values.sum()), rel=1e-12, abs=1e-12)

    def test_reduction_pass_traced(self, ctx_queue):
        ctx, queue = ctx_queue
        self._reduce(ctx, queue, np.ones(32), 8)
        passes = ctx.trace.filtered(kind=EventKind.REDUCTION_PASS)
        assert len(passes) == 1

    def test_partials_buffer_too_small(self, ctx_queue):
        ctx, queue = ctx_queue

        def contrib(gid, total):
            return np.ones(gid.size)

        partials = Buffer(ctx, MemFlags.READ_WRITE, size=8)  # one double
        kernel = Program(ctx, {"r": contrib}).build().create_kernel("r")
        kernel.set_arg(0, 16)
        with pytest.raises(ModelError, match="partials"):
            queue.enqueue_reduction_kernel(kernel, 16, 4, partials)

    def test_non_contribution_kernel_rejected(self, ctx_queue):
        ctx, queue = ctx_queue
        kernel = Program(ctx, {"r": lambda gid, n: None}).build().create_kernel("r")
        kernel.set_arg(0, 8)
        partials = Buffer(ctx, MemFlags.READ_WRITE, size=8)
        with pytest.raises(ModelError, match="one value per work item"):
            queue.enqueue_reduction_kernel(kernel, 8, 8, partials)


class TestPortDeviceSelection:
    """The OpenCL port targets CPU / GPU / KNC through device discovery —
    the functional-portability breadth Table 1 credits the model with."""

    @pytest.mark.parametrize(
        "device_type", [DeviceType.CPU, DeviceType.GPU, DeviceType.ACCELERATOR]
    )
    def test_port_runs_on_every_device_type(self, device_type):
        import numpy as np

        from repro.core import fields as F
        from repro.core.deck import default_deck
        from repro.core.driver import TeaLeaf
        from repro.models.opencl_port import OpenCLPort

        deck = default_deck(n=12, solver="cg", end_step=1, eps=1e-8)
        grid = deck.grid()
        ref = TeaLeaf(deck, model="openmp-f90")
        ref.run()
        port = OpenCLPort(grid, device_type=device_type)
        app = TeaLeaf(deck, port=port)
        app.run()
        np.testing.assert_allclose(
            app.field(F.U)[grid.inner()],
            ref.field(F.U)[grid.inner()],
            rtol=1e-12,
        )

    def test_port_records_its_device(self):
        from repro.core.grid import Grid2D
        from repro.models.opencl_port import OpenCLPort

        port = OpenCLPort(Grid2D(nx=8, ny=8), device_type=DeviceType.ACCELERATOR)
        assert "KNC" in port.device.name
        assert "Intel" in port.platform.name


class TestQueueGuards:
    def test_device_must_belong_to_context(self):
        platform, gpu = find_device(DeviceType.GPU)
        _, cpu = find_device(DeviceType.CPU)
        ctx = Context([gpu], Trace())
        with pytest.raises(ModelError, match="not part"):
            CommandQueue(ctx, cpu)

    def test_finish_clears_pending(self, ctx_queue):
        ctx, queue = ctx_queue
        kernel = Program(ctx, {"k": lambda gid: None}).build().create_kernel("k")
        queue.enqueue_nd_range_kernel(kernel, 8, 8)
        queue.finish()
        assert queue._pending == 0
