"""Per-work-item validation of the accelerator emulations.

The OpenCL/CUDA kernels are *written* per work item but *executed* as
vectorised batches for speed.  These tests run the OpenCL port in scalar
mode — one singleton work item at a time, the semantics of the real
device — on a tiny problem and require bit-identical results to the batch
mode, proving the vectorised fast path implements the per-item semantics
(DESIGN.md correctness strategy #3).
"""

import numpy as np

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.opencl_port import OpenCLPort


def make_ports(n=8):
    deck = default_deck(n=n, solver="cg", end_step=1, eps=1e-8)
    grid = deck.grid()
    batch = OpenCLPort(grid, local_size=16, scalar_dispatch=False)
    scalar = OpenCLPort(grid, local_size=16, scalar_dispatch=True)
    return deck, grid, batch, scalar


class TestScalarEquivalence:
    def test_full_solve_bit_identical(self):
        deck, grid, batch, scalar = make_ports()
        results = {}
        for label, port in (("batch", batch), ("scalar", scalar)):
            app = TeaLeaf(deck, port=port)
            run = app.run()
            results[label] = (run.total_iterations, app.field(F.U))
        assert results["batch"][0] == results["scalar"][0]
        np.testing.assert_array_equal(results["batch"][1], results["scalar"][1])

    def test_individual_kernels_bit_identical(self):
        from repro.core.state import generate_chunk

        deck, grid, batch, scalar = make_ports()
        density, energy = generate_chunk(list(deck.states), grid)
        for port in (batch, scalar):
            port.set_state(density, energy)
            port.set_field()
            port.tea_leaf_init(deck.initial_timestep, deck.tl_coefficient)
        rro_b = batch.cg_init()
        rro_s = scalar.cg_init()
        assert rro_b == rro_s  # work-group tree order is identical
        np.testing.assert_array_equal(
            batch.read_field(F.KX), scalar.read_field(F.KX)
        )
        np.testing.assert_array_equal(
            batch.read_field(F.W), scalar.read_field(F.W)
        )

    def test_scalar_mode_is_genuinely_per_item(self):
        """Scalar dispatch invokes the kernel once per work item."""
        from repro.models.opencl.program import Program
        from repro.models.opencl.runtime import CommandQueue, Context
        from repro.models.opencl.platform import DeviceType, find_device
        from repro.models.tracing import Trace

        calls = []

        def probe(gid):
            calls.append(gid.size)

        _, device = find_device(DeviceType.GPU)
        ctx = Context([device], Trace())
        queue = CommandQueue(ctx, device)
        kernel = Program(ctx, {"probe": probe}).build().create_kernel("probe")
        queue.enqueue_nd_range_kernel(kernel, 8, 4, scalar=True)
        assert calls == [1] * 8
        calls.clear()
        queue.enqueue_nd_range_kernel(kernel, 8, 4, scalar=False)
        assert calls == [8]
