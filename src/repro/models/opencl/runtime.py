"""OpenCL execution & memory model: contexts, buffers, command queues.

Device memory is a distinct allocation from host memory: a :class:`Buffer`
can only be filled and read through queue transfer operations, which are
traced.  The :class:`CommandQueue` is in-order (TeaLeaf's queues are), so
``finish()`` is a semantic no-op recorded for fidelity.
"""

from __future__ import annotations

from enum import Flag, auto
from typing import TYPE_CHECKING

import numpy as np

from repro.models.opencl.platform import Device
from repro.models.tracing import Trace, TransferDirection
from repro.util.errors import ModelError

if TYPE_CHECKING:
    from repro.models.opencl.program import Kernel


class MemFlags(Flag):
    """cl_mem_flags subset used by TeaLeaf."""

    READ_ONLY = auto()
    WRITE_ONLY = auto()
    READ_WRITE = auto()
    COPY_HOST_PTR = auto()


class Context:
    """An OpenCL context: devices + allocations + the event trace."""

    def __init__(self, devices: list[Device], trace: Trace | None = None) -> None:
        if not devices:
            raise ModelError("a context needs at least one device")
        self.devices = list(devices)
        self.trace = trace if trace is not None else Trace()
        self._buffers: list[Buffer] = []

    def register(self, buffer: "Buffer") -> None:
        self._buffers.append(buffer)

    @property
    def allocated_bytes(self) -> int:
        return sum(b.nbytes for b in self._buffers if not b.released)


class Buffer:
    """Device memory.  Host access only through queue transfers."""

    def __init__(
        self,
        context: Context,
        flags: MemFlags,
        size: int | None = None,
        hostbuf: np.ndarray | None = None,
    ) -> None:
        if size is None and hostbuf is None:
            raise ModelError("Buffer needs a size or a hostbuf")
        if hostbuf is not None:
            self._data = np.array(hostbuf, dtype=np.float64).ravel().copy()
            if MemFlags.COPY_HOST_PTR in flags:
                context.trace.transfer(
                    "clCreateBuffer(COPY_HOST_PTR)",
                    self._data.nbytes,
                    TransferDirection.H2D,
                )
        else:
            if size is None or size <= 0:
                raise ModelError(f"Buffer size must be positive, got {size}")
            if size % 8:
                raise ModelError("Buffer size must be a whole number of float64")
            self._data = np.zeros(size // 8, dtype=np.float64)
        self.context = context
        self.flags = flags
        self.released = False
        context.register(self)

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def device_view(self) -> np.ndarray:
        """The device-side array (kernels use this; host code must not)."""
        if self.released:
            raise ModelError("use of a released Buffer")
        return self._data

    def release(self) -> None:
        """clReleaseMemObject."""
        self.released = True


class CommandQueue:
    """An in-order command queue on one device of a context."""

    def __init__(self, context: Context, device: Device) -> None:
        if device not in context.devices:
            raise ModelError(f"device {device.name} is not part of this context")
        self.context = context
        self.device = device
        self.trace = context.trace
        self._pending = 0

    # ------------------------------------------------------------------ #
    # transfers
    # ------------------------------------------------------------------ #
    def enqueue_write_buffer(self, buffer: Buffer, host_array: np.ndarray) -> None:
        flat = np.asarray(host_array, dtype=np.float64).ravel()
        if flat.size != buffer.device_view.size:
            raise ModelError(
                f"write of {flat.size} doubles into buffer of {buffer.device_view.size}"
            )
        buffer.device_view[...] = flat
        self.trace.transfer("clEnqueueWriteBuffer", flat.nbytes, TransferDirection.H2D)

    def enqueue_read_buffer(self, buffer: Buffer, host_array: np.ndarray) -> None:
        flat = host_array.reshape(-1)
        if flat.size != buffer.device_view.size:
            raise ModelError(
                f"read of {buffer.device_view.size} doubles into host array of {flat.size}"
            )
        flat[...] = buffer.device_view
        self.trace.transfer("clEnqueueReadBuffer", flat.nbytes, TransferDirection.D2H)

    def enqueue_copy_buffer(self, src: Buffer, dst: Buffer) -> None:
        dst.device_view[...] = src.device_view

    # ------------------------------------------------------------------ #
    # kernel launches
    # ------------------------------------------------------------------ #
    def enqueue_nd_range_kernel(
        self,
        kernel: "Kernel",
        global_size: int,
        local_size: int,
        scalar: bool = False,
    ) -> None:
        """Launch a kernel over ``global_size`` work items.

        ``global_size`` must be a multiple of ``local_size`` (the classic
        OpenCL 1.x requirement — ports round up and guard overspill in the
        kernel).  ``scalar=True`` dispatches one singleton work item at a
        time, the slow validation mode proving the batch form equivalent.
        """
        self._check_sizes(global_size, local_size)
        if scalar:
            for gid in range(global_size):
                kernel.invoke(np.array([gid], dtype=np.int64))
        else:
            kernel.invoke(np.arange(global_size, dtype=np.int64))
        self._pending += 1

    def enqueue_reduction_kernel(
        self,
        kernel: "Kernel",
        global_size: int,
        local_size: int,
        partials: Buffer,
        scalar: bool = False,
    ) -> int:
        """Launch a manually-written reduction kernel (§3.6).

        The kernel returns one contribution per work item; each work group
        combines its items with a local-memory tree and the work-group
        leader writes one partial to ``partials``.  Returns the number of
        partials written (for the host's final combine).
        """
        self._check_sizes(global_size, local_size)
        num_groups = global_size // local_size
        if partials.device_view.size < num_groups:
            raise ModelError(
                f"partials buffer holds {partials.device_view.size} doubles, "
                f"need {num_groups}"
            )
        if scalar:
            contributions = np.concatenate(
                [
                    np.atleast_1d(kernel.invoke(np.array([gid], dtype=np.int64)))
                    for gid in range(global_size)
                ]
            )
        else:
            contributions = kernel.invoke(np.arange(global_size, dtype=np.int64))
        if contributions is None or np.size(contributions) != global_size:
            raise ModelError(
                f"reduction kernel '{kernel.name}' must return one value per work item"
            )
        # Local-memory tree combine within each work group.
        groups = np.asarray(contributions, dtype=np.float64).reshape(
            num_groups, local_size
        )
        stride = local_size // 2
        while stride >= 1:
            groups[:, :stride] += groups[:, stride : 2 * stride]
            if stride * 2 < groups.shape[1]:
                # odd tail folds onto lane 0, as the classic kernel does
                groups[:, 0] += groups[:, stride * 2 :].sum(axis=1)
            groups = groups[:, :stride]
            stride //= 2
        partials.device_view[:num_groups] = groups[:, 0]
        self.trace.reduction_pass(f"workgroup_reduce:{kernel.name}", num_groups * 8)
        self._pending += 1
        return num_groups

    def enqueue_builtin_reduction_kernel(
        self,
        kernel: "Kernel",
        global_size: int,
        local_size: int,
        partials: Buffer,
    ) -> int:
        """OpenCL 2.0 ``work_group_reduce_add`` path (§3.6).

        The paper notes "OpenCL 2.0 includes built-in workgroup reductions
        that can be implemented by particular vendors, and may offer an
        important improvement for performance portability" — with the
        built-in, the kernel no longer carries hand-written tree code and
        the vendor combines each group.  Functionally identical to the
        manual tree (the tests assert bit-equal partials); the trace marks
        the pass as vendor-provided so a performance model could price it
        differently.
        """
        self._check_sizes(global_size, local_size)
        num_groups = global_size // local_size
        if partials.device_view.size < num_groups:
            raise ModelError(
                f"partials buffer holds {partials.device_view.size} doubles, "
                f"need {num_groups}"
            )
        contributions = kernel.invoke(np.arange(global_size, dtype=np.int64))
        if contributions is None or np.size(contributions) != global_size:
            raise ModelError(
                f"reduction kernel '{kernel.name}' must return one value per work item"
            )
        groups = np.asarray(contributions, dtype=np.float64).reshape(
            num_groups, local_size
        )
        # The vendor's combine: same tree the manual kernels write, so the
        # floating point result is identical on this implementation.
        stride = local_size // 2
        work = groups.copy()
        while stride >= 1:
            work[:, :stride] += work[:, stride : 2 * stride]
            if stride * 2 < work.shape[1]:
                work[:, 0] += work[:, stride * 2 :].sum(axis=1)
            work = work[:, :stride]
            stride //= 2
        partials.device_view[:num_groups] = work[:, 0]
        self.trace.reduction_pass(
            f"work_group_reduce_add:{kernel.name}", num_groups * 8
        )
        self._pending += 1
        return num_groups

    def finish(self) -> None:
        """clFinish: block until the queue drains (in-order: immediate)."""
        self._pending = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_sizes(global_size: int, local_size: int) -> None:
        if global_size <= 0 or local_size <= 0:
            raise ModelError(
                f"invalid ND-range: global={global_size}, local={local_size}"
            )
        if global_size % local_size:
            raise ModelError(
                f"global size {global_size} is not a multiple of local size {local_size}"
            )
