"""CUDA device runtime: memory management and copies.

Device allocations are separate from host arrays and can only be filled or
read through ``memcpy``, whose transfers are traced (PCIe in the
performance model).  Use-after-free raises, as CUDA's debug tooling would.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.models.tracing import Trace, TransferDirection
from repro.util.errors import ModelError


class MemcpyKind(Enum):
    """cudaMemcpyKind."""

    HOST_TO_DEVICE = "cudaMemcpyHostToDevice"
    DEVICE_TO_HOST = "cudaMemcpyDeviceToHost"
    DEVICE_TO_DEVICE = "cudaMemcpyDeviceToDevice"


class DeviceAllocation:
    """One cudaMalloc'd region, in float64 words."""

    def __init__(self, words: int, label: str = "") -> None:
        if words <= 0:
            raise ModelError(f"allocation must be positive, got {words} words")
        self._data = np.zeros(words, dtype=np.float64)
        self.label = label
        self.freed = False

    @property
    def data(self) -> np.ndarray:
        if self.freed:
            raise ModelError(f"use of freed device allocation '{self.label}'")
        return self._data

    @property
    def words(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> int:
        return self._data.nbytes


class CudaRuntime:
    """The host-side CUDA runtime API surface TeaLeaf needs."""

    def __init__(self, trace: Trace | None = None) -> None:
        self.trace = trace if trace is not None else Trace()
        self._allocations: list[DeviceAllocation] = []

    def malloc(self, words: int, label: str = "") -> DeviceAllocation:
        """cudaMalloc (sized in float64 words)."""
        alloc = DeviceAllocation(words, label)
        self._allocations.append(alloc)
        return alloc

    def free(self, alloc: DeviceAllocation) -> None:
        """cudaFree."""
        if alloc.freed:
            raise ModelError(f"double free of device allocation '{alloc.label}'")
        alloc.freed = True

    def memcpy(
        self,
        dst: DeviceAllocation | np.ndarray,
        src: DeviceAllocation | np.ndarray,
        kind: MemcpyKind,
    ) -> None:
        """cudaMemcpy with explicit direction, traced for H2D/D2H."""
        if kind is MemcpyKind.HOST_TO_DEVICE:
            if not isinstance(dst, DeviceAllocation) or isinstance(src, DeviceAllocation):
                raise ModelError("H2D memcpy needs host src and device dst")
            flat = np.asarray(src, dtype=np.float64).ravel()
            if flat.size != dst.words:
                raise ModelError(
                    f"memcpy size mismatch: {flat.size} -> {dst.words} words"
                )
            dst.data[...] = flat
            self.trace.transfer(
                f"cudaMemcpy(H2D:{dst.label})", flat.nbytes, TransferDirection.H2D
            )
        elif kind is MemcpyKind.DEVICE_TO_HOST:
            if not isinstance(src, DeviceAllocation) or isinstance(dst, DeviceAllocation):
                raise ModelError("D2H memcpy needs device src and host dst")
            flat = dst.reshape(-1)
            if flat.size != src.words:
                raise ModelError(
                    f"memcpy size mismatch: {src.words} -> {flat.size} words"
                )
            flat[...] = src.data
            self.trace.transfer(
                f"cudaMemcpy(D2H:{src.label})", src.nbytes, TransferDirection.D2H
            )
        elif kind is MemcpyKind.DEVICE_TO_DEVICE:
            if not (
                isinstance(src, DeviceAllocation) and isinstance(dst, DeviceAllocation)
            ):
                raise ModelError("D2D memcpy needs device src and dst")
            if src.words != dst.words:
                raise ModelError(
                    f"memcpy size mismatch: {src.words} -> {dst.words} words"
                )
            dst.data[...] = src.data
        else:
            raise ModelError(f"unknown memcpy kind {kind!r}")

    @property
    def live_allocations(self) -> int:
        return sum(1 for a in self._allocations if not a.freed)
