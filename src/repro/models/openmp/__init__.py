"""OpenMP emulation: a shared-memory fork-join runtime (3.0) and the
4.0 ``target`` offload directive layer.

The runtime mimics OpenMP's execution semantics — static scheduling of
contiguous iteration chunks across a thread team, per-thread partial
reductions combined at the join — while executing the whole team as one
vectorised NumPy slab, which the loop bodies' reach contract makes bitwise
the per-thread schedule (see :mod:`repro.models.openmp.runtime`).
"""

from repro.models.openmp.runtime import OpenMPRuntime
from repro.models.openmp.directives import (
    DeviceDataEnvironment,
    TargetDataRegion,
    target,
)

__all__ = [
    "OpenMPRuntime",
    "DeviceDataEnvironment",
    "TargetDataRegion",
    "target",
]
