"""The OpenACC TeaLeaf port (§2.2, §3.2 of the paper).

Built from the OpenMP 4.0 codebase exactly as the paper's was: the same
loop bodies and the same data transitions, with ``acc data`` replacing
``target data`` and each kernel wrapped in an ``acc kernels present(...)
loop independent collapse(2)`` region.  The ``present`` clause is enforced
at every launch, so running a kernel outside the data region with
device-resident expectations fails loudly — which is how the PGI runtime
behaves.
"""

from __future__ import annotations

from repro.core.grid import Grid2D
from repro.models.base import (
    Capabilities,
    DeviceKind,
    ProgrammingModel,
    Support,
    register_model,
)
from repro.models.openacc.directives import AccDataRegion
from repro.models.openmp4 import OpenMP4Port
from repro.models.tracing import Trace


class OpenACCPort(OpenMP4Port):
    """OpenMP C loop bodies under OpenACC data/kernels directives.

    The OpenMP 4.0 port with its directives changed: ``acc data`` for
    ``target data``, with the same copies, and ``acc kernels`` for each
    ``target`` region.
    """

    _region_label = "acc_kernels"

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        super().__init__(grid, trace)
        self.model_name = "openacc"

    def _data_region_for(self, to, tofrom, alloc):
        """The solve's ``acc data copyin() copy() create()``."""
        return AccDataRegion(self.env, copyin=to, copy=tofrom, create=alloc)


class OpenACCModel(ProgrammingModel):
    capabilities = Capabilities(
        name="openacc",
        display_name="OpenACC",
        directive_based=True,
        language="C/Fortran",
        support={
            DeviceKind.CPU: Support.YES,
            DeviceKind.GPU: Support.YES,
            DeviceKind.KNC: Support.NO,
        },
        cross_platform=True,
        summary="Directive offload for NVIDIA GPUs (and x86 via PGI 15.10); "
        "the easiest GPU port to develop in the paper.",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> OpenACCPort:
        return OpenACCPort(grid, trace)


register_model(OpenACCModel())
