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

import numpy as np

from repro.core import fields as F
from repro.core.grid import Grid2D
from repro.models.base import (
    Capabilities,
    DeviceKind,
    ProgrammingModel,
    Support,
    register_model,
)
from repro.models.openacc.directives import AccDataRegion
from repro.models.openmp.directives import DeviceDataEnvironment
from repro.models.openmp3 import OpenMP3Port
from repro.models.openmp4 import _ALLOC_FIELDS, _DeviceFieldView
from repro.models.tracing import Trace
from repro.util.errors import ModelError


class OpenACCPort(OpenMP3Port):
    """OpenMP C loop bodies under OpenACC data/kernels directives."""

    #: Every kernel is its own acc kernels region (a sync fence), so no
    #: fusion.
    supports_fusion = False

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        super().__init__(grid, trace, dialect="f90")
        self.model_name = "openacc"
        self.env = DeviceDataEnvironment(self.trace)
        self._data_region: AccDataRegion | None = None

    # ------------------------------------------------------------------ #
    @property
    def fields(self):
        if self._data_region is not None:
            return _DeviceFieldView(self.env)
        return self._host_fields

    def begin_solve(self) -> None:
        if self._data_region is not None:
            if self._residency_enabled:
                # Persistent region: still open from the previous step.
                return
            raise ModelError("acc data region is already open")
        hf = self._host_fields
        copyin = {F.DENSITY: hf[F.DENSITY]}
        if self._residency_enabled:
            # set_field runs inside the held-open region on later steps and
            # reads energy0, so the persistent region must map it.
            copyin[F.ENERGY0] = hf[F.ENERGY0]
        region = AccDataRegion(
            self.env,
            copyin=copyin,
            copy={F.ENERGY1: hf[F.ENERGY1], F.U: hf[F.U]},
            create={name: hf[name] for name in _ALLOC_FIELDS},
        )
        region.__enter__()
        self._data_region = region

    def end_solve(self) -> None:
        if self._data_region is None:
            raise ModelError("no open acc data region")
        if self._residency_enabled:
            # Keep data resident across steps; host reads use acc update.
            return
        self._data_region.__exit__(None, None, None)
        self._data_region = None

    def _launch(self, kernel_name: str, cells: int | None = None, spec=None):
        spec = super()._launch(kernel_name, cells, spec)
        if self._data_region is not None:
            self.trace.region(f"acc_kernels:{kernel_name}")
        return spec

    def read_field(self, name: str) -> np.ndarray:
        if self._data_region is not None and self.env.is_mapped(name):
            self.env.update_from(name)
        return self._host_fields[name].copy()

    def write_field(self, name: str, values: np.ndarray) -> None:
        self._host_fields[name][...] = values
        if self._data_region is not None and self.env.is_mapped(name):
            self.env.update_to(name)

    def _device_array(self, name: str) -> np.ndarray:
        if self._data_region is not None and self.env.is_mapped(name):
            return self.env.device(name)
        return self._host_fields[name]


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
