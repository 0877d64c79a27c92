"""The OpenMP 4.0 offload TeaLeaf port (§2.1, §3.1 of the paper).

Exactly as the paper describes, this port is the OpenMP C codebase with a
``target`` region added to each performance-critical function and a
``target data`` region "at the highest possible scope, above the main
timestep loop['s solve], that kept all data resident on the device until
convergence was achieved for the particular step".

Every kernel launch therefore enters one synchronous ``target`` region —
the per-invocation overhead that the paper measured as the model's main
cost ("a performance overhead dependent upon the number of target
invocations"), and the reason its CG solver (4 kernels + a halo refresh
per iteration) suffers more than Chebyshev/PPCG (Figure 10: +45 % CG on
KNC vs <10 % for the others).  The device performance simulator charges
each REGION trace event accordingly.
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
from repro.models.openmp.directives import DeviceDataEnvironment, TargetDataRegion
from repro.models.openmp3 import OpenMP3Port
from repro.models.tracing import Trace
from repro.util.errors import ModelError

#: Work vectors that live on the device for the duration of a solve but
#: never need host copies (``map(alloc:...)``).
_ALLOC_FIELDS = (F.U0, F.P, F.R, F.W, F.SD, F.Z, F.KX, F.KY)


class _DeviceFieldView:
    """Name -> device array resolution inside the target data region.

    Unmapped lookups raise :class:`ModelError`, the emulation's analogue of
    a missing ``map`` clause.
    """

    def __init__(self, env: DeviceDataEnvironment) -> None:
        self._env = env

    def __getitem__(self, name: str) -> np.ndarray:
        return self._env.device(name)


class OpenMP4Port(OpenMP3Port):
    """OpenMP C loop bodies under 4.0 target offload directives."""

    #: Region label; the 4.5 subclass switches to the nowait form.
    _region_label = "target"

    #: Each launch is a synchronous target region — a hard fence the plan
    #: compiler must respect, so no fusion across this port.
    supports_fusion = False
    has_data_region = True

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        super().__init__(grid, trace, dialect="f90")
        self.model_name = "openmp4"
        self.env = DeviceDataEnvironment(self.trace)
        self._data_region: TargetDataRegion | None = None

    # ------------------------------------------------------------------ #
    # residency
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
            raise ModelError("solve target data region is already open")
        hf = self._host_fields
        # density is read-only on the device; energy1 and u are both
        # produced on the device and consumed by the host summary.
        map_to = {F.DENSITY: hf[F.DENSITY]}
        if self._residency_enabled:
            # With the region held open across steps, set_field runs inside
            # it on every step after the first, so its read-only input must
            # be mapped too.
            map_to[F.ENERGY0] = hf[F.ENERGY0]
        region = TargetDataRegion(
            self.env,
            map_to=map_to,
            map_tofrom={F.ENERGY1: hf[F.ENERGY1], F.U: hf[F.U]},
            map_alloc={name: hf[name] for name in _ALLOC_FIELDS},
        )
        region.__enter__()
        self._data_region = region

    def end_solve(self) -> None:
        if self._data_region is None:
            raise ModelError("no open solve target data region")
        if self._residency_enabled:
            # Residency tracking hoists the data region above the timestep
            # loop: leave it open, host reads go through target update.
            return
        self._data_region.__exit__(None, None, None)
        self._data_region = None

    # ------------------------------------------------------------------ #
    # every kernel launch inside the data region is one target region
    # ------------------------------------------------------------------ #
    def _launch(self, kernel_name: str, cells: int | None = None, spec=None):
        spec = super()._launch(kernel_name, cells, spec)
        if self._data_region is not None:
            self.trace.region(f"{self._region_label}:{kernel_name}")
        return spec

    # ------------------------------------------------------------------ #
    # host access must go through target update directives
    # ------------------------------------------------------------------ #
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


class OpenMP45Port(OpenMP4Port):
    """OpenMP 4.5: ``target nowait`` streams of back-to-back regions.

    An extension beyond the paper's evaluation (4.5 had just been released
    at the time of writing): every solve kernel is queued with ``nowait``
    so the per-invocation overhead drops to the pipelined level — the
    paper's §3.1 hypothesis, quantified by the ablation benchmarks.
    Reductions and host reads still imply synchronisation points, which the
    real runtime would realise through task dependences; the emulation's
    in-order execution makes those implicit.
    """

    _region_label = "target_nowait"

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        super().__init__(grid, trace)
        self.model_name = "openmp45"


class OpenMP4Model(ProgrammingModel):
    capabilities = Capabilities(
        name="openmp4",
        display_name="OpenMP 4.0",
        directive_based=True,
        language="C/Fortran",
        support={
            DeviceKind.CPU: Support.YES,
            DeviceKind.GPU: Support.EXPERIMENTAL,
            DeviceKind.KNC: Support.OFFLOAD,
        },
        cross_platform=True,
        summary="Open-standard directive offload; tested on KNC offload in the paper.",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> OpenMP4Port:
        return OpenMP4Port(grid, trace)


class OpenMP45Model(ProgrammingModel):
    capabilities = Capabilities(
        name="openmp45",
        display_name="OpenMP 4.5 (target nowait)",
        directive_based=True,
        language="C/Fortran",
        support={
            DeviceKind.CPU: Support.YES,
            DeviceKind.GPU: Support.EXPERIMENTAL,
            DeviceKind.KNC: Support.OFFLOAD,
        },
        cross_platform=True,
        summary="Extension: the 4.5 nowait/async offload stream the paper "
        "anticipated (§3.1); not part of the evaluated set.",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> OpenMP45Port:
        return OpenMP45Port(grid, trace)


register_model(OpenMP4Model())
register_model(OpenMP45Model())
