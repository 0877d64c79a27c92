"""The OpenMP 3.0 TeaLeaf ports (Fortran 90 and C++ dialects).

This is the paper's platform-specific baseline: a shared-memory,
host-resident implementation parallelised with ``parallel for`` over the
outer (row) loop of every kernel and ``reduction(+:...)`` clauses for the
dot products.  It runs natively on CPUs and on KNC (Table 1), and is "used
as a best case for performance on the CPU and KNC" (§3).

Two dialects are registered — ``openmp-f90`` and ``openmp-cpp`` — because
Figure 8 distinguishes them: identical TeaLeaf code compiled as C++ ran the
Chebyshev solver 15 % slower than the Fortran build with Intel 15.0.3
(§4.1).  The dialect changes only the performance-calibration key; the
numerics are identical, as they were in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core import fields as F
from repro.core.grid import Grid2D
from repro.models import loopbodies as lb
from repro.models.base import (
    Capabilities,
    DeviceKind,
    Port,
    ProgrammingModel,
    Support,
    register_model,
)
from repro.models.openmp.runtime import DEFAULT_NUM_THREADS, OpenMPRuntime
from repro.models.tracing import Trace
from repro.util.errors import ModelError


class OpenMP3Port(Port):
    """Host-resident TeaLeaf with fork-join row parallelism.

    The kernel set is expressed as ``_k_*`` primitives over the shared
    OpenMP-C loop bodies, one ``parallel for`` region per sweep; dispatch,
    tracing and residency bookkeeping live in :class:`Port`.  Each region
    runs its team as one slab over its whole row range
    (:class:`OpenMPRuntime`), the cached team slab, so the bodies' reach
    contract makes it bitwise the per-thread schedule.  Elementwise
    kernels may be fused: the fork-join model happily runs several loop
    bodies per parallel region.
    """

    supports_fusion = True

    def __init__(
        self,
        grid: Grid2D,
        trace: Trace | None = None,
        dialect: str = "f90",
        num_threads: int = DEFAULT_NUM_THREADS,
    ) -> None:
        super().__init__(grid, trace)
        self.model_name = f"openmp-{dialect}"
        self.omp = OpenMPRuntime(num_threads)
        self._host_fields: dict[str, np.ndarray] = {
            name: grid.allocate() for name in F.FIELD_ORDER
        }
        #: The team's slab, the whole interior; it holds the geometry's
        #: scratch block, so the sweeps allocate none of their own.
        self._team = lb.Slab(self._lookup(), grid)

    @property
    def fields(self):
        """The arrays kernels operate on.

        For this host-resident port these are simply the host allocations;
        the offload subclasses (OpenMP 4.0, OpenACC) override this property
        to resolve names against their device data environment, which is
        exactly how the paper's ports reused the OpenMP C loop bodies under
        different data-residency directives.
        """
        return self._host_fields

    def _lookup(self):
        """How the loop bodies resolve names: :attr:`fields`, here the host
        dict's own lookup, bound once."""
        return self._host_fields.__getitem__

    def _slab(self, r0: int, r1: int) -> lb.Slab:
        """Interior rows ``[r0, r1)``: the team slab when they are all."""
        if r0 == 0 and r1 == self.grid.ny:
            return self._team
        return lb.Slab(self._team.array, self.grid, r0, r1)

    def _for(self, body, args: tuple = ()) -> None:
        """One ``parallel for`` region of ``body`` over the interior rows."""
        self.omp.parallel_for(
            self.grid.ny, lambda r0, r1: body(self._slab(r0, r1), args)
        )

    def _reduce(self, body, args: tuple = ()) -> float:
        """One ``parallel for reduction(+:...)`` region of ``body``."""
        return self.omp.parallel_reduce(
            self.grid.ny, lambda r0, r1: body(self._slab(r0, r1), args)
        )

    # ------------------------------------------------------------------ #
    # data interface (host model: no transfers)
    # ------------------------------------------------------------------ #
    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        if density.shape != self.grid.shape:
            raise ModelError(
                f"state shape {density.shape} != grid shape {self.grid.shape}"
            )
        self.fields[F.DENSITY][...] = density
        self.fields[F.ENERGY0][...] = energy0
        self._launch("generate_chunk")

    def read_field(self, name: str) -> np.ndarray:
        return self.fields[name].copy()

    def write_field(self, name: str, values: np.ndarray) -> None:
        self.fields[name][...] = values

    def _device_array(self, name: str) -> np.ndarray:
        return self.fields[name]

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def _k_set_field(self) -> None:
        self._for(lb.set_field)

    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        self._for(lb.tea_leaf_init, (dt, coefficient))
        lb.zero_walls(self._team, ())

    def _k_tea_leaf_residual(self) -> None:
        self._for(lb.tea_leaf_residual)

    def _k_cg_init(self) -> float:
        return self._reduce(lb.cg_init)

    def _k_cg_calc_w(self) -> float:
        return self._reduce(lb.cg_calc_w)

    def _k_cg_calc_ur(self, alpha: float) -> float:
        return self._reduce(lb.cg_calc_ur, (alpha,))

    def _k_cg_calc_p(self, beta: float) -> None:
        self._for(lb.cg_calc_p, (beta,))

    def _k_cheby_init(self, theta: float) -> None:
        self._for(lb.cheby_init, (theta,))
        self._for(lb.cheby_calc_u)

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        self._for(lb.cheby_iterate_r)
        self._for(lb.cheby_iterate_sd, (alpha, beta))

    def _k_ppcg_precon_init(self, theta: float) -> None:
        self._for(lb.ppcg_precon_init, (theta,))

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        self._for(lb.ppcg_inner_w)
        self._for(lb.ppcg_inner_sd, (alpha, beta))

    def _k_ppcg_calc_p(self, beta: float) -> None:
        self._for(lb.ppcg_calc_p, (beta,))

    def _k_cg_precon_jacobi(self) -> None:
        self._for(lb.cg_precon_jacobi)

    def _k_jacobi_iterate(self) -> float:
        return self._reduce(lb.jacobi_iterate)

    def _k_norm2_field(self, name: str) -> float:
        return self._reduce(lb.norm2_field, (name,))

    def _k_dot_fields(self, name_a: str, name_b: str) -> float:
        return self._reduce(lb.dot_fields, (name_a, name_b))

    def _k_copy_field(self, src: str, dst: str) -> None:
        s, d = self.fields[src], self.fields[dst]
        self.omp.parallel_for(
            s.shape[0],
            lambda r0, r1: d.__setitem__(slice(r0, r1), s[r0:r1]),
        )

    def _k_tea_leaf_finalise(self) -> None:
        self._for(lb.tea_leaf_finalise)

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        vol, mass, ie, temp = self.omp.parallel_reduce_multi(
            self.grid.ny,
            lambda r0, r1: lb.field_summary(self._slab(r0, r1), ()),
            width=4,
        )
        return vol, mass, ie, temp


class OpenMP3Model(ProgrammingModel):
    """Factory for one OpenMP 3.0 dialect."""

    def __init__(self, dialect: str, display: str) -> None:
        self.dialect = dialect
        self.capabilities = Capabilities(
            name=f"openmp-{dialect}",
            display_name=display,
            directive_based=True,
            language="Fortran 90" if dialect == "f90" else "C++",
            support={
                DeviceKind.CPU: Support.YES,
                DeviceKind.GPU: Support.NO,
                DeviceKind.KNC: Support.NATIVE,
            },
            cross_platform=False,
            summary="Shared-memory directives; the device-tuned host baseline.",
        )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> OpenMP3Port:
        return OpenMP3Port(grid, trace, dialect=self.dialect)


register_model(OpenMP3Model("f90", "OpenMP 3.0 (Fortran 90)"))
register_model(OpenMP3Model("cpp", "OpenMP 3.0 (C++)"))
