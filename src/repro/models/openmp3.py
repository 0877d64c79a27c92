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
from repro.core import operators as ops
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
from repro.models.stencil import scratch
from repro.models.tracing import Trace
from repro.util.errors import ModelError


class OpenMP3Port(Port):
    """Host-resident TeaLeaf with fork-join row parallelism.

    The kernel set is expressed as ``_k_*`` primitives over the shared
    OpenMP-C loop bodies; dispatch, tracing and residency bookkeeping live
    in :class:`Port`.  Each ``parallel for`` runs its team as one slab
    over its whole row range (:class:`OpenMPRuntime`), so the lambdas here
    keep the loop bodies' reach contract: they write only their rows and
    read no array they write outside them.  Elementwise kernels may be
    fused: the fork-join model happily runs several loop bodies per
    parallel region.
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
        #: The team's slab geometry's scratch block, held so that the
        #: loop bodies' sweeps reuse it instead of allocating their own.
        self._scratch_block = scratch(grid.ny, grid.nx + 2 * self.h)
        self._rx = 0.0
        self._ry = 0.0

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
        e0, e1 = self.fields[F.ENERGY0], self.fields[F.ENERGY1]
        h, nx = self.h, self.grid.nx
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: e1.__setitem__(
                (slice(h + r0, h + r1), slice(h, h + nx)),
                e0[h + r0 : h + r1, h : h + nx],
            ),
        )

    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        g = self.grid
        self._rx = dt / (g.dx * g.dx)
        self._ry = dt / (g.dy * g.dy)
        recip = coefficient == ops.RECIP_CONDUCTIVITY
        f = self.fields
        self.omp.parallel_for(
            g.ny,
            lambda r0, r1: lb.tea_leaf_init_slab(
                f[F.DENSITY], f[F.ENERGY1], f[F.U], f[F.U0], f[F.KX], f[F.KY],
                self._rx, self._ry, recip, self.h, g.nx, r0, r1,
            ),
        )
        lb.zero_boundary_coefficients(f[F.KX], f[F.KY], self.h, g.nx, g.ny)

    def _k_tea_leaf_residual(self) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.residual_slab(
                f[F.R], f[F.U0], f[F.U], f[F.KX], f[F.KY],
                self.h, self.grid.nx, r0, r1,
            ),
        )

    def _k_cg_init(self) -> float:
        f = self.fields
        return self.omp.parallel_reduce(
            self.grid.ny,
            lambda r0, r1: lb.cg_init_slab(
                f[F.W], f[F.R], f[F.P], f[F.U], f[F.U0], f[F.KX], f[F.KY],
                self.h, self.grid.nx, r0, r1,
            ),
        )

    def _k_cg_calc_w(self) -> float:
        f = self.fields
        return self.omp.parallel_reduce(
            self.grid.ny,
            lambda r0, r1: lb.cg_calc_w_slab(
                f[F.W], f[F.P], f[F.KX], f[F.KY], self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_cg_calc_ur(self, alpha: float) -> float:
        f = self.fields
        return self.omp.parallel_reduce(
            self.grid.ny,
            lambda r0, r1: lb.cg_calc_ur_slab(
                f[F.U], f[F.R], f[F.P], f[F.W], alpha, self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_cg_calc_p(self, beta: float) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cg_calc_p_slab(
                f[F.P], f[F.R], beta, self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_cheby_init(self, theta: float) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cheby_init_slab(
                f[F.R], f[F.SD], f[F.U], f[F.U0], f[F.W], f[F.KX], f[F.KY],
                theta, self.h, self.grid.nx, r0, r1,
            ),
        )
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cheby_calc_u_slab(
                f[F.U], f[F.SD], self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cheby_iterate_r_slab(
                f[F.R], f[F.SD], f[F.W], f[F.KX], f[F.KY],
                self.h, self.grid.nx, r0, r1,
            ),
        )
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cheby_iterate_sd_slab(
                f[F.SD], f[F.R], f[F.U], alpha, beta, self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_ppcg_precon_init(self, theta: float) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.ppcg_precon_init_slab(
                f[F.W], f[F.SD], f[F.Z], f[F.R], theta, self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        # Sweep 1: w -= A sd (the inner residual update).
        scratch = self._scratch()
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: self._ppcg_inner_r(scratch, r0, r1),
        )
        # Sweep 2: sd = alpha sd + beta w; z += sd.
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: self._ppcg_inner_sd(alpha, beta, r0, r1),
        )

    def _scratch(self) -> np.ndarray:
        if not hasattr(self, "_scratch_arr"):
            self._scratch_arr = self.grid.allocate()
        return self._scratch_arr

    def _ppcg_inner_r(self, scratch: np.ndarray, r0: int, r1: int) -> None:
        f = self.fields
        lb.matvec_slab(scratch, f[F.SD], f[F.KX], f[F.KY], self.h, self.grid.nx, r0, r1)
        I = slice(self.h + r0, self.h + r1)
        J = slice(self.h, self.h + self.grid.nx)
        f[F.W][I, J] -= scratch[I, J]

    def _ppcg_inner_sd(self, alpha: float, beta: float, r0: int, r1: int) -> None:
        f = self.fields
        I = slice(self.h + r0, self.h + r1)
        J = slice(self.h, self.h + self.grid.nx)
        f[F.SD][I, J] = alpha * f[F.SD][I, J] + beta * f[F.W][I, J]
        f[F.Z][I, J] += f[F.SD][I, J]

    def _k_ppcg_calc_p(self, beta: float) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cg_calc_p_slab(
                f[F.P], f[F.Z], beta, self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_cg_precon_jacobi(self) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.cg_precon_slab(
                f[F.Z], f[F.R], f[F.KX], f[F.KY], self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_jacobi_iterate(self) -> float:
        f = self.fields
        return self.omp.parallel_reduce(
            self.grid.ny,
            lambda r0, r1: lb.jacobi_iterate_slab(
                f[F.U], f[F.R], f[F.U0], f[F.KX], f[F.KY],
                self.h, self.grid.nx, r0, r1,
            ),
        )

    def _k_norm2_field(self, name: str) -> float:
        a = self.fields[name]
        h, nx = self.h, self.grid.nx
        return self.omp.parallel_reduce(
            self.grid.ny,
            lambda r0, r1: (
                a[h + r0 : h + r1, h : h + nx] * a[h + r0 : h + r1, h : h + nx]
            ).ravel(),
        )

    def _k_dot_fields(self, name_a: str, name_b: str) -> float:
        a, b = self.fields[name_a], self.fields[name_b]
        h, nx = self.h, self.grid.nx
        return self.omp.parallel_reduce(
            self.grid.ny,
            lambda r0, r1: (
                a[h + r0 : h + r1, h : h + nx] * b[h + r0 : h + r1, h : h + nx]
            ).ravel(),
        )

    def _k_copy_field(self, src: str, dst: str) -> None:
        s, d = self.fields[src], self.fields[dst]
        self.omp.parallel_for(
            s.shape[0],
            lambda r0, r1: d.__setitem__(slice(r0, r1), s[r0:r1]),
        )

    def _k_tea_leaf_finalise(self) -> None:
        f = self.fields
        self.omp.parallel_for(
            self.grid.ny,
            lambda r0, r1: lb.finalise_slab(
                f[F.ENERGY1], f[F.U], f[F.DENSITY], self.h, self.grid.nx, r0, r1
            ),
        )

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        f = self.fields
        vol, mass, ie, temp = self.omp.parallel_reduce_multi(
            self.grid.ny,
            lambda r0, r1: lb.field_summary_slab(
                f[F.DENSITY], f[F.ENERGY1], f[F.U], self.grid.cell_volume,
                self.h, self.grid.nx, r0, r1,
            ),
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
