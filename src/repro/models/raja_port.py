"""The RAJA TeaLeaf ports: indirection-list and SIMD proof-of-concept.

Two registered models, matching §3.4 / §4.1:

``raja``
    All main loops became lambda calls over IndexSets of per-row
    **ListSegments** whose indirection arrays pre-exclude the halo, so the
    loop bodies have "no explicit conditions or index calculations".  The
    indirection lists are precomputed once at port construction — the
    "earlier in the application" initialisation the paper flags as a
    design question for large codebases.  Indirect addressing precludes
    vectorisation, which the device calibration charges for (the ~40 %
    Chebyshev penalty of Figure 8).

``raja-simd``
    The proof-of-concept from §4.1: the same lambdas dispatched over
    stride-1 **RangeSegments** under a ``simd_exec`` policy (the OpenMP 4.0
    ``simd`` statement in the paper), recovering vectorisation for the
    Chebyshev solver.

The port is host-resident: the RAJA available to the paper was unreleased
and excluded GPU support (Table 1).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core import fields as F
from repro.core.grid import Grid2D
from repro.models.base import (
    Capabilities,
    DeviceKind,
    Port,
    ProgrammingModel,
    Support,
    register_model,
)
from repro.models.raja.forall import (
    cuda_exec,
    forall,
    omp_parallel_for_exec,
    simd_exec,
)
from repro.models.raja.reducers import ReduceSum
from repro.models.raja.segments import IndexSet, ListSegment, RangeSegment
from repro.models.reduction import deterministic_multi_sum
from repro.models.stencil import flat_diag, flat_matvec
from repro.models.tracing import Trace
from repro.util.errors import ModelError


def multi_reduce_dispatch(
    indexset: IndexSet,
    body: Callable[[np.ndarray], Sequence[np.ndarray]],
    width: int,
) -> tuple[float, ...]:
    """Custom dispatch for bodies with multiple reduction variables.

    The paper's port had to write its own dispatch-function implementations
    "to handle situations where we had multiple reduction variables, and
    for multiple indexing" (§3.4) — this is that code.  The body returns
    one contribution array per reduction variable for each segment batch;
    per-variable contributions are buffered in segment order and finalised
    by the shared deterministic pairwise tree.
    """
    parts: list[list[np.ndarray]] = [[] for _ in range(width)]
    for seg in indexset.segments:
        idx = seg.indices()
        if not idx.size:
            continue
        contribs = body(idx)
        if len(contribs) != width:
            raise ModelError(
                f"multi-reduce body returned {len(contribs)} values, expected {width}"
            )
        for i, c in enumerate(contribs):
            parts[i].append(np.atleast_1d(np.asarray(c, dtype=np.float64)).ravel())
    return deterministic_multi_sum(
        [np.concatenate(p) if p else np.zeros(0) for p in parts]
    )


class RAJAPort(Port):
    """Lambda bodies over precomputed interior IndexSets."""

    model_name = "raja"
    #: forall launches carry no implicit fences; fusion is legal.
    supports_fusion = True
    #: Execution policy for the main loops.
    policy = omp_parallel_for_exec
    #: Whether to build vectorisable RangeSegments (the SIMD variant).
    use_range_segments = False

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        super().__init__(grid, trace)
        self.fields: dict[str, np.ndarray] = {
            name: grid.allocate() for name in F.FIELD_ORDER
        }
        self._pitch = grid.nx + 2 * grid.halo
        self._rx = 0.0
        self._ry = 0.0
        # Indirection-list precomputation: one IndexSet per distinct data
        # traversal.  TeaLeaf only needs three, but §3.4 notes diverse
        # traversals would bloat this decoupled initialisation code.
        self._interior = self._build_indexset(col0=0)
        self._x_faces = self._build_indexset(col0=1)  # skip the west wall face
        self._y_faces = self._build_indexset(col0=0, row0=1)  # skip south wall

    def _build_indexset(self, col0: int = 0, row0: int = 0) -> IndexSet:
        """Per-interior-row segments over flat (C-order) indices."""
        h, nx, ny = self.h, self.grid.nx, self.grid.ny
        iset = IndexSet()
        for k in range(row0, ny):
            base = (h + k) * self._pitch + h + col0
            if self.use_range_segments:
                iset.push_back(RangeSegment(base, base + nx - col0))
            else:
                iset.push_back(ListSegment(np.arange(base, base + nx - col0)))
        return iset

    # ------------------------------------------------------------------ #
    def _flat(self, name: str) -> np.ndarray:
        return self.fields[name].ravel()

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
    def _matvec(self, i: np.ndarray, v: np.ndarray) -> np.ndarray:
        kx, ky = self._flat(F.KX), self._flat(F.KY)
        return flat_matvec(i, v, kx, ky, 1, self._pitch)

    def _k_set_field(self) -> None:
        e0, e1 = self._flat(F.ENERGY0), self._flat(F.ENERGY1)
        forall(self.policy, self._interior, lambda i: e1.__setitem__(i, e0[i]))

    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        g = self.grid
        self._rx = dt / (g.dx * g.dx)
        self._ry = dt / (g.dy * g.dy)
        recip = coefficient == "recip_conductivity"
        density = self._flat(F.DENSITY)
        energy = self._flat(F.ENERGY1)
        u, u0 = self._flat(F.U), self._flat(F.U0)
        kx, ky = self._flat(F.KX), self._flat(F.KY)
        NX = self._pitch
        rx, ry = self._rx, self._ry

        def w_of(vals: np.ndarray) -> np.ndarray:
            return 1.0 / vals if recip else vals


        def init_u(i: np.ndarray) -> None:
            u[i] = energy[i] * density[i]
            u0[i] = u[i]

        forall(self.policy, self._interior, init_u)

        # Wall faces are simply absent from the face index sets, so the
        # zero-flux boundary needs no conditionals -- but the coefficients
        # must be cleared in case a previous solve wrote them.
        kx[self._interior.all_indices()] = 0.0
        ky[self._interior.all_indices()] = 0.0

        def init_kx(i: np.ndarray) -> None:
            wc, wx = w_of(density[i]), w_of(density[i - 1])
            kx[i] = rx * (wx + wc) / (2.0 * wx * wc)

        forall(self.policy, self._x_faces, init_kx)

        def init_ky(i: np.ndarray) -> None:
            wc, wy = w_of(density[i]), w_of(density[i - NX])
            ky[i] = ry * (wy + wc) / (2.0 * wy * wc)

        forall(self.policy, self._y_faces, init_ky)

    def _k_tea_leaf_residual(self) -> None:
        r, u0 = self._flat(F.R), self._flat(F.U0)
        u = self._flat(F.U)
        forall(
            self.policy,
            self._interior,
            lambda i: r.__setitem__(i, u0[i] - self._matvec(i, u)),
        )

    def _k_cg_init(self) -> float:
        w, r, p = self._flat(F.W), self._flat(F.R), self._flat(F.P)
        u, u0 = self._flat(F.U), self._flat(F.U0)
        rro = ReduceSum(self.policy)

        def body(i: np.ndarray) -> None:
            nonlocal rro
            w[i] = self._matvec(i, u)
            r[i] = u0[i] - w[i]
            p[i] = r[i]
            rro += r[i] * r[i]

        forall(self.policy, self._interior, body)
        return rro.get()

    def _k_cg_calc_w(self) -> float:
        w, p = self._flat(F.W), self._flat(F.P)
        pw = ReduceSum(self.policy)

        def body(i: np.ndarray) -> None:
            nonlocal pw
            w[i] = self._matvec(i, p)
            pw += p[i] * w[i]

        forall(self.policy, self._interior, body)
        return pw.get()

    def _k_cg_calc_ur(self, alpha: float) -> float:
        u, r = self._flat(F.U), self._flat(F.R)
        p, w = self._flat(F.P), self._flat(F.W)
        rrn = ReduceSum(self.policy)

        def body(i: np.ndarray) -> None:
            nonlocal rrn
            u[i] += alpha * p[i]
            r[i] -= alpha * w[i]
            rrn += r[i] * r[i]

        forall(self.policy, self._interior, body)
        return rrn.get()

    def _k_cg_calc_p(self, beta: float) -> None:
        p, r = self._flat(F.P), self._flat(F.R)
        forall(self.policy, self._interior, lambda i: p.__setitem__(i, r[i] + beta * p[i]))

    def _k_ppcg_calc_p(self, beta: float) -> None:
        p, z = self._flat(F.P), self._flat(F.Z)
        forall(self.policy, self._interior, lambda i: p.__setitem__(i, z[i] + beta * p[i]))

    def _k_cheby_init(self, theta: float) -> None:
        r, sd = self._flat(F.R), self._flat(F.SD)
        u, u0 = self._flat(F.U), self._flat(F.U0)

        def sweep_r(i: np.ndarray) -> None:
            r[i] = u0[i] - self._matvec(i, u)
            sd[i] = r[i] / theta

        forall(self.policy, self._interior, sweep_r)
        forall(self.policy, self._interior, lambda i: u.__setitem__(i, u[i] + sd[i]))

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        self._cheby_sweeps(F.R, F.U, alpha, beta)

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        self._cheby_sweeps(F.W, F.Z, alpha, beta)

    def _cheby_sweeps(
        self, resid: str, accum: str, alpha: float, beta: float
    ) -> None:
        res, sd, acc = self._flat(resid), self._flat(F.SD), self._flat(accum)
        forall(
            self.policy,
            self._interior,
            lambda i: res.__setitem__(i, res[i] - self._matvec(i, sd)),
        )

        def sweep_sd(i: np.ndarray) -> None:
            sd[i] = alpha * sd[i] + beta * res[i]
            acc[i] += sd[i]

        forall(self.policy, self._interior, sweep_sd)

    def _k_ppcg_precon_init(self, theta: float) -> None:
        w, sd = self._flat(F.W), self._flat(F.SD)
        z, r = self._flat(F.Z), self._flat(F.R)

        def body(i: np.ndarray) -> None:
            w[i] = r[i]
            sd[i] = w[i] / theta
            z[i] = sd[i]

        forall(self.policy, self._interior, body)

    def _k_cg_precon_jacobi(self) -> None:
        z, r = self._flat(F.Z), self._flat(F.R)
        kx, ky = self._flat(F.KX), self._flat(F.KY)
        NX = self._pitch

        def body(i: np.ndarray) -> None:
            z[i] = r[i] / flat_diag(i, kx, ky, 1, NX)

        forall(self.policy, self._interior, body)

    def _k_jacobi_iterate(self) -> float:
        u, un, u0 = self._flat(F.U), self._flat(F.R), self._flat(F.U0)
        kx, ky = self._flat(F.KX), self._flat(F.KY)
        NX = self._pitch
        err = ReduceSum(self.policy)

        def body(i: np.ndarray) -> None:
            nonlocal err
            diag = flat_diag(i, kx, ky, 1, NX)
            u[i] = (
                u0[i]
                + kx[i + 1] * un[i + 1]
                + kx[i] * un[i - 1]
                + ky[i + NX] * un[i + NX]
                + ky[i] * un[i - NX]
            ) / diag
            err += np.abs(u[i] - un[i])

        forall(self.policy, self._interior, body)
        return err.get()

    def _k_norm2_field(self, name: str) -> float:
        a = self._flat(name)
        acc = ReduceSum(self.policy)

        def body(i: np.ndarray) -> None:
            nonlocal acc
            acc += a[i] * a[i]

        forall(self.policy, self._interior, body)
        return acc.get()

    def _k_dot_fields(self, name_a: str, name_b: str) -> float:
        a, b = self._flat(name_a), self._flat(name_b)
        acc = ReduceSum(self.policy)

        def body(i: np.ndarray) -> None:
            nonlocal acc
            acc += a[i] * b[i]

        forall(self.policy, self._interior, body)
        return acc.get()

    def _k_copy_field(self, src: str, dst: str) -> None:
        self.fields[dst][...] = self.fields[src]

    def _k_tea_leaf_finalise(self) -> None:
        energy, u = self._flat(F.ENERGY1), self._flat(F.U)
        density = self._flat(F.DENSITY)
        forall(
            self.policy,
            self._interior,
            lambda i: energy.__setitem__(i, u[i] / density[i]),
        )

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        density, energy = self._flat(F.DENSITY), self._flat(F.ENERGY1)
        u = self._flat(F.U)
        vol = self.grid.cell_volume

        def body(i: np.ndarray):
            d = density[i]
            return (
                np.full(i.size, vol),
                vol * d,
                vol * d * energy[i],
                vol * u[i],
            )

        return multi_reduce_dispatch(self._interior, body, width=4)


class RAJASIMDPort(RAJAPort):
    """The §4.1 SIMD proof of concept: RangeSegments + simd_exec."""

    model_name = "raja-simd"
    policy = simd_exec
    use_range_segments = True


class RAJAGPUPort(RAJAPort):
    """Extension: the CUDA-backed RAJA the paper was waiting for (§2.3/§3).

    Same lambdas, dispatched through the ``cuda_exec`` policy so every
    forall becomes a guarded CUDA launch.  Data management is left to the
    application (this port keeps unified host-side arrays — the
    simplification a first lambda-offload port would make with managed
    memory); a production port would add explicit device residency.
    """

    model_name = "raja-gpu"
    policy = cuda_exec
    use_range_segments = True  # coalesced contiguous segments on the GPU


_RAJA_SUPPORT = {
    DeviceKind.CPU: Support.YES,
    DeviceKind.GPU: Support.NO,  # unreleased RAJA excluded GPU support (§3)
    DeviceKind.KNC: Support.NATIVE,
}


class RAJAModel(ProgrammingModel):
    capabilities = Capabilities(
        name="raja",
        display_name="RAJA",
        directive_based=False,
        language="C++11",
        support=_RAJA_SUPPORT,
        cross_platform=True,
        summary="LLNL portability layer: lambdas over IndexSets of "
        "indirection-list segments.",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> RAJAPort:
        return RAJAPort(grid, trace)


class RAJASIMDModel(ProgrammingModel):
    capabilities = Capabilities(
        name="raja-simd",
        display_name="RAJA (SIMD proof of concept)",
        directive_based=False,
        language="C++11",
        support=_RAJA_SUPPORT,
        cross_platform=True,
        summary="RangeSegment + forced-vectorisation variant recovering the "
        "Chebyshev penalty (§4.1).",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> RAJASIMDPort:
        return RAJASIMDPort(grid, trace)


class RAJAGPUModel(ProgrammingModel):
    capabilities = Capabilities(
        name="raja-gpu",
        display_name="RAJA (CUDA backend, extension)",
        directive_based=False,
        language="C++11",
        support={
            DeviceKind.CPU: Support.NO,
            DeviceKind.GPU: Support.YES,
            DeviceKind.KNC: Support.NO,
        },
        cross_platform=True,
        summary="Extension: the lambda-over-CUDA dispatch the RAJA team was "
        "writing at the time of the paper (§2.3); not part of the "
        "evaluated set (Table 1 lists RAJA GPU support as absent).",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> RAJAGPUPort:
        return RAJAGPUPort(grid, trace)


register_model(RAJAModel())
register_model(RAJASIMDModel())
register_model(RAJAGPUModel())
