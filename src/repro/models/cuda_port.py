"""The CUDA TeaLeaf port (§2.6, §3.5 of the paper).

"In order to port TeaLeaf to CUDA we essentially converted all of the
loops into CUDA kernels, and wrote data copying and reduction logic."
(§3.5).  This module does exactly that: every kernel is a ``__global__``-
style function over a 1-D grid of 1-D blocks, computing its global index
from block/thread coordinates and guarding iteration overspill; every
reduction-based kernel embeds the shared-memory block tree and writes one
partial per block, which the host copies back and finishes.

CUDA offers no portability beyond NVIDIA GPUs (Table 1), and — since any
model targeting NVIDIA GPUs lowers to PTX — it provides the performance
*lower bound* the other GPU models are measured against in Figure 9.
"""

from __future__ import annotations

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
from repro.models.cuda.launch import Dim3, ThreadContext, blocks_for, launch
from repro.models.cuda.reduction import block_reduce_sum
from repro.models.cuda.runtime import CudaRuntime, DeviceAllocation, MemcpyKind
from repro.models.reduction import combine_partials
from repro.models.stencil import decode_interior, flat_diag, flat_matvec
from repro.models.tracing import Trace
from repro.util.errors import ModelError

#: Threads per block (power of two, required by the reduction tree).
BLOCK_SIZE = 128


# --------------------------------------------------------------------- #
# __global__ kernels
# --------------------------------------------------------------------- #
def _interior_idx(ctx: ThreadContext, n: int, pitch: int, h: int, nx: int):
    """Global index + overspill guard + interior flat position."""
    return decode_interior(ctx.global_idx, n, pitch, h, nx)


def _matvec(i, v, kx, ky, pitch):
    return flat_matvec(i, v, kx, ky, 1, pitch)


def cuda_set_field(ctx, n, pitch, h, nx, energy0, energy1):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    energy1[i] = energy0[i]


def cuda_tea_leaf_init(ctx, n, pitch, h, nx, rx, ry, recip, density, energy, u, u0, kx, ky):
    _, i, j, k = _interior_idx(ctx, n, pitch, h, nx)
    u[i] = energy[i] * density[i]
    u0[i] = u[i]
    fx = i[j > h]
    wc = 1.0 / density[fx] if recip else density[fx]
    wx = 1.0 / density[fx - 1] if recip else density[fx - 1]
    kx[fx] = rx * (wx + wc) / (2.0 * wx * wc)
    fy = i[k > h]
    wc = 1.0 / density[fy] if recip else density[fy]
    wy = 1.0 / density[fy - pitch] if recip else density[fy - pitch]
    ky[fy] = ry * (wy + wc) / (2.0 * wy * wc)


def cuda_residual(ctx, n, pitch, h, nx, r, u0, u, kx, ky):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    r[i] = u0[i] - _matvec(i, u, kx, ky, pitch)


def cuda_cg_init(ctx, n, pitch, h, nx, u, u0, w, r, p, kx, ky, partials):
    valid, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    w[i] = _matvec(i, u, kx, ky, pitch)
    r[i] = u0[i] - w[i]
    p[i] = r[i]
    value = np.zeros(ctx.global_idx.size)
    value[valid] = r[i] * r[i]
    partials[: ctx.gridDim_x] = block_reduce_sum(value, ctx.blockDim_x)


def cuda_cg_calc_w(ctx, n, pitch, h, nx, p, w, kx, ky, partials):
    valid, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    w[i] = _matvec(i, p, kx, ky, pitch)
    value = np.zeros(ctx.global_idx.size)
    value[valid] = p[i] * w[i]
    partials[: ctx.gridDim_x] = block_reduce_sum(value, ctx.blockDim_x)


def cuda_cg_calc_ur(ctx, n, pitch, h, nx, alpha, u, r, p, w, partials):
    valid, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    u[i] += alpha * p[i]
    r[i] -= alpha * w[i]
    value = np.zeros(ctx.global_idx.size)
    value[valid] = r[i] * r[i]
    partials[: ctx.gridDim_x] = block_reduce_sum(value, ctx.blockDim_x)


def cuda_axpy(ctx, n, pitch, h, nx, scale, dst, src):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    dst[i] = src[i] + scale * dst[i]


def cuda_cheby_init(ctx, n, pitch, h, nx, theta, u, u0, r, sd, kx, ky):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    r[i] = u0[i] - _matvec(i, u, kx, ky, pitch)
    sd[i] = r[i] / theta


def cuda_cheby_calc_r(ctx, n, pitch, h, nx, resid, sd, kx, ky):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    resid[i] -= _matvec(i, sd, kx, ky, pitch)


def cuda_cheby_calc_sd_u(ctx, n, pitch, h, nx, alpha, beta, sd, resid, accum):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    sd[i] = alpha * sd[i] + beta * resid[i]
    accum[i] += sd[i]


def cuda_add(ctx, n, pitch, h, nx, dst, src):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    dst[i] += src[i]


def cuda_ppcg_precon_init(ctx, n, pitch, h, nx, theta, w, sd, z, r):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    w[i] = r[i]
    sd[i] = w[i] / theta
    z[i] = sd[i]


def cuda_cg_precon(ctx, n, pitch, h, nx, z, r, kx, ky):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    z[i] = r[i] / flat_diag(i, kx, ky, 1, pitch)


def cuda_jacobi(ctx, n, pitch, h, nx, u, un, u0, kx, ky, partials):
    valid, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    diag = flat_diag(i, kx, ky, 1, pitch)
    u[i] = (
        u0[i]
        + kx[i + 1] * un[i + 1]
        + kx[i] * un[i - 1]
        + ky[i + pitch] * un[i + pitch]
        + ky[i] * un[i - pitch]
    ) / diag
    value = np.zeros(ctx.global_idx.size)
    value[valid] = np.abs(u[i] - un[i])
    partials[: ctx.gridDim_x] = block_reduce_sum(value, ctx.blockDim_x)


def cuda_dot(ctx, n, pitch, h, nx, a, b, partials):
    valid, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    value = np.zeros(ctx.global_idx.size)
    value[valid] = a[i] * b[i]
    partials[: ctx.gridDim_x] = block_reduce_sum(value, ctx.blockDim_x)


def cuda_copy(ctx, total, dst, src):
    idx = ctx.global_idx
    i = idx[idx < total]
    dst[i] = src[i]


def cuda_finalise(ctx, n, pitch, h, nx, energy, u, density):
    _, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    energy[i] = u[i] / density[i]


def cuda_summary_term(ctx, n, pitch, h, nx, mode, cell_volume, density, energy, u, partials):
    valid, i, _, _ = _interior_idx(ctx, n, pitch, h, nx)
    value = np.zeros(ctx.global_idx.size)
    if mode == 0:
        value[valid] = cell_volume
    elif mode == 1:
        value[valid] = cell_volume * density[i]
    elif mode == 2:
        value[valid] = cell_volume * density[i] * energy[i]
    else:
        value[valid] = cell_volume * u[i]
    partials[: ctx.gridDim_x] = block_reduce_sum(value, ctx.blockDim_x)


# --------------------------------------------------------------------- #
# the port
# --------------------------------------------------------------------- #
class CUDAPort(Port):
    """TeaLeaf as CUDA kernels over a 1-D grid of 1-D blocks.

    Fusable: adjacent elementwise bodies become one launch over the same
    1-D grid, the standard CUDA megakernel move.
    """

    model_name = "cuda"
    supports_fusion = True

    def __init__(
        self,
        grid: Grid2D,
        trace: Trace | None = None,
        block_size: int = BLOCK_SIZE,
    ) -> None:
        super().__init__(grid, trace)
        if block_size & (block_size - 1):
            raise ModelError(f"block size must be a power of two, got {block_size}")
        self.rt = CudaRuntime(self.trace)
        self._pitch = grid.nx + 2 * grid.halo
        self._rows = grid.ny + 2 * grid.halo
        self._n = grid.cells
        self.block = Dim3(block_size)
        self.grid_dim = Dim3(blocks_for(self._n, block_size))
        words = self._pitch * self._rows
        self.dev: dict[str, DeviceAllocation] = {
            name: self.rt.malloc(words, name) for name in F.FIELD_ORDER
        }
        self._partials = self.rt.malloc(self.grid_dim.x, "reduce_partials")
        self._partials_host = np.zeros(self.grid_dim.x)
        self._rx = 0.0
        self._ry = 0.0

    # ------------------------------------------------------------------ #
    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        if density.shape != self.grid.shape:
            raise ModelError(
                f"state shape {density.shape} != grid shape {self.grid.shape}"
            )
        self.rt.memcpy(self.dev[F.DENSITY], density, MemcpyKind.HOST_TO_DEVICE)
        self.rt.memcpy(self.dev[F.ENERGY0], energy0, MemcpyKind.HOST_TO_DEVICE)
        self._launch("generate_chunk")
        self._mark_dirty(F.FIELD_ORDER)

    def read_field(self, name: str) -> np.ndarray:
        mirror = self._mirror_clean(name)
        if mirror is not None:
            return mirror.copy()
        host = np.zeros(self.grid.shape)
        self.rt.memcpy(host, self.dev[name], MemcpyKind.DEVICE_TO_HOST)
        self._mirror_store(name, host)
        return host

    def write_field(self, name: str, values: np.ndarray) -> None:
        self.rt.memcpy(self.dev[name], values, MemcpyKind.HOST_TO_DEVICE)
        self._mark_dirty((name,))

    def _device_array(self, name: str) -> np.ndarray:
        return self.dev[name].data.reshape(self._rows, self._pitch)

    # ------------------------------------------------------------------ #
    def _geo(self) -> tuple[int, int, int, int]:
        return self._n, self._pitch, self.h, self.grid.nx

    def _run(self, kernel, *args) -> None:
        launch(kernel, self.grid_dim, self.block, *self._geo(), *args)

    def _run_reduce(self, kernel, *args) -> float:
        launch(
            kernel, self.grid_dim, self.block, *self._geo(), *args,
            self._partials.data,
        )
        self.trace.reduction_pass(f"block_reduce:{kernel.__name__}", self.grid_dim.x * 8)
        if self._residency_enabled:
            # Residency mode pins the partials buffer in host-mapped
            # (zero-copy) memory, so the final combine reads the block
            # partials in place — no per-reduction D2H transfer.  This
            # was the residency bug: every solver iteration's reductions
            # re-counted a device->host copy whether or not tracking was
            # on, burying the field-transfer savings under ~250
            # partials readbacks per step.  Values are identical either
            # way; only the redundant copy (and its trace event) goes.
            host = self._partials.data
        else:
            self.rt.memcpy(
                self._partials_host, self._partials, MemcpyKind.DEVICE_TO_HOST
            )
            host = self._partials_host
        # Canonical host-side combine of the block partials (the in-block
        # tree already equals the canonical chunk stage).
        return combine_partials(host)

    def _d(self, name: str) -> np.ndarray:
        return self.dev[name].data

    # ------------------------------------------------------------------ #
    def _k_set_field(self) -> None:
        self._run(cuda_set_field, self._d(F.ENERGY0), self._d(F.ENERGY1))

    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        g = self.grid
        self._rx = dt / (g.dx * g.dx)
        self._ry = dt / (g.dy * g.dy)
        self._run(
            cuda_tea_leaf_init,
            self._rx,
            self._ry,
            1 if coefficient == "recip_conductivity" else 0,
            self._d(F.DENSITY),
            self._d(F.ENERGY1),
            self._d(F.U),
            self._d(F.U0),
            self._d(F.KX),
            self._d(F.KY),
        )

    def _k_tea_leaf_residual(self) -> None:
        self._run(
            cuda_residual, self._d(F.R), self._d(F.U0), self._d(F.U),
            self._d(F.KX), self._d(F.KY),
        )

    def _k_cg_init(self) -> float:
        return self._run_reduce(
            cuda_cg_init,
            self._d(F.U), self._d(F.U0), self._d(F.W), self._d(F.R), self._d(F.P),
            self._d(F.KX), self._d(F.KY),
        )

    def _k_cg_calc_w(self) -> float:
        return self._run_reduce(
            cuda_cg_calc_w, self._d(F.P), self._d(F.W), self._d(F.KX), self._d(F.KY)
        )

    def _k_cg_calc_ur(self, alpha: float) -> float:
        return self._run_reduce(
            cuda_cg_calc_ur, alpha,
            self._d(F.U), self._d(F.R), self._d(F.P), self._d(F.W),
        )

    def _k_cg_calc_p(self, beta: float) -> None:
        self._run(cuda_axpy, beta, self._d(F.P), self._d(F.R))

    def _k_ppcg_calc_p(self, beta: float) -> None:
        self._run(cuda_axpy, beta, self._d(F.P), self._d(F.Z))

    def _k_cheby_init(self, theta: float) -> None:
        self._run(
            cuda_cheby_init, theta,
            self._d(F.U), self._d(F.U0), self._d(F.R), self._d(F.SD),
            self._d(F.KX), self._d(F.KY),
        )
        self._run(cuda_add, self._d(F.U), self._d(F.SD))

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        self._run(cuda_cheby_calc_r, self._d(F.R), self._d(F.SD), self._d(F.KX), self._d(F.KY))
        self._run(cuda_cheby_calc_sd_u, alpha, beta, self._d(F.SD), self._d(F.R), self._d(F.U))

    def _k_ppcg_precon_init(self, theta: float) -> None:
        self._run(
            cuda_ppcg_precon_init, theta,
            self._d(F.W), self._d(F.SD), self._d(F.Z), self._d(F.R),
        )

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        self._run(cuda_cheby_calc_r, self._d(F.W), self._d(F.SD), self._d(F.KX), self._d(F.KY))
        self._run(cuda_cheby_calc_sd_u, alpha, beta, self._d(F.SD), self._d(F.W), self._d(F.Z))

    def _k_cg_precon_jacobi(self) -> None:
        self._run(cuda_cg_precon, self._d(F.Z), self._d(F.R), self._d(F.KX), self._d(F.KY))

    def _k_jacobi_iterate(self) -> float:
        return self._run_reduce(
            cuda_jacobi,
            self._d(F.U), self._d(F.R), self._d(F.U0), self._d(F.KX), self._d(F.KY),
        )

    def _k_norm2_field(self, name: str) -> float:
        return self._run_reduce(cuda_dot, self._d(name), self._d(name))

    def _k_dot_fields(self, a: str, b: str) -> float:
        return self._run_reduce(cuda_dot, self._d(a), self._d(b))

    def _k_copy_field(self, src: str, dst: str) -> None:
        self.rt.memcpy(self.dev[dst], self.dev[src], MemcpyKind.DEVICE_TO_DEVICE)

    def _k_tea_leaf_finalise(self) -> None:
        self._run(cuda_finalise, self._d(F.ENERGY1), self._d(F.U), self._d(F.DENSITY))

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        terms = tuple(
            self._run_reduce(
                cuda_summary_term, mode, self.grid.cell_volume,
                self._d(F.DENSITY), self._d(F.ENERGY1), self._d(F.U),
            )
            for mode in range(4)
        )
        return terms  # type: ignore[return-value]


class CUDAModel(ProgrammingModel):
    capabilities = Capabilities(
        name="cuda",
        display_name="CUDA",
        directive_based=False,
        language="C/C++ (kernels)",
        support={
            DeviceKind.CPU: Support.NO,
            DeviceKind.GPU: Support.YES,
            DeviceKind.KNC: Support.NO,
        },
        cross_platform=False,
        summary="NVIDIA's mature platform; the device-tuned GPU lower bound.",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> CUDAPort:
        return CUDAPort(grid, trace)


register_model(CUDAModel())
