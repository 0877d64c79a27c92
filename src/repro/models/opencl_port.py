"""The OpenCL TeaLeaf port (§2.5, §3.6 of the paper).

The most boilerplate-heavy port, exactly as the paper found: platform and
device discovery, context and command-queue creation, buffer allocation,
program build, kernel-object creation, and positional ``set_arg`` calls
before *every* launch.  Kernels are written per-work-item over a flattened
1-D ND-range with work-group overspill guards, and every reduction is the
manually-written work-group-tree + host-combine pattern OpenCL 1.x forced
on the authors.

The kernels in this module are the "program source"; they take the global
work-item id batch plus their bound arguments, mirroring the .cl files of
the reference port.
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
from repro.models.opencl.platform import DeviceType, find_device
from repro.models.opencl.program import Program
from repro.models.opencl.runtime import Buffer, CommandQueue, Context, MemFlags
from repro.models.reduction import combine_partials
from repro.models.stencil import decode_interior, flat_diag, flat_matvec
from repro.models.tracing import Trace, TransferDirection
from repro.util.errors import ModelError


# --------------------------------------------------------------------- #
# kernel sources (the .cl file)
# --------------------------------------------------------------------- #
def _decode(gid, n, pitch, h, nx):
    """Overspill guard + interior flat-index computation."""
    return decode_interior(gid, n, pitch, h, nx)


def _matvec(i, v, kx, ky, pitch):
    return flat_matvec(i, v, kx, ky, 1, pitch)


def k_set_field(gid, n, pitch, h, nx, energy0, energy1):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    energy1[i] = energy0[i]


def k_tea_leaf_init(gid, n, pitch, h, nx, rx, ry, recip, density, energy, u, u0, kx, ky):
    _, i, j, k = _decode(gid, n, pitch, h, nx)
    u[i] = energy[i] * density[i]
    u0[i] = u[i]
    fx = i[j > h]  # x-faces, west wall excluded (zero-flux)
    wc = 1.0 / density[fx] if recip else density[fx]
    wx = 1.0 / density[fx - 1] if recip else density[fx - 1]
    kx[fx] = rx * (wx + wc) / (2.0 * wx * wc)
    fy = i[k > h]
    wc = 1.0 / density[fy] if recip else density[fy]
    wy = 1.0 / density[fy - pitch] if recip else density[fy - pitch]
    ky[fy] = ry * (wy + wc) / (2.0 * wy * wc)


def k_residual(gid, n, pitch, h, nx, r, u0, u, kx, ky):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    r[i] = u0[i] - _matvec(i, u, kx, ky, pitch)


def k_cg_init(gid, n, pitch, h, nx, u, u0, w, r, p, kx, ky):
    valid, i, _, _ = _decode(gid, n, pitch, h, nx)
    w[i] = _matvec(i, u, kx, ky, pitch)
    r[i] = u0[i] - w[i]
    p[i] = r[i]
    contrib = np.zeros(gid.size)
    contrib[valid] = r[i] * r[i]
    return contrib


def k_cg_calc_w(gid, n, pitch, h, nx, p, w, kx, ky):
    valid, i, _, _ = _decode(gid, n, pitch, h, nx)
    w[i] = _matvec(i, p, kx, ky, pitch)
    contrib = np.zeros(gid.size)
    contrib[valid] = p[i] * w[i]
    return contrib


def k_cg_calc_ur(gid, n, pitch, h, nx, alpha, u, r, p, w):
    valid, i, _, _ = _decode(gid, n, pitch, h, nx)
    u[i] += alpha * p[i]
    r[i] -= alpha * w[i]
    contrib = np.zeros(gid.size)
    contrib[valid] = r[i] * r[i]
    return contrib


def k_axpy(gid, n, pitch, h, nx, scale, dst, src):
    """dst = src + scale * dst (cg_calc_p and the PPCG variant)."""
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    dst[i] = src[i] + scale * dst[i]


def k_cheby_init(gid, n, pitch, h, nx, theta, u, u0, r, sd, kx, ky):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    r[i] = u0[i] - _matvec(i, u, kx, ky, pitch)
    sd[i] = r[i] / theta


def k_cheby_calc_r(gid, n, pitch, h, nx, resid, sd, kx, ky):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    resid[i] -= _matvec(i, sd, kx, ky, pitch)


def k_cheby_calc_sd_u(gid, n, pitch, h, nx, alpha, beta, sd, resid, accum):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    sd[i] = alpha * sd[i] + beta * resid[i]
    accum[i] += sd[i]


def k_add(gid, n, pitch, h, nx, dst, src):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    dst[i] += src[i]


def k_ppcg_precon_init(gid, n, pitch, h, nx, theta, w, sd, z, r):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    w[i] = r[i]
    sd[i] = w[i] / theta
    z[i] = sd[i]


def k_cg_precon(gid, n, pitch, h, nx, z, r, kx, ky):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    z[i] = r[i] / flat_diag(i, kx, ky, 1, pitch)


def k_jacobi(gid, n, pitch, h, nx, u, un, u0, kx, ky):
    valid, i, _, _ = _decode(gid, n, pitch, h, nx)
    diag = flat_diag(i, kx, ky, 1, pitch)
    u[i] = (
        u0[i]
        + kx[i + 1] * un[i + 1]
        + kx[i] * un[i - 1]
        + ky[i + pitch] * un[i + pitch]
        + ky[i] * un[i - pitch]
    ) / diag
    contrib = np.zeros(gid.size)
    contrib[valid] = np.abs(u[i] - un[i])
    return contrib


def k_dot(gid, n, pitch, h, nx, a, b):
    valid, i, _, _ = _decode(gid, n, pitch, h, nx)
    contrib = np.zeros(gid.size)
    contrib[valid] = a[i] * b[i]
    return contrib


def k_copy(gid, total, dst, src):
    """Whole-allocation copy (halos included)."""
    i = gid[gid < total]
    dst[i] = src[i]


def k_finalise(gid, n, pitch, h, nx, energy, u, density):
    _, i, _, _ = _decode(gid, n, pitch, h, nx)
    energy[i] = u[i] / density[i]


def k_summary_term(gid, n, pitch, h, nx, mode, cell_volume, density, energy, u):
    """One term of the 4-way field summary (mode 0..3)."""
    valid, i, _, _ = _decode(gid, n, pitch, h, nx)
    contrib = np.zeros(gid.size)
    if mode == 0:
        contrib[valid] = cell_volume
    elif mode == 1:
        contrib[valid] = cell_volume * density[i]
    elif mode == 2:
        contrib[valid] = cell_volume * density[i] * energy[i]
    else:
        contrib[valid] = cell_volume * u[i]
    return contrib


KERNEL_SOURCES = {
    "set_field": k_set_field,
    "tea_leaf_init": k_tea_leaf_init,
    "residual": k_residual,
    "cg_init": k_cg_init,
    "cg_calc_w": k_cg_calc_w,
    "cg_calc_ur": k_cg_calc_ur,
    "axpy": k_axpy,
    "cheby_init": k_cheby_init,
    "cheby_calc_r": k_cheby_calc_r,
    "cheby_calc_sd_u": k_cheby_calc_sd_u,
    "add": k_add,
    "ppcg_precon_init": k_ppcg_precon_init,
    "cg_precon": k_cg_precon,
    "jacobi": k_jacobi,
    "dot": k_dot,
    "copy": k_copy,
    "finalise": k_finalise,
    "summary_term": k_summary_term,
}

#: Work-group size used for every launch (the port tunes one size per
#: device in reality; 128 is the reference GPU choice).
LOCAL_SIZE = 128


class OpenCLPort(Port):
    """TeaLeaf through the full OpenCL host API.

    Fusable: adjacent elementwise bodies enqueue as one ND-range over the
    same flattened index space.
    """

    model_name = "opencl"
    supports_fusion = True

    def __init__(
        self,
        grid: Grid2D,
        trace: Trace | None = None,
        device_type: DeviceType = DeviceType.GPU,
        local_size: int = LOCAL_SIZE,
        scalar_dispatch: bool = False,
    ) -> None:
        super().__init__(grid, trace)
        self.scalar_dispatch = scalar_dispatch
        self._pitch = grid.nx + 2 * grid.halo
        self._rows = grid.ny + 2 * grid.halo
        self._n = grid.cells
        self.local_size = local_size
        # 1. platform & device discovery
        self.platform, self.device = find_device(device_type)
        # 2. context + in-order command queue
        self.context = Context([self.device], self.trace)
        self.queue = CommandQueue(self.context, self.device)
        # 3. program build + kernel objects
        self.program = Program(self.context, KERNEL_SOURCES).build("-cl-mad-enable")
        self.kernels = {
            name: self.program.create_kernel(name) for name in KERNEL_SOURCES
        }
        # 4. buffer allocation (flat, padded)
        words = self._pitch * self._rows
        self.buffers: dict[str, Buffer] = {
            name: Buffer(self.context, MemFlags.READ_WRITE, size=words * 8)
            for name in F.FIELD_ORDER
        }
        self._global = self._round_up(self._n)
        self._partials = Buffer(
            self.context, MemFlags.READ_WRITE, size=(self._global // local_size) * 8
        )
        self._partials_host = np.zeros(self._global // local_size)
        self._rx = 0.0
        self._ry = 0.0

    def _round_up(self, n: int) -> int:
        ls = self.local_size
        return ((n + ls - 1) // ls) * ls

    # ------------------------------------------------------------------ #
    # data interface
    # ------------------------------------------------------------------ #
    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        if density.shape != self.grid.shape:
            raise ModelError(
                f"state shape {density.shape} != grid shape {self.grid.shape}"
            )
        self.queue.enqueue_write_buffer(self.buffers[F.DENSITY], density)
        self.queue.enqueue_write_buffer(self.buffers[F.ENERGY0], energy0)
        self._launch("generate_chunk")
        self._mark_dirty(F.FIELD_ORDER)

    def read_field(self, name: str) -> np.ndarray:
        mirror = self._mirror_clean(name)
        if mirror is not None:
            return mirror.copy()
        host = np.zeros(self.grid.shape)
        self.queue.enqueue_read_buffer(self.buffers[name], host)
        self._mirror_store(name, host)
        return host

    def write_field(self, name: str, values: np.ndarray) -> None:
        self.queue.enqueue_write_buffer(self.buffers[name], values)
        self._mark_dirty((name,))

    def _device_array(self, name: str) -> np.ndarray:
        return self.buffers[name].device_view.reshape(self._rows, self._pitch)

    # ------------------------------------------------------------------ #
    # launch helpers (the set_arg boilerplate)
    # ------------------------------------------------------------------ #
    def _geometry_args(self, kernel) -> int:
        kernel.set_arg(0, self._n)
        kernel.set_arg(1, self._pitch)
        kernel.set_arg(2, self.h)
        kernel.set_arg(3, self.grid.nx)
        return 4

    def _run(self, name: str, *args) -> None:
        kernel = self.kernels[name]
        base = self._geometry_args(kernel)
        for offset, value in enumerate(args):
            kernel.set_arg(base + offset, value)
        self.queue.enqueue_nd_range_kernel(
            kernel, self._global, self.local_size, scalar=self.scalar_dispatch
        )

    def _run_reduce(self, name: str, *args) -> float:
        kernel = self.kernels[name]
        base = self._geometry_args(kernel)
        for offset, value in enumerate(args):
            kernel.set_arg(base + offset, value)
        groups = self.queue.enqueue_reduction_kernel(
            kernel,
            self._global,
            self.local_size,
            self._partials,
            scalar=self.scalar_dispatch,
        )
        # Host-side final combine of the work-group partials.
        host = self._partials_host[:groups]
        host[...] = self._partials.device_view[:groups]
        if not self._residency_enabled:
            # Residency mode maps the partials buffer host-visible
            # (CL_MEM_ALLOC_HOST_PTR), so the combine reads the group
            # partials in place instead of enqueueing a per-reduction
            # D2H transfer — previously every iteration's reductions
            # counted one, swamping the field-residency savings.
            self.trace.transfer("read_partials", groups * 8, TransferDirection.D2H)
        # Canonical host-side combine: the work-group tree already equals
        # the canonical chunk stage for the default local size.
        return combine_partials(host)

    # ------------------------------------------------------------------ #
    # the kernel set
    # ------------------------------------------------------------------ #
    def _k_set_field(self) -> None:
        self._run("set_field", self.buffers[F.ENERGY0], self.buffers[F.ENERGY1])

    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        g = self.grid
        self._rx = dt / (g.dx * g.dx)
        self._ry = dt / (g.dy * g.dy)
        b = self.buffers
        self._run(
            "tea_leaf_init",
            self._rx,
            self._ry,
            1 if coefficient == "recip_conductivity" else 0,
            b[F.DENSITY],
            b[F.ENERGY1],
            b[F.U],
            b[F.U0],
            b[F.KX],
            b[F.KY],
        )

    def _k_tea_leaf_residual(self) -> None:
        b = self.buffers
        self._run("residual", b[F.R], b[F.U0], b[F.U], b[F.KX], b[F.KY])

    def _k_cg_init(self) -> float:
        b = self.buffers
        return self._run_reduce(
            "cg_init", b[F.U], b[F.U0], b[F.W], b[F.R], b[F.P], b[F.KX], b[F.KY]
        )

    def _k_cg_calc_w(self) -> float:
        b = self.buffers
        return self._run_reduce("cg_calc_w", b[F.P], b[F.W], b[F.KX], b[F.KY])

    def _k_cg_calc_ur(self, alpha: float) -> float:
        b = self.buffers
        return self._run_reduce("cg_calc_ur", alpha, b[F.U], b[F.R], b[F.P], b[F.W])

    def _k_cg_calc_p(self, beta: float) -> None:
        self._run("axpy", beta, self.buffers[F.P], self.buffers[F.R])

    def _k_ppcg_calc_p(self, beta: float) -> None:
        self._run("axpy", beta, self.buffers[F.P], self.buffers[F.Z])

    def _k_cheby_init(self, theta: float) -> None:
        b = self.buffers
        self._run("cheby_init", theta, b[F.U], b[F.U0], b[F.R], b[F.SD], b[F.KX], b[F.KY])
        self._run("add", b[F.U], b[F.SD])

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        b = self.buffers
        self._run("cheby_calc_r", b[F.R], b[F.SD], b[F.KX], b[F.KY])
        self._run("cheby_calc_sd_u", alpha, beta, b[F.SD], b[F.R], b[F.U])

    def _k_ppcg_precon_init(self, theta: float) -> None:
        b = self.buffers
        self._run("ppcg_precon_init", theta, b[F.W], b[F.SD], b[F.Z], b[F.R])

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        b = self.buffers
        self._run("cheby_calc_r", b[F.W], b[F.SD], b[F.KX], b[F.KY])
        self._run("cheby_calc_sd_u", alpha, beta, b[F.SD], b[F.W], b[F.Z])

    def _k_cg_precon_jacobi(self) -> None:
        b = self.buffers
        self._run("cg_precon", b[F.Z], b[F.R], b[F.KX], b[F.KY])

    def _k_jacobi_iterate(self) -> float:
        b = self.buffers
        return self._run_reduce("jacobi", b[F.U], b[F.R], b[F.U0], b[F.KX], b[F.KY])

    def _k_norm2_field(self, name: str) -> float:
        return self._run_reduce("dot", self.buffers[name], self.buffers[name])

    def _k_dot_fields(self, a: str, b: str) -> float:
        return self._run_reduce("dot", self.buffers[a], self.buffers[b])

    def _k_copy_field(self, src: str, dst: str) -> None:
        kernel = self.kernels["copy"]
        total = self._pitch * self._rows
        kernel.set_arg(0, total)
        kernel.set_arg(1, self.buffers[dst])
        kernel.set_arg(2, self.buffers[src])
        self.queue.enqueue_nd_range_kernel(
            kernel, self._round_up(total), self.local_size, scalar=False
        )

    def _k_tea_leaf_finalise(self) -> None:
        b = self.buffers
        self._run("finalise", b[F.ENERGY1], b[F.U], b[F.DENSITY])

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        b = self.buffers
        terms = []
        for mode in range(4):
            terms.append(
                self._run_reduce(
                    "summary_term",
                    mode,
                    self.grid.cell_volume,
                    b[F.DENSITY],
                    b[F.ENERGY1],
                    b[F.U],
                )
            )
        return tuple(terms)  # type: ignore[return-value]


class OpenCLModel(ProgrammingModel):
    capabilities = Capabilities(
        name="opencl",
        display_name="OpenCL",
        directive_based=False,
        language="C (kernels) / any (host)",
        support={
            DeviceKind.CPU: Support.YES,
            DeviceKind.GPU: Support.YES,
            DeviceKind.KNC: Support.OFFLOAD,
        },
        cross_platform=True,
        summary="The open low-level standard; the most functionally portable "
        "model in the study (also AMD GPUs, FPGAs).",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> OpenCLPort:
        return OpenCLPort(grid, trace)


register_model(OpenCLModel())
