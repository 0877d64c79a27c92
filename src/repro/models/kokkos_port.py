"""The Kokkos TeaLeaf ports: flat functors and hierarchical parallelism.

Two registered models, matching the paper:

``kokkos``
    Every data-affecting function is a functor over a *flattened* iteration
    space; because Kokkos "flattens the iteration space and provides a
    single index parameter, it was necessary to reform each cell's spatial
    location" and the original port "ignored the halo cells using a
    conditional statement within the functor body" (§3.3).  That loop-body
    conditional is exactly what this port does — and what the KNC compiled
    badly, motivating the HP variant.

``kokkos-hp``
    The Sandia-proposed hierarchical-parallelism rewrite (Figure 7):
    a ``TeamPolicy`` league over interior rows with a nested
    ``TeamThreadRange`` over columns, re-encoding the halo exclusion into
    the iteration space so no conditional is needed; reductions gain the
    "critically add the results from each team" step.

Fields are device-space :class:`~repro.models.kokkos.core.View` objects;
all host interaction goes through mirror views and traced ``deep_copy``
calls, "necessarily exposing some memory management complexity" (§3.3).
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
from repro.models.kokkos.core import (
    Layout,
    MemorySpace,
    View,
    create_mirror_view,
    deep_copy,
)
from repro.models.kokkos.parallel import (
    MultiSum,
    RangePolicy,
    Sum,
    TeamMember,
    TeamPolicy,
    parallel_for,
    parallel_reduce,
)
from repro.models.stencil import flat_diag, flat_matvec, row_diag, row_matvec
from repro.models.tracing import Trace
from repro.util.errors import ModelError


class _Geometry:
    """Layout-polymorphic flat-index arithmetic shared by all functors.

    This is the Kokkos selling point the paper highlights (§2.4): the same
    functor source works for LayoutRight (row-major, CPU-friendly) and
    LayoutLeft (column-major, the CUDA coalescing default) because
    neighbour offsets are derived from the layout's strides rather than
    hard-coded.  ``east`` is the +x neighbour offset and ``north`` the +y
    neighbour offset in the flattened (layout-ordered) index space.
    """

    def __init__(self, grid: Grid2D, layout: Layout = Layout.RIGHT) -> None:
        self.h = grid.halo
        self.nx = grid.nx
        self.ny = grid.ny
        self.NX = grid.nx + 2 * grid.halo  # padded row pitch
        self.NY = grid.ny + 2 * grid.halo
        self.layout = layout
        if layout is Layout.RIGHT:
            self.east, self.north = 1, self.NX
        else:  # LayoutLeft: k strides fastest
            self.east, self.north = self.NY, 1

    def decode(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat (layout-ordered) index -> (row k, column j)."""
        if self.layout is Layout.RIGHT:
            return idx // self.NX, idx % self.NX
        return idx % self.NY, idx // self.NY

    def interior_mask(self, idx: np.ndarray) -> np.ndarray:
        """The loop-body halo-exclusion conditional of the flat port."""
        k, j = self.decode(idx)
        h = self.h
        return (k >= h) & (k < h + self.ny) & (j >= h) & (j < h + self.nx)

    def interior_select(self) -> np.ndarray:
        """Flat indices of the interior cells in canonical row-major order.

        Reduction functors return full-launch contribution arrays with
        zeros at halo positions; gathering through this index list hands
        the deterministic finalize the interior contributions in the same
        order as every other port, whatever the layout.
        """
        h = self.h
        k, j = np.meshgrid(
            np.arange(h, h + self.ny), np.arange(h, h + self.nx), indexing="ij"
        )
        if self.layout is Layout.RIGHT:
            return (k * self.NX + j).ravel()
        return (j * self.NY + k).ravel()


# --------------------------------------------------------------------- #
# flat functors (conditional halo exclusion)
# --------------------------------------------------------------------- #
class _Functor:
    """Base: captures the Views it needs as 'local variables' (§3.3)."""

    def __init__(self, geo: _Geometry) -> None:
        self.geo = geo


class TeaLeafInitFunctor(_Functor):
    """u = u0 = energy*density; harmonic face coefficients with rx/ry."""

    def __init__(self, geo, density, energy, u, u0, kx, ky, rx, ry, recip) -> None:
        super().__init__(geo)
        self.density = density.flat
        self.energy = energy.flat
        self.u = u.flat
        self.u0 = u0.flat
        self.kx = kx.flat
        self.ky = ky.flat
        self.rx = rx
        self.ry = ry
        self.recip = recip

    def _w(self, values: np.ndarray) -> np.ndarray:
        return 1.0 / values if self.recip else values

    def __call__(self, idx: np.ndarray) -> None:
        geo = self.geo
        inside = geo.interior_mask(idx)
        i = idx[inside]
        self.u[i] = self.energy[i] * self.density[i]
        self.u0[i] = self.u[i]

        k, j = geo.decode(idx)
        h = geo.h
        # Interior x-faces exclude the west wall (j == h): zero-flux boundary.
        fx = idx[inside & (j > h)]
        wc = self._w(self.density[fx])
        wx = self._w(self.density[fx - geo.east])
        self.kx[fx] = self.rx * (wx + wc) / (2.0 * wx * wc)
        fy = idx[inside & (k > h)]
        wc = self._w(self.density[fy])
        wy = self._w(self.density[fy - geo.north])
        self.ky[fy] = self.ry * (wy + wc) / (2.0 * wy * wc)


class _MatVecMixin:
    """A v at flat interior indices i, with layout-derived offsets."""

    @staticmethod
    def matvec(i: np.ndarray, v, kx, ky, e: int, n: int) -> np.ndarray:
        return flat_matvec(i, v, kx, ky, e, n)


class CGInitFunctor(_Functor, _MatVecMixin):
    """w = A u; r = u0 - w; p = r; contributes rro = r.r."""

    def __init__(self, geo, u, u0, w, r, p, kx, ky) -> None:
        super().__init__(geo)
        self.u, self.u0 = u.flat, u0.flat
        self.w, self.r, self.p = w.flat, r.flat, p.flat
        self.kx, self.ky = kx.flat, ky.flat

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        inside = self.geo.interior_mask(idx)
        i = idx[inside]
        self.w[i] = self.matvec(i, self.u, self.kx, self.ky, self.geo.east, self.geo.north)
        self.r[i] = self.u0[i] - self.w[i]
        self.p[i] = self.r[i]
        contrib = np.zeros(idx.size)
        contrib[inside] = self.r[i] * self.r[i]
        return contrib


class CGCalcWFunctor(_Functor, _MatVecMixin):
    """w = A p; contributes pw = p.w."""

    def __init__(self, geo, p, w, kx, ky) -> None:
        super().__init__(geo)
        self.p, self.w = p.flat, w.flat
        self.kx, self.ky = kx.flat, ky.flat

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        inside = self.geo.interior_mask(idx)
        i = idx[inside]
        self.w[i] = self.matvec(i, self.p, self.kx, self.ky, self.geo.east, self.geo.north)
        contrib = np.zeros(idx.size)
        contrib[inside] = self.p[i] * self.w[i]
        return contrib


class CGCalcURFunctor(_Functor):
    """u += alpha p; r -= alpha w; contributes rrn."""

    def __init__(self, geo, u, r, p, w, alpha) -> None:
        super().__init__(geo)
        self.u, self.r, self.p, self.w = u.flat, r.flat, p.flat, w.flat
        self.alpha = alpha

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        inside = self.geo.interior_mask(idx)
        i = idx[inside]
        self.u[i] += self.alpha * self.p[i]
        self.r[i] -= self.alpha * self.w[i]
        contrib = np.zeros(idx.size)
        contrib[inside] = self.r[i] * self.r[i]
        return contrib


class AxpyFunctor(_Functor):
    """dst = src + scale * dst (cg_calc_p / ppcg_calc_p)."""

    def __init__(self, geo, dst, src, scale) -> None:
        super().__init__(geo)
        self.dst, self.src = dst.flat, src.flat
        self.scale = scale

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        self.dst[i] = self.src[i] + self.scale * self.dst[i]


class ChebyInitFunctor(_Functor, _MatVecMixin):
    """r = u0 - A u; sd = r/theta; u += sd."""

    def __init__(self, geo, u, u0, r, sd, kx, ky, theta) -> None:
        super().__init__(geo)
        self.u, self.u0, self.r, self.sd = u.flat, u0.flat, r.flat, sd.flat
        self.kx, self.ky = kx.flat, ky.flat
        self.theta = theta

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        au = self.matvec(i, self.u, self.kx, self.ky, self.geo.east, self.geo.north)
        self.r[i] = self.u0[i] - au
        self.sd[i] = self.r[i] / self.theta
        self.u[i] += self.sd[i]


class ChebyIterateRFunctor(_Functor, _MatVecMixin):
    """Sweep 1: r -= A sd."""

    def __init__(self, geo, r, sd, kx, ky) -> None:
        super().__init__(geo)
        self.r, self.sd = r.flat, sd.flat
        self.kx, self.ky = kx.flat, ky.flat

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        self.r[i] -= self.matvec(i, self.sd, self.kx, self.ky, self.geo.east, self.geo.north)


class ChebyIterateSDFunctor(_Functor):
    """Sweep 2: sd = alpha sd + beta src; accum += sd."""

    def __init__(self, geo, sd, src, accum, alpha, beta) -> None:
        super().__init__(geo)
        self.sd, self.src, self.accum = sd.flat, src.flat, accum.flat
        self.alpha, self.beta = alpha, beta

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        self.sd[i] = self.alpha * self.sd[i] + self.beta * self.src[i]
        self.accum[i] += self.sd[i]


class PPCGPreconInitFunctor(_Functor):
    """w = r; sd = w/theta; z = sd."""

    def __init__(self, geo, w, sd, z, r, theta) -> None:
        super().__init__(geo)
        self.w, self.sd, self.z, self.r = w.flat, sd.flat, z.flat, r.flat
        self.theta = theta

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        self.w[i] = self.r[i]
        self.sd[i] = self.w[i] / self.theta
        self.z[i] = self.sd[i]


class ResidualFunctor(_Functor, _MatVecMixin):
    """r = u0 - A u."""

    def __init__(self, geo, r, u0, u, kx, ky) -> None:
        super().__init__(geo)
        self.r, self.u0, self.u = r.flat, u0.flat, u.flat
        self.kx, self.ky = kx.flat, ky.flat

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        self.r[i] = self.u0[i] - self.matvec(i, self.u, self.kx, self.ky, self.geo.east, self.geo.north)


class CGPreconFunctor(_Functor):
    """z = r / diag(A) (the jac_diag preconditioner)."""

    def __init__(self, geo, z, r, kx, ky) -> None:
        super().__init__(geo)
        self.z, self.r = z.flat, r.flat
        self.kx, self.ky = kx.flat, ky.flat

    def __call__(self, idx: np.ndarray) -> None:
        geo = self.geo
        i = idx[geo.interior_mask(idx)]
        self.z[i] = self.r[i] / flat_diag(i, self.kx, self.ky, geo.east, geo.north)


class JacobiFunctor(_Functor):
    """u from the previous iterate un; contributes sum |u - un|."""

    def __init__(self, geo, u, un, u0, kx, ky) -> None:
        super().__init__(geo)
        self.u, self.un, self.u0 = u.flat, un.flat, u0.flat
        self.kx, self.ky = kx.flat, ky.flat

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        geo = self.geo
        inside = geo.interior_mask(idx)
        i = idx[inside]
        e, n = geo.east, geo.north
        diag = flat_diag(i, self.kx, self.ky, e, n)
        self.u[i] = (
            self.u0[i]
            + self.kx[i + e] * self.un[i + e]
            + self.kx[i] * self.un[i - e]
            + self.ky[i + n] * self.un[i + n]
            + self.ky[i] * self.un[i - n]
        ) / diag
        contrib = np.zeros(idx.size)
        contrib[inside] = np.abs(self.u[i] - self.un[i])
        return contrib


class DotFunctor(_Functor):
    def __init__(self, geo, a, b) -> None:
        super().__init__(geo)
        self.a, self.b = a.flat, b.flat

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        inside = self.geo.interior_mask(idx)
        i = idx[inside]
        contrib = np.zeros(idx.size)
        contrib[inside] = self.a[i] * self.b[i]
        return contrib


class FinaliseFunctor(_Functor):
    def __init__(self, geo, energy, u, density) -> None:
        super().__init__(geo)
        self.energy, self.u, self.density = energy.flat, u.flat, density.flat

    def __call__(self, idx: np.ndarray) -> None:
        i = idx[self.geo.interior_mask(idx)]
        self.energy[i] = self.u[i] / self.density[i]


class FieldSummaryFunctor(_Functor):
    """Multi-variable reduction: (volume, mass, ie, temp) contributions."""

    def __init__(self, geo, density, energy, u, cell_volume) -> None:
        super().__init__(geo)
        self.density, self.energy, self.u = density.flat, energy.flat, u.flat
        self.cell_volume = cell_volume

    def __call__(self, idx: np.ndarray):
        inside = self.geo.interior_mask(idx)
        i = idx[inside]
        vol = np.zeros(idx.size)
        mass = np.zeros(idx.size)
        ie = np.zeros(idx.size)
        temp = np.zeros(idx.size)
        vol[inside] = self.cell_volume
        mass[inside] = self.cell_volume * self.density[i]
        ie[inside] = self.cell_volume * self.density[i] * self.energy[i]
        temp[inside] = self.cell_volume * self.u[i]
        return vol, mass, ie, temp


# --------------------------------------------------------------------- #
# the flat Kokkos port
# --------------------------------------------------------------------- #
class KokkosPort(Port):
    """Flat-RangePolicy functor port with loop-body halo conditionals."""

    model_name = "kokkos"

    #: Functor launches are plain parallel dispatches with no implicit
    #: fences between them, so the plan compiler may fuse adjacent ones.
    supports_fusion = True

    def __init__(
        self,
        grid: Grid2D,
        trace: Trace | None = None,
        layout: Layout = Layout.RIGHT,
    ) -> None:
        super().__init__(grid, trace)
        # Layout polymorphism (§2.4 / §8 "adjusting data layouts per
        # device"): the same functors run over LayoutRight (CPU) or
        # LayoutLeft (the CUDA coalescing default) views, with neighbour
        # offsets derived from the layout's strides.
        self.geo = _Geometry(grid, layout)
        self.views: dict[str, View] = {
            name: View(name, grid.shape, layout, MemorySpace.DEVICE)
            for name in F.FIELD_ORDER
        }
        self._policy = RangePolicy(0, self.geo.NX * self.geo.NY)
        select = self.geo.interior_select()
        self._sum = Sum(select=select)
        self._multi_sum = MultiSum(4, select=select)
        self._rx = 0.0
        self._ry = 0.0

    # ------------------------------------------------------------------ #
    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        if density.shape != self.grid.shape:
            raise ModelError(
                f"state shape {density.shape} != grid shape {self.grid.shape}"
            )
        for name, host_values in ((F.DENSITY, density), (F.ENERGY0, energy0)):
            mirror = create_mirror_view(self.views[name])
            mirror.data[...] = host_values
            deep_copy(self.views[name], mirror, self.trace)
        self._launch("generate_chunk")

    def read_field(self, name: str) -> np.ndarray:
        mirror = create_mirror_view(self.views[name])
        deep_copy(mirror, self.views[name], self.trace)
        return mirror.data.copy()

    def write_field(self, name: str, values: np.ndarray) -> None:
        mirror = create_mirror_view(self.views[name])
        mirror.data[...] = values
        deep_copy(self.views[name], mirror, self.trace)

    def _device_array(self, name: str) -> np.ndarray:
        return self.views[name].data

    # ------------------------------------------------------------------ #
    def _k_set_field(self) -> None:
        deep_copy(self.views[F.ENERGY1], self.views[F.ENERGY0])

    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        g = self.grid
        self._rx = dt / (g.dx * g.dx)
        self._ry = dt / (g.dy * g.dy)
        v = self.views
        parallel_for(
            self._policy,
            TeaLeafInitFunctor(
                self.geo, v[F.DENSITY], v[F.ENERGY1], v[F.U], v[F.U0],
                v[F.KX], v[F.KY], self._rx, self._ry,
                coefficient == "recip_conductivity",
            ),
        )

    def _k_tea_leaf_residual(self) -> None:
        v = self.views
        parallel_for(
            self._policy,
            ResidualFunctor(self.geo, v[F.R], v[F.U0], v[F.U], v[F.KX], v[F.KY]),
        )

    def _k_cg_init(self) -> float:
        v = self.views
        return parallel_reduce(
            self._policy,
            CGInitFunctor(
                self.geo, v[F.U], v[F.U0], v[F.W], v[F.R], v[F.P], v[F.KX], v[F.KY]
            ),
            reducer=self._sum,
        )

    def _k_cg_calc_w(self) -> float:
        v = self.views
        return parallel_reduce(
            self._policy,
            CGCalcWFunctor(self.geo, v[F.P], v[F.W], v[F.KX], v[F.KY]),
            reducer=self._sum,
        )

    def _k_cg_calc_ur(self, alpha: float) -> float:
        v = self.views
        return parallel_reduce(
            self._policy,
            CGCalcURFunctor(self.geo, v[F.U], v[F.R], v[F.P], v[F.W], alpha),
            reducer=self._sum,
        )

    def _k_cg_calc_p(self, beta: float) -> None:
        v = self.views
        parallel_for(self._policy, AxpyFunctor(self.geo, v[F.P], v[F.R], beta))

    def _k_ppcg_calc_p(self, beta: float) -> None:
        v = self.views
        parallel_for(self._policy, AxpyFunctor(self.geo, v[F.P], v[F.Z], beta))

    def _k_cheby_init(self, theta: float) -> None:
        v = self.views
        parallel_for(
            self._policy,
            ChebyInitFunctor(
                self.geo, v[F.U], v[F.U0], v[F.R], v[F.SD], v[F.KX], v[F.KY], theta
            ),
        )

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        v = self.views
        parallel_for(
            self._policy,
            ChebyIterateRFunctor(self.geo, v[F.R], v[F.SD], v[F.KX], v[F.KY]),
        )
        parallel_for(
            self._policy,
            ChebyIterateSDFunctor(self.geo, v[F.SD], v[F.R], v[F.U], alpha, beta),
        )

    def _k_ppcg_precon_init(self, theta: float) -> None:
        v = self.views
        parallel_for(
            self._policy,
            PPCGPreconInitFunctor(self.geo, v[F.W], v[F.SD], v[F.Z], v[F.R], theta),
        )

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        v = self.views
        parallel_for(
            self._policy,
            ChebyIterateRFunctor(self.geo, v[F.W], v[F.SD], v[F.KX], v[F.KY]),
        )
        parallel_for(
            self._policy,
            ChebyIterateSDFunctor(self.geo, v[F.SD], v[F.W], v[F.Z], alpha, beta),
        )

    def _k_cg_precon_jacobi(self) -> None:
        v = self.views
        parallel_for(
            self._policy,
            CGPreconFunctor(self.geo, v[F.Z], v[F.R], v[F.KX], v[F.KY]),
        )

    def _k_jacobi_iterate(self) -> float:
        v = self.views
        return parallel_reduce(
            self._policy,
            JacobiFunctor(self.geo, v[F.U], v[F.R], v[F.U0], v[F.KX], v[F.KY]),
            reducer=self._sum,
        )

    def _k_norm2_field(self, name: str) -> float:
        v = self.views
        return parallel_reduce(
            self._policy, DotFunctor(self.geo, v[name], v[name]), reducer=self._sum
        )

    def _k_dot_fields(self, a: str, b: str) -> float:
        v = self.views
        return parallel_reduce(
            self._policy, DotFunctor(self.geo, v[a], v[b]), reducer=self._sum
        )

    def _k_copy_field(self, src: str, dst: str) -> None:
        deep_copy(self.views[dst], self.views[src])

    def _k_tea_leaf_finalise(self) -> None:
        v = self.views
        parallel_for(
            self._policy,
            FinaliseFunctor(self.geo, v[F.ENERGY1], v[F.U], v[F.DENSITY]),
        )

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        v = self.views
        return parallel_reduce(
            self._policy,
            FieldSummaryFunctor(
                self.geo, v[F.DENSITY], v[F.ENERGY1], v[F.U], self.grid.cell_volume
            ),
            reducer=self._multi_sum,
        )


# --------------------------------------------------------------------- #
# hierarchical parallelism (Kokkos HP, Figure 7)
# --------------------------------------------------------------------- #
class KokkosHPPort(KokkosPort):
    """TeamPolicy league over interior rows; no loop-body conditionals.

    Only the performance-critical stencil/reduction kernels are rewritten
    (as the paper's collaboration with Sandia did); trivially parallel
    copies stay flat.
    """

    model_name = "kokkos-hp"

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        super().__init__(grid, trace)
        self._team_policy = TeamPolicy(league_size=grid.ny, team_size=grid.nx)

    # row slices for a team ------------------------------------------------
    def _row(self, member: TeamMember, dk: int = 0) -> int:
        return self.h + member.league_rank + dk

    def _cols(self, dj: int = 0) -> slice:
        return slice(self.h + dj, self.h + self.grid.nx + dj)

    def _team_matvec(self, member: TeamMember, v: View) -> np.ndarray:
        kx, ky = self.views[F.KX].data, self.views[F.KY].data
        d = v.data
        I, Ip = self._row(member), self._row(member, 1)
        Im = self._row(member, -1)
        J, Jp, Jm = self._cols(), self._cols(1), self._cols(-1)
        return row_matvec(d, kx, ky, I, Im, Ip, J, Jm, Jp)

    # overridden performance-critical kernels ------------------------------
    def _k_tea_leaf_init(self, dt: float, coefficient: str) -> None:
        g = self.grid
        self._rx = dt / (g.dx * g.dx)
        self._ry = dt / (g.dy * g.dy)
        recip = coefficient == "recip_conductivity"
        v = self.views

        def team_body(member: TeamMember) -> None:
            I, Im = self._row(member), self._row(member, -1)
            J, Jm = self._cols(), self._cols(-1)
            density, energy = v[F.DENSITY].data, v[F.ENERGY1].data
            u, u0 = v[F.U].data, v[F.U0].data
            kx, ky = v[F.KX].data, v[F.KY].data
            u[I, J] = energy[I, J] * density[I, J]
            u0[I, J] = u[I, J]
            wc = 1.0 / density[I, J] if recip else density[I, J]
            wx = 1.0 / density[I, Jm] if recip else density[I, Jm]
            wy = 1.0 / density[Im, J] if recip else density[Im, J]
            kx[I, J] = self._rx * (wx + wc) / (2.0 * wx * wc)
            ky[I, J] = self._ry * (wy + wc) / (2.0 * wy * wc)

        parallel_for(self._team_policy, team_body)
        # Zero-flux walls re-encoded into the iteration space: west faces of
        # the first interior column and the whole south boundary row.
        h, nx, ny = self.h, g.nx, g.ny
        v[F.KX].data[:, h] = 0.0
        v[F.KY].data[h, :] = 0.0

    def _k_tea_leaf_residual(self) -> None:
        v = self.views

        def team_body(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            v[F.R].data[I, J] = v[F.U0].data[I, J] - self._team_matvec(member, v[F.U])

        parallel_for(self._team_policy, team_body)

    def _k_cg_init(self) -> float:
        v = self.views

        def team_body(member: TeamMember) -> np.ndarray:
            I, J = self._row(member), self._cols()
            w, r, p = v[F.W].data, v[F.R].data, v[F.P].data
            w[I, J] = self._team_matvec(member, v[F.U])
            r[I, J] = v[F.U0].data[I, J] - w[I, J]
            p[I, J] = r[I, J]
            return r[I, J] * r[I, J]

        return parallel_reduce(self._team_policy, team_body, reducer=Sum())

    def _k_cg_calc_w(self) -> float:
        v = self.views

        def team_body(member: TeamMember) -> np.ndarray:
            I, J = self._row(member), self._cols()
            v[F.W].data[I, J] = self._team_matvec(member, v[F.P])
            return v[F.P].data[I, J] * v[F.W].data[I, J]

        return parallel_reduce(self._team_policy, team_body, reducer=Sum())

    def _k_cg_calc_ur(self, alpha: float) -> float:
        v = self.views

        def team_body(member: TeamMember) -> np.ndarray:
            I, J = self._row(member), self._cols()
            u, r = v[F.U].data, v[F.R].data
            u[I, J] += alpha * v[F.P].data[I, J]
            r[I, J] -= alpha * v[F.W].data[I, J]
            return r[I, J] * r[I, J]

        return parallel_reduce(self._team_policy, team_body, reducer=Sum())

    def _k_cg_calc_p(self, beta: float) -> None:
        self._hp_axpy(F.P, F.R, beta)

    def _k_ppcg_calc_p(self, beta: float) -> None:
        self._hp_axpy(F.P, F.Z, beta)

    def _hp_axpy(self, dst: str, src: str, scale: float) -> None:
        v = self.views

        def team_body(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            v[dst].data[I, J] = v[src].data[I, J] + scale * v[dst].data[I, J]

        parallel_for(self._team_policy, team_body)

    def _k_cheby_init(self, theta: float) -> None:
        v = self.views

        def team_body(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            r, sd, u = v[F.R].data, v[F.SD].data, v[F.U].data
            r[I, J] = v[F.U0].data[I, J] - self._team_matvec(member, v[F.U])
            sd[I, J] = r[I, J] / theta

        parallel_for(self._team_policy, team_body)

        def team_u(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            v[F.U].data[I, J] += v[F.SD].data[I, J]

        parallel_for(self._team_policy, team_u)

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        self._hp_cheby_sweeps(F.R, F.U, alpha, beta)

    def _k_ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        self._hp_cheby_sweeps(F.W, F.Z, alpha, beta)

    def _hp_cheby_sweeps(
        self, resid: str, accum: str, alpha: float, beta: float
    ) -> None:
        v = self.views

        def sweep_r(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            v[resid].data[I, J] -= self._team_matvec(member, v[F.SD])

        parallel_for(self._team_policy, sweep_r)

        def sweep_sd(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            sd = v[F.SD].data
            sd[I, J] = alpha * sd[I, J] + beta * v[resid].data[I, J]
            v[accum].data[I, J] += sd[I, J]

        parallel_for(self._team_policy, sweep_sd)

    def _k_ppcg_precon_init(self, theta: float) -> None:
        v = self.views

        def team_body(member: TeamMember) -> None:
            I, J = self._row(member), self._cols()
            w, sd, z = v[F.W].data, v[F.SD].data, v[F.Z].data
            w[I, J] = v[F.R].data[I, J]
            sd[I, J] = w[I, J] / theta
            z[I, J] = sd[I, J]

        parallel_for(self._team_policy, team_body)

    def _k_cg_precon_jacobi(self) -> None:
        v = self.views

        def team_body(member: TeamMember) -> None:
            I, Ip = self._row(member), self._row(member, 1)
            J, Jp = self._cols(), self._cols(1)
            kx, ky = v[F.KX].data, v[F.KY].data
            v[F.Z].data[I, J] = v[F.R].data[I, J] / row_diag(kx, ky, I, Ip, J, Jp)

        parallel_for(self._team_policy, team_body)


# --------------------------------------------------------------------- #
# registration
# --------------------------------------------------------------------- #
_KOKKOS_SUPPORT = {
    DeviceKind.CPU: Support.YES,
    DeviceKind.GPU: Support.YES,
    DeviceKind.KNC: Support.NATIVE,
}


class KokkosModel(ProgrammingModel):
    capabilities = Capabilities(
        name="kokkos",
        display_name="Kokkos",
        directive_based=False,
        language="C++11",
        support=_KOKKOS_SUPPORT,
        cross_platform=True,
        summary="Template-metaprogramming portability layer (Sandia/Trilinos); "
        "flat functors with loop-body halo conditionals.",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> KokkosPort:
        return KokkosPort(grid, trace)


class KokkosHPModel(ProgrammingModel):
    capabilities = Capabilities(
        name="kokkos-hp",
        display_name="Kokkos (hierarchical parallelism)",
        directive_based=False,
        language="C++11",
        support=_KOKKOS_SUPPORT,
        cross_platform=True,
        summary="Figure-7 TeamPolicy rewrite re-encoding halo exclusion into "
        "the iteration space (Sandia collaboration).",
    )

    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> KokkosHPPort:
        return KokkosHPPort(grid, trace)


register_model(KokkosModel())
register_model(KokkosHPModel())
