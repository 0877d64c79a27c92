"""Port interface, capability metadata (Table 1), and the model registry.

A *port* is one implementation of the TeaLeaf kernel set through one
programming model's abstractions.  The solvers and the timestep driver in
:mod:`repro.core` are written purely against :class:`Port`, exactly as the
paper keeps "core solver logic and parameters ... consistent between ports".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from repro.core import fields as F
from repro.core import operators as ops
from repro.core.grid import Grid2D
from repro.core.kernels import KERNELS, KernelSpec
from repro.models.plan import OPS, KernelCall
from repro.models.tracing import Trace, TransferDirection
from repro.util.errors import ModelError


class DeviceKind(Enum):
    """The three device families of the paper's evaluation (Table 2)."""

    CPU = "cpu"
    GPU = "gpu"
    KNC = "knc"


class Support(Enum):
    """Functional-portability levels from Table 1."""

    YES = "Yes"
    NATIVE = "Native"
    OFFLOAD = "Offload"
    EXPERIMENTAL = "Experimental"
    NO = ""


@dataclass(frozen=True)
class Capabilities:
    """Static description of a programming model (Table 1 row + §2 facts)."""

    name: str
    display_name: str
    directive_based: bool
    language: str
    support: Mapping[DeviceKind, Support]
    #: Models the paper classes as performance portable / cross platform
    #: (§3: cross-platform vs platform-specific).
    cross_platform: bool
    #: One-line description used in reports.
    summary: str = ""

    def supports(self, device: DeviceKind) -> bool:
        return self.support.get(device, Support.NO) is not Support.NO


class Port(ABC):
    """One TeaLeaf port: the kernel set realised through one model's API.

    Concrete ports store their fields however their model dictates (raw
    NumPy for host models, Views/Buffers/device allocations for offload
    models) but must expose host copies through :meth:`read_field` /
    :meth:`write_field` so the driver, solvers, halo exchange and tests can
    interoperate.

    Authoring a port means implementing the four data methods plus one
    ``_k_<op>`` primitive per entry of :data:`repro.models.plan.OPS` the
    deck's solver needs; the public kernel methods below are shared
    dispatch shims that trace the launch, run the primitive, and report
    written fields to the residency adapter.
    """

    #: Registry name of the model this port belongs to (set by subclasses).
    model_name: str = "?"

    #: Whether :class:`~repro.models.plan.PlanExecutor` may fuse kernel
    #: groups on this port (single-traversal elementwise models opt in).
    #: A fused group only runs compiled, so fusion also needs
    #: :attr:`supports_codegen`; without it the executor records a
    #: fallback and runs unfused.
    supports_fusion: bool = False

    #: Whether the executor may run codegen-lowered plans against this
    #: port.  Anything exposing its device storage through
    #: :meth:`_device_array` as C-ordered rows qualifies (the compiled
    #: NumPy bodies write the same arrays the ``_k_*`` primitives do,
    #: over spans); decomposed ports, whose fields live per-chunk, opt
    #: out, and so does a Kokkos port over column-major views (set per
    #: instance).
    supports_codegen: bool = True

    #: Whether dead-field poison (``tl_poison_dead_fields``) may NaN-fill
    #: this port's fields.  It declares that :meth:`_device_array` of
    #: every port in :meth:`chunks` returns the arrays the kernels use.
    #: Proxies that must observe every public kernel call (the lockstep
    #: numerics harness) opt out, and the fallback is recorded.
    supports_poison: bool = True

    #: Executor the driver attaches for plan replay; solvers fall back to
    #: an unfused :class:`~repro.models.plan.PlanExecutor` when absent.
    plan_executor = None

    def __init__(self, grid: Grid2D, trace: Trace | None = None) -> None:
        self.grid = grid
        self.trace = trace if trace is not None else Trace()
        self.h = grid.halo
        self._residency_enabled = False

    # ------------------------------------------------------------------ #
    # trace helpers
    # ------------------------------------------------------------------ #
    def _launch(
        self,
        kernel_name: str,
        cells: int | None = None,
        spec: KernelSpec | None = None,
    ) -> KernelSpec:
        """Record one kernel launch; returns the spec for footprint reuse.

        ``spec`` overrides the :data:`KERNELS` lookup for synthesised
        launches (fused traversals) that have no table entry.
        """
        if spec is None:
            spec = KERNELS[kernel_name]
        n = self.grid.cells if cells is None else cells
        self.trace.kernel(
            kernel_name,
            bytes_moved=spec.bytes_for(n),
            flops=spec.flops * n,
            cells=n,
            has_reduction=spec.has_reduction,
        )
        return spec

    def _transfer(self, name: str, nbytes: int, direction: TransferDirection) -> None:
        self.trace.transfer(name, nbytes, direction)

    def _halo_cells(self, depth: int) -> int:
        """Cells touched when refreshing a depth-``depth`` halo of one field."""
        g = self.grid
        return 2 * depth * (g.nx + g.ny) + 4 * depth * depth

    # ------------------------------------------------------------------ #
    # data interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        """Install the generated initial condition (host -> device)."""

    @abstractmethod
    def read_field(self, name: str) -> np.ndarray:
        """Host copy of a field (full halo shape).  May trigger a D2H copy."""

    @abstractmethod
    def write_field(self, name: str, values: np.ndarray) -> None:
        """Overwrite a field from a host array.  May trigger an H2D copy."""

    # ------------------------------------------------------------------ #
    # residency (offload models override)
    # ------------------------------------------------------------------ #
    def begin_solve(self) -> None:
        """Enter the solve-scope data region (no-op for host models)."""

    def end_solve(self) -> None:
        """Leave the solve-scope data region (no-op for host models)."""

    def enable_residency_tracking(self, enabled: bool = True) -> None:
        """Opt into dirty-field tracking so redundant transfers are elided.

        Arms the dirty-set bookkeeping below.  Host ports have nothing to
        elide; explicit-copy offload ports (CUDA, OpenCL) consult the set
        in ``read_field`` to serve repeated host reads of unchanged fields
        from a mirror, and data-region ports (OpenMP 4.x, OpenACC) hold
        their solve data region open across timesteps instead.

        Results are unaffected either way: only redundant transfers (and
        their trace events) disappear.
        """
        self._residency_enabled = enabled
        #: Host-side copies of device fields, valid while the field is
        #: not in the dirty set.
        self._host_mirror: dict[str, np.ndarray] = {}
        #: Fields the device has written since their mirror was refreshed.
        #: Everything starts dirty so first reads populate the mirror.
        self._dirty_fields: set[str] = set(F.FIELD_ORDER)

    def _mark_dirty(self, names: Iterable[str]) -> None:
        """Residency hook: ``names`` were written on the device."""
        if self._residency_enabled:
            self._dirty_fields.update(names)

    def _mirror_clean(self, name: str) -> np.ndarray | None:
        """The mirrored host copy of ``name`` if it is still valid."""
        if self._residency_enabled and name not in self._dirty_fields:
            return self._host_mirror.get(name)
        return None

    def _mirror_store(self, name: str, host: np.ndarray) -> None:
        """Record a freshly transferred host copy as the clean mirror."""
        if self._residency_enabled:
            self._host_mirror[name] = host.copy()
            self._dirty_fields.discard(name)

    def invalidate_residency(self, names: Iterable[str]) -> None:
        """Drop any cached residency state for ``names``.

        Called before an external restore (checkpoint rollback, rank
        recovery) overwrites fields through the host interface: the
        fields' host mirrors are stale and their device copies are about
        to be replaced, so the next consumer must take the upload/readback
        path.  A no-op when residency tracking is off.
        """
        if not self._residency_enabled:
            return
        for name in tuple(names):
            self._host_mirror.pop(name, None)
            self._dirty_fields.add(name)

    # ------------------------------------------------------------------ #
    # the dispatch core
    # ------------------------------------------------------------------ #
    def _primitive(self, op: str):
        """The model-specific ``_k_<op>`` body for one operation."""
        try:
            return getattr(self, "_k_" + op)
        except AttributeError:
            raise ModelError(
                f"port '{self.model_name}' has no primitive for '{op}' "
                f"(expected a _k_{op} method)"
            ) from None

    def _reduction_epilogue(self, op: str) -> None:
        """Trace what follows one reduction's launch on this port.

        Called once per reduction result on every path: by the port's own
        interpreted reduction and by :meth:`dispatch_compiled`, so
        ``--codegen`` leaves the modelled clock where the interpreted run
        puts it.  Ports that finish reductions on the host (CUDA, OpenCL)
        record their partials pass and read-back; the rest have nothing
        to record.
        """

    def dispatch(self, call: KernelCall):
        """Trace and run one operation from the kernel table."""
        op = OPS[call.op]
        self._launch(op.kernel)
        result = self._primitive(call.op)(*call.args)
        written = op.written(call.args)
        if written:
            self._mark_dirty(written)
        return result

    def dispatch_compiled(self, step, argv: tuple[tuple, ...]) -> tuple:
        """Run one codegen-lowered step (see :mod:`repro.models.codegen`).

        The compiled function reads and writes the port's device arrays
        directly, so trace launches, reduction epilogues and residency
        dirtying are replayed here from the step's pre-recorded
        accounting — exactly the events the interpreted dispatch of a
        lone call would emit, or a fused group's one launch.  A halo
        prefix is refreshed inside the same launch, before the members.
        """
        for kernel_name, spec in step.launches:
            self._launch(kernel_name, spec=spec)
        if step.halo is not None:
            self._reflect(step.halo.names, step.halo.depth)
        results = step.fn(self._codegen_ctx(), argv)
        for op in step.reductions:
            self._reduction_epilogue(op)
        for call, args in zip(step.calls, argv):
            written = call.spec.written(args)
            if written:
                self._mark_dirty(written)
        return results

    def _codegen_ctx(self):
        """The port's (cached) whole-interior slab for compiled steps.

        It resolves names through :meth:`_device_array`, so compiled
        writes land exactly where the interpreted ``_k_*`` primitives
        write.
        """
        ctx = getattr(self, "_codegen_ctx_cache", None)
        if ctx is None:
            from repro.models.loopbodies import Slab

            ctx = self._codegen_ctx_cache = Slab(self._device_array, self.grid)
        return ctx

    # ------------------------------------------------------------------ #
    # the TeaLeaf kernel set (shared shims over the _k_* primitives)
    # ------------------------------------------------------------------ #
    def set_field(self) -> None:
        """energy1 = energy0."""
        self.dispatch(KernelCall("set_field"))

    def tea_leaf_init(self, dt: float, coefficient: str) -> None:
        """u = u0 = energy1*density; build kx, ky with rx/ry folded in."""
        self.dispatch(KernelCall("tea_leaf_init", (dt, coefficient)))

    def tea_leaf_residual(self) -> None:
        """r = u0 - A u."""
        self.dispatch(KernelCall("tea_leaf_residual"))

    def cg_init(self) -> float:
        """w = A u; r = u0 - w; p = r; returns rro = r.r."""
        return self.dispatch(KernelCall("cg_init"))

    def cg_calc_w(self) -> float:
        """w = A p; returns pw = p.w."""
        return self.dispatch(KernelCall("cg_calc_w"))

    def cg_calc_ur(self, alpha: float) -> float:
        """u += alpha p; r -= alpha w; returns rrn = r.r."""
        return self.dispatch(KernelCall("cg_calc_ur", (alpha,)))

    def cg_calc_p(self, beta: float) -> None:
        """p = r + beta p."""
        self.dispatch(KernelCall("cg_calc_p", (beta,)))

    def cheby_init(self, theta: float) -> None:
        """r = u0 - A u; sd = r/theta; u += sd."""
        self.dispatch(KernelCall("cheby_init", (theta,)))

    def cheby_iterate(self, alpha: float, beta: float) -> None:
        """r -= A sd; sd = alpha sd + beta r; u += sd."""
        self.dispatch(KernelCall("cheby_iterate", (alpha, beta)))

    def ppcg_precon_init(self, theta: float) -> None:
        """w = r; sd = w/theta; z = sd (start the inner Chebyshev solve)."""
        self.dispatch(KernelCall("ppcg_precon_init", (theta,)))

    def ppcg_precon_inner(self, alpha: float, beta: float) -> None:
        """w -= A sd; sd = alpha sd + beta w; z += sd."""
        self.dispatch(KernelCall("ppcg_precon_inner", (alpha, beta)))

    def ppcg_calc_p(self, beta: float) -> None:
        """p = z + beta p (the preconditioned direction update)."""
        self.dispatch(KernelCall("ppcg_calc_p", (beta,)))

    def cg_precon_jacobi(self) -> None:
        """z = r / diag(A): apply the diagonal (jac_diag) preconditioner."""
        self.dispatch(KernelCall("cg_precon_jacobi"))

    def jacobi_iterate(self) -> float:
        """u_new from neighbours of old u; returns sum |u_new - u_old|.

        Every port realises the sweep the same way: stash the previous
        iterate in r (its only free array), then update u from it.
        """
        self.copy_field(F.U, F.R)
        return self.dispatch(KernelCall("jacobi_iterate"))

    def norm2_field(self, name: str) -> float:
        """Interior squared 2-norm of a field."""
        return self.dispatch(KernelCall("norm2_field", (name,)))

    def dot_fields(self, a: str, b: str) -> float:
        """Interior dot product of two fields."""
        return self.dispatch(KernelCall("dot_fields", (a, b)))

    def copy_field(self, src: str, dst: str) -> None:
        """dst = src over the whole allocation."""
        self.dispatch(KernelCall("copy_field", (src, dst)))

    def tea_leaf_finalise(self) -> None:
        """energy1 = u / density."""
        self.dispatch(KernelCall("tea_leaf_finalise"))

    def field_summary(self) -> tuple[float, float, float, float]:
        """(volume, mass, internal energy, temperature) interior totals."""
        return self.dispatch(KernelCall("field_summary"))

    # ------------------------------------------------------------------ #
    # halo update
    # ------------------------------------------------------------------ #
    def update_halo(self, names: Iterable[str], depth: int) -> None:
        """Reflective physical-boundary refresh of the named fields.

        The default implementation traces one launch per field around
        :meth:`_reflect`.  Neighbour exchange for decomposed runs is
        layered on top by :mod:`repro.comm`.
        """
        names = tuple(names)
        for _ in names:
            self._launch("halo_update", cells=self._halo_cells(depth))
        self._reflect(names, depth)

    def _reflect(self, names: tuple[str, ...], depth: int) -> None:
        """Untraced reflective refresh of ``names``; marks them dirty.

        Reflects on the port's device-resident arrays via
        :meth:`_device_array`.  :meth:`update_halo` wraps it in its own
        launches; a halo prefix runs it inside the group's launch.
        """
        for name in names:
            ops.reflective_halo_update(self._device_array(name), self.h, depth)
        self._mark_dirty(names)

    def halo_wire_traffic(
        self, names: Iterable[str], depth: int
    ) -> tuple[int, int]:
        """(bytes, messages) one exchange of ``names`` puts on the wire.

        Single-chunk ports exchange nothing — reflective boundaries are
        local — so exposed-communication accounting reports zero for
        them and the decomposed port supplies the real footprint.
        """
        return (0, 0)

    @abstractmethod
    def _device_array(self, name: str) -> np.ndarray:
        """The device-resident backing array for ``name`` (for halo logic)."""

    def chunks(self) -> tuple[Port, ...]:
        """The per-chunk ports whose device arrays hold the fields."""
        return (self,)


class ProgrammingModel(ABC):
    """Factory + metadata for one programming model."""

    capabilities: Capabilities

    @property
    def name(self) -> str:
        return self.capabilities.name

    @abstractmethod
    def make_port(self, grid: Grid2D, trace: Trace | None = None) -> Port:
        """Create a fresh TeaLeaf port on ``grid``."""


_REGISTRY: dict[str, ProgrammingModel] = {}


def register_model(model: ProgrammingModel) -> ProgrammingModel:
    """Register a model instance under its capability name."""
    name = model.capabilities.name
    if name in _REGISTRY:
        raise ModelError(f"model '{name}' already registered")
    _REGISTRY[name] = model
    return model


def get_model(name: str) -> ProgrammingModel:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown model '{name}'; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_models() -> list[str]:
    """Registered model names, stable order."""
    return sorted(_REGISTRY)


def make_port(model_name: str, grid: Grid2D, trace: Trace | None = None) -> Port:
    """Convenience: look up a model and create a port in one call."""
    return get_model(model_name).make_port(grid, trace)
