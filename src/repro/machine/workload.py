"""Workload synthesis: exact solver traces at arbitrary mesh sizes.

Running the real numerics at 4096x4096 for thousands of iterations is not
feasible in Python, but the *event structure* of a solve (which kernels
launch, how many offload regions open, what transfers occur) depends only
on the solver's control flow — not on the field values.  This module
provides :class:`TracingStubPort`: a Port with no field data that keeps
the shared dispatch core, so every launch and its kernel name come from
:data:`repro.models.plan.OPS` exactly as for a real port.  Its only
``_k_*`` primitives script the reduction returns, which follow a
prescribed convergence schedule so that the *unmodified* solver and
driver code executes exactly the control flow of a run with the given
per-step iteration counts; every other op runs an empty body.

The synthesised traces are validated against real-numerics traces in the
test-suite: for a mesh the numerics can run, the stub trace driven by the
measured iteration counts must match the real trace kernel-for-kernel.

Per-model trace behaviour (offload regions, reduction partials transfers,
data-residency transfers) is described by :data:`MODEL_BEHAVIOR`, mirroring
what each real port emulation does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import fields as F
from repro.core.deck import Deck
from repro.core.driver import TeaLeaf
from repro.core.grid import Grid2D
from repro.models.base import Port
from repro.models.tracing import Trace, TransferDirection
from repro.util.errors import MachineError
from repro.util.units import DOUBLE


@dataclass(frozen=True)
class ModelBehavior:
    """What a programming model adds to the kernel-event stream."""

    #: One offload-region entry per kernel launch inside the solve
    #: (OpenMP 4.0 ``target``, OpenACC ``kernels``) — §3.1/§3.2.
    offload_regions: bool = False
    #: Reductions end with a partials buffer read-back (CUDA / OpenCL
    #: manual reductions) — §3.5/§3.6.
    reduction_partials: bool = False
    #: Arrays are mapped to the device at solve start and back at solve end
    #: (the paper's highest-scope data region) — §3.1.
    map_per_solve: bool = False
    #: State uploaded to the device once at startup (resident models:
    #: Kokkos views, CUDA/OpenCL buffers).
    initial_state_h2d: bool = False
    #: Work-group / block size for the partials estimate.
    reduction_group: int = 128
    #: Trace label for offload regions ("target" / "target_nowait" /
    #: "acc_kernels") — the performance model prices nowait regions lower.
    region_label: str = "target"


MODEL_BEHAVIOR: dict[str, ModelBehavior] = {
    "openmp-f90": ModelBehavior(),
    "openmp-cpp": ModelBehavior(),
    "raja": ModelBehavior(),
    "raja-simd": ModelBehavior(),
    # Extension model: CUDA-dispatched lambdas over host-unified arrays.
    "raja-gpu": ModelBehavior(),
    "kokkos": ModelBehavior(initial_state_h2d=True),
    "kokkos-hp": ModelBehavior(initial_state_h2d=True),
    "cuda": ModelBehavior(reduction_partials=True, initial_state_h2d=True),
    "opencl": ModelBehavior(reduction_partials=True, initial_state_h2d=True),
    "openmp4": ModelBehavior(offload_regions=True, map_per_solve=True),
    "openmp45": ModelBehavior(
        offload_regions=True, map_per_solve=True, region_label="target_nowait"
    ),
    "openacc": ModelBehavior(
        offload_regions=True, map_per_solve=True, region_label="acc_kernels"
    ),
}

#: Arrays mapped at solve scope: density+energy1+u in (3), energy1+u out (2)
#: — the map set of the OpenMP 4.0 / OpenACC ports.
_MAP_IN_ARRAYS = 3
_MAP_OUT_ARRAYS = 2


@dataclass(frozen=True)
class StepPlan:
    """Iteration counts for one timestep's solve.

    ``outer``: CG iterations / Chebyshev iterations (including cheby_init) /
    PPCG preconditioned iterations, excluding any bootstrap.
    ``bootstrap``: plain-CG iterations of the eigenvalue phase (Chebyshev
    and PPCG only).
    """

    outer: int
    bootstrap: int = 0

    def __post_init__(self) -> None:
        if self.outer < 0 or self.bootstrap < 0 or self.outer + self.bootstrap < 1:
            raise MachineError(f"invalid StepPlan({self.outer}, {self.bootstrap})")


@dataclass(frozen=True)
class SolveWorkload:
    """A full run's iteration plan."""

    solver: str
    steps: tuple[StepPlan, ...]

    @property
    def total_outer(self) -> int:
        return sum(s.outer for s in self.steps)

    @property
    def total_bootstrap(self) -> int:
        return sum(s.bootstrap for s in self.steps)


class _Schedule:
    """Prescribed reduction returns reproducing a target convergence path."""

    def __init__(self, deck: Deck, plan: StepPlan, solver: str) -> None:
        self.deck = deck
        self.plan = plan
        self.solver = solver
        self.rr0 = 1.0
        self.eps2 = deck.tl_eps * deck.tl_eps
        self.cg_calls = 0
        self.cheby_calls = 0
        #: Bootstrap decay: slow enough never to trip eps during bootstrap.
        self.q_boot = 0.9

    # -- CG-phase returns ---------------------------------------------- #
    def _rr(self, k: int) -> float:
        """Scripted squared residual after ``k`` CG-phase iterations."""
        if k == 0:
            return self.rr0
        if self.solver == "cg":
            n = self.plan.outer
            if k >= n:
                return 0.5 * self.eps2 * self.rr0  # converge exactly here
            q = (0.5 * self.eps2) ** (1.0 / n)
            return self.rr0 * q**k
        # chebyshev / ppcg: bootstrap phase, then (ppcg) outer phase
        b = self.plan.bootstrap
        if self.plan.outer == 0:
            # The measured run converged inside the eigenvalue bootstrap:
            # reproduce that by converging at exactly the bootstrap count.
            if k >= b:
                return 0.5 * self.eps2 * self.rr0
            return self.rr0 * self.q_boot**k
        if k <= b:
            return self.rr0 * self.q_boot**k
        if self.solver == "ppcg":
            m = k - b  # preconditioned outer iteration index
            n = self.plan.outer
            rr_boot = self.rr0 * self.q_boot**b
            if m >= n:
                return 0.5 * self.eps2 * self.rr0
            q = (0.5 * self.eps2 * self.rr0 / rr_boot) ** (1.0 / n)
            return rr_boot * q**m
        raise MachineError(
            f"unexpected CG iteration {k} past bootstrap for {self.solver}"
        )

    def current_rr(self) -> float:
        """The trajectory value at the completed iteration count.

        Used to script ``pw`` so that alpha stays constant at 0.5, which
        keeps the Lanczos tridiagonal of the eigenvalue phase positive
        definite (constant-alpha, constant-beta Jacobi matrix).
        """
        return self._rr(self.cg_calls)

    def cg_rrn(self) -> float:
        """Return for cg_calc_ur: the scripted residual trajectory."""
        self.cg_calls += 1
        return self._rr(self.cg_calls)

    # -- Chebyshev-phase returns ---------------------------------------- #
    def mark_cheby_iterate(self) -> None:
        self.cheby_calls += 1

    def cheby_norm(self) -> float:
        """Return for norm2(r): converged once the plan's count is reached.

        The plan's ``outer`` includes cheby_init, so the iterate count at
        convergence is ``outer - 1``.
        """
        if self.cheby_calls >= self.plan.outer - 1:
            return 0.5 * self.eps2 * self.rr0
        return self.rr0 * self.q_boot ** self.plan.bootstrap * 0.5


class TracingStubPort(Port):
    """A Port that emits trace events and scripted reductions only.

    Field arrays are never allocated; geometry is used purely for byte
    accounting.  Reductions follow the :class:`_Schedule` for the current
    step, so the real solver code runs its exact control flow.  A rename
    in ``OPS`` renames the stub's launches with every real port's.
    """

    #: No arrays for compiled bodies to write or for poison to fill:
    #: ``tl_codegen`` and ``tl_poison_dead_fields`` fall back.
    supports_codegen = False
    supports_poison = False

    def __init__(
        self,
        grid: Grid2D,
        deck: Deck,
        workload: SolveWorkload,
        behavior: ModelBehavior,
        trace: Trace | None = None,
    ) -> None:
        super().__init__(grid, trace)
        self.model_name = "tracing-stub"
        self.deck = deck
        self.workload = workload
        self.behavior = behavior
        self._step = -1
        self._schedule: _Schedule | None = None
        self._in_solve = False
        self._array_bytes = (
            (grid.nx + 2 * grid.halo) * (grid.ny + 2 * grid.halo) * DOUBLE
        )

    # ------------------------------------------------------------------ #
    def _launch(self, kernel_name: str, cells: int | None = None, spec=None):
        spec = super()._launch(kernel_name, cells, spec)
        if self.behavior.offload_regions and self._in_solve:
            self.trace.region(f"{self.behavior.region_label}:{kernel_name}")
        if spec.has_reduction and self.behavior.reduction_partials:
            groups = max(1, -(-self.grid.cells // self.behavior.reduction_group))
            self.trace.reduction_pass(f"partials:{kernel_name}", groups * DOUBLE)
            self.trace.transfer("read_partials", groups * DOUBLE, TransferDirection.D2H)
        return spec

    # ------------------------------------------------------------------ #
    # data interface
    # ------------------------------------------------------------------ #
    def set_state(self, density, energy0) -> None:
        if self.behavior.initial_state_h2d:
            for name in (F.DENSITY, F.ENERGY0):
                self.trace.transfer(
                    f"upload:{name}", self._array_bytes, TransferDirection.H2D
                )
        self._launch("generate_chunk")

    def read_field(self, name: str):
        raise MachineError("TracingStubPort has no field data")

    def write_field(self, name: str, values) -> None:
        raise MachineError("TracingStubPort has no field data")

    def _device_array(self, name: str):
        raise MachineError("TracingStubPort has no field data")

    def update_halo(self, names, depth: int) -> None:
        for _ in names:
            self._launch("halo_update", cells=self._halo_cells(depth))

    # ------------------------------------------------------------------ #
    # residency
    # ------------------------------------------------------------------ #
    def begin_solve(self) -> None:
        self._in_solve = True
        if self.behavior.map_per_solve:
            for i in range(_MAP_IN_ARRAYS):
                self.trace.transfer(
                    f"map_in:{i}", self._array_bytes, TransferDirection.H2D
                )

    def end_solve(self) -> None:
        if self.behavior.map_per_solve:
            for i in range(_MAP_OUT_ARRAYS):
                self.trace.transfer(
                    f"map_out:{i}", self._array_bytes, TransferDirection.D2H
                )
        self._in_solve = False

    # ------------------------------------------------------------------ #
    # kernels: scripted returns only; the shared dispatch traces launches
    # ------------------------------------------------------------------ #
    def _primitive(self, op: str):
        return getattr(self, "_k_" + op, _no_body)

    def _k_set_field(self) -> None:
        # set_field is the first kernel of every step: advance the schedule.
        self._step += 1
        if self._step >= len(self.workload.steps):
            raise MachineError("workload plan exhausted: too many steps")
        self._schedule = _Schedule(
            self.deck, self.workload.steps[self._step], self.workload.solver
        )

    def _sched(self) -> _Schedule:
        if self._schedule is None:
            raise MachineError("solve kernels called before set_field")
        return self._schedule

    def _k_cg_init(self) -> float:
        return self._sched().rr0

    def _k_cg_calc_w(self) -> float:
        # pw = 2 * rro so that alpha = rro/pw = 0.5 exactly, keeping the
        # recorded Lanczos scalars well-posed for the eigenvalue estimate.
        return 2.0 * self._sched().current_rr()

    def _k_cg_calc_ur(self, alpha: float) -> float:
        return self._sched().cg_rrn()

    def _k_cheby_iterate(self, alpha: float, beta: float) -> None:
        self._sched().mark_cheby_iterate()

    def _k_jacobi_iterate(self) -> float:
        sched = self._sched()
        sched.cg_calls += 1
        if sched.cg_calls >= sched.plan.outer:
            return 0.0
        return 1.0

    def _k_norm2_field(self, name: str) -> float:
        return self._sched().cheby_norm()

    def _k_dot_fields(self, a: str, b: str) -> float:
        sched = self._sched()
        # rrz for PPCG's beta: any positive value keeps the flow identical.
        return max(sched.rr0 * 1e-6, 1e-300)

    def _k_field_summary(self) -> tuple[float, float, float, float]:
        if self.behavior.reduction_partials:
            # CUDA/OpenCL run the summary as four reduction launches, so
            # three additional partials read-backs beyond _launch's one.
            groups = max(1, -(-self.grid.cells // self.behavior.reduction_group))
            for _ in range(3):
                self.trace.transfer(
                    "read_partials", groups * DOUBLE, TransferDirection.D2H
                )
        return (1.0, 1.0, 1.0, 1.0)


def _no_body(*args) -> None:
    """The body of every op without a scripted return: nothing to run."""


def synthesize_solve_trace(
    model: str,
    deck: Deck,
    workload: SolveWorkload,
) -> Trace:
    """Trace of a full deck run of ``model`` with the given iteration plan.

    Drives the *real* TeaLeaf driver and solver over a
    :class:`TracingStubPort`, so the resulting event stream has exactly the
    structure of a real run that converged with those counts.
    """
    try:
        behavior = MODEL_BEHAVIOR[model]
    except KeyError:
        raise MachineError(f"no trace behaviour catalogued for model '{model}'") from None
    if len(workload.steps) != deck.end_step:
        raise MachineError(
            f"workload has {len(workload.steps)} step plans but the deck runs "
            f"{deck.end_step} steps"
        )
    if workload.solver != deck.solver:
        raise MachineError(
            f"workload solver '{workload.solver}' != deck solver '{deck.solver}'"
        )
    trace = Trace()
    port = TracingStubPort(deck.grid(), deck, workload, behavior, trace)
    app = TeaLeaf(deck, port=port, trace=trace)
    app.run()
    return trace


def workload_from_run(run_result) -> SolveWorkload:
    """Extract the iteration plan from a real (measured) run.

    The bootstrap count of each step is the number of recorded CG scalars
    (Chebyshev/PPCG record them only during the eigenvalue phase).
    """
    steps = []
    for s in run_result.steps:
        solver = s.solve.solver
        if solver == "cg":
            steps.append(StepPlan(outer=s.solve.iterations))
        else:
            bootstrap = len(s.solve.cg_alphas)
            steps.append(
                StepPlan(outer=s.solve.iterations - bootstrap, bootstrap=bootstrap)
            )
    return SolveWorkload(solver=run_result.deck.solver, steps=tuple(steps))
