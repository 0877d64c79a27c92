"""The TeaLeaf application driver: the timestep loop.

Mirrors the reference app's ``diffuse`` loop: for each timestep,

1. ``set_field`` — copy energy0 into the advancing energy field;
2. enter the solve data region (offload models keep everything resident
   for the whole solve, the paper's "highest possible scope" placement);
3. ``tea_leaf_init`` — build u, u0 and the face coefficients;
4. run the configured solver to convergence;
5. ``tea_leaf_finalise`` — recover energy from u;
6. leave the data region and (periodically) print a field summary.

TeaLeaf has no hydrodynamics, so the timestep is constant and state only
changes through conduction.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import fields as F
from repro.core.deck import Deck
from typing import TYPE_CHECKING

from repro.core.solvers import Solver, SolveResult, make_solver
from repro.core.state import generate_chunk
from repro.models.plan import KernelCall
from repro.util.errors import CorruptionError, RankFailureError
from repro.util.timing import TimerRegistry

if TYPE_CHECKING:  # avoid a core <-> models import cycle
    from repro.models.base import Port
    from repro.models.plan import FieldLiveness, Plan
    from repro.models.tracing import Trace
    from repro.resilience import ResilienceManager, ResilienceReport


def solve_step_plans(halo: int) -> tuple[Plan, Plan]:
    """The per-step prologue/epilogue plans around ``Solver.solve``.

    The prologue's set_field and tea_leaf_init are both elementwise, so
    on fusion-capable host ports (where begin_solve is a hoistable no-op
    barrier) they compile to a single traversal per step.
    """
    from repro.core import fields as F
    from repro.models.plan import BarrierStep, Bind, HaloStep, KernelCall, Plan

    prologue = Plan(
        "solve_prologue",
        (
            KernelCall("set_field"),
            BarrierStep("begin_solve"),
            KernelCall("tea_leaf_init", (Bind("dt"), Bind("coefficient"))),
            HaloStep((F.U,), depth=halo),
        ),
    )
    epilogue = Plan(
        "solve_epilogue",
        (
            KernelCall("tea_leaf_finalise"),
            BarrierStep("end_solve"),
        ),
    )
    return prologue, epilogue


def deck_liveness(deck: Deck) -> FieldLiveness:
    """Per-field live ranges and poison releases of ``deck``'s solve cycle.

    Analyses one timestep's canonical cyclic timeline with
    :func:`repro.models.plan.compute_liveness`: the prologue, the deck's
    solver fragments — every contiguous run of looping fragments
    unrolled twice, so loop-carried fields stay live across the back
    edge — then the epilogue.
    """
    from repro.core.solvers import solver_timeline
    from repro.models.plan import compute_liveness

    prologue, epilogue = solve_step_plans(deck.grid().halo)
    timeline = [prologue]
    for in_loop, rows in itertools.groupby(
        solver_timeline(deck), key=lambda row: row[1]
    ):
        run = [plan for plan, _ in rows]
        timeline.extend(run * 2 if in_loop else run)
    timeline.append(epilogue)
    return compute_liveness(timeline)


@dataclass(frozen=True)
class FieldSummary:
    """Interior totals printed by the reference ``field_summary`` kernel."""

    volume: float
    mass: float
    internal_energy: float
    temperature: float


@dataclass
class StepResult:
    """Everything measured for one timestep."""

    step: int
    sim_time: float
    dt: float
    solve: SolveResult
    wall_seconds: float
    summary: FieldSummary | None = None
    #: Whole-step retries forced by the ABFT energy check or by a
    #: step-level rank repair (resilience only).
    retries: int = 0


@dataclass
class RunResult:
    """Outcome of a full deck run."""

    deck: Deck
    model: str
    steps: list[StepResult]
    wall_seconds: float
    trace: Trace
    #: Injection/detection/recovery accounting; None when resilience is off.
    resilience: ResilienceReport | None = None
    #: Flags the executor could not honour on this port (e.g. codegen on
    #: a decomposed port) — recorded, never silently dropped.
    fallbacks: list[str] = field(default_factory=list)
    #: Deterministic modelled communication accounting
    #: (``CommStats.as_dict()``; zeros for single-chunk runs).
    comm: dict | None = None

    @property
    def total_iterations(self) -> int:
        return sum(s.solve.iterations for s in self.steps)

    @property
    def final_summary(self) -> FieldSummary | None:
        for s in reversed(self.steps):
            if s.summary is not None:
                return s.summary
        return None

    def iterations_per_step(self) -> list[int]:
        return [s.solve.iterations for s in self.steps]


class TeaLeaf:
    """One TeaLeaf run: a deck, a programming-model port, a solver."""

    def __init__(
        self,
        deck: Deck,
        model: str = "openmp-f90",
        trace: Trace | None = None,
        port: Port | None = None,
        visit_dir: str | None = None,
        resilience: ResilienceManager | None = None,
    ) -> None:
        # Imported here rather than at module scope: the models package
        # imports repro.core, so a top-level import would be circular.
        from repro.models.base import make_port
        from repro.models.tracing import Trace

        self.deck = deck
        self.grid = deck.grid()
        if trace is None:
            # A passed port already records into its own trace, and the
            # driver's solve/summary sections must tag those events.
            trace = port.trace if port is not None else Trace()
        self.trace = trace
        self.model = model if port is None else port.model_name
        self.port = port if port is not None else make_port(model, self.grid, self.trace)
        self.solver: Solver = make_solver(deck.solver)
        self.timers = TimerRegistry()
        self.step_count = 0
        self.sim_time = 0.0
        #: Directory for visit_frequency VTK dumps (default: cwd).
        self.visit_dir = visit_dir

        # Resilience layer: only constructed when the deck (or caller) asks
        # for it, so disabled runs pay nothing — the plain solver drives the
        # plain port.  Imported lazily because repro.resilience sits above
        # repro.core in the layering.
        self.resilience = resilience
        if self.resilience is None and (deck.tl_resilient or deck.tl_inject):
            from repro.resilience import ResilienceConfig, ResilienceManager

            self.resilience = ResilienceManager(
                ResilienceConfig.from_deck(deck), trace=self.trace
            )
        if self.resilience is not None:
            from repro.resilience import ResilientSolver

            self.solver = ResilientSolver(self.solver, self.resilience)
            # Decomposed ports take comm-level faults and report retried
            # exchanges.
            attach = getattr(self.port, "attach_resilience", None)
            if attach is not None:
                attach(self.resilience)

        # Plan execution: every port runs its kernels through one shared
        # executor.  Fusion is opt-in per deck and only honoured by ports
        # that declare it legal.  Under resilience the executor compiles
        # the *instrumented* plan variant — fault triggers and scalar
        # guards are plan steps placed at fusion-group boundaries, so
        # injection and detection compose with fusion instead of forcing
        # it off.
        from repro.models.plan import PlanExecutor

        self.executor = PlanExecutor(
            self.port,
            fuse=deck.tl_fuse_kernels,
            resilience=self.resilience,
            codegen=deck.tl_codegen,
        )
        self.port.plan_executor = self.executor

        # Poison mode (debug): NaN-fill each work field where the liveness
        # pass proves it dead — at step entry and after the plans that
        # release it — so a stale read fails a finite guard instead of
        # silently reusing old bytes.  It fills each chunk's device
        # arrays, so it needs a port whose ``supports_poison`` declares
        # that those arrays are the ones the kernels use.
        if deck.tl_poison_dead_fields:
            if self.port.supports_poison:
                liveness = deck_liveness(deck)
                self.executor.poison_after = liveness.releases
                self.executor.poison_at_entry = liveness.dead_at_entry
            else:
                self.executor.fallbacks.append(
                    f"tl_poison_dead_fields requested but port "
                    f"'{self.port.model_name}' does not support it "
                    f"(supports_poison=False); dead fields are not poisoned"
                )
        # A requested optimisation the port cannot honour degrades
        # loudly: one warning line per fallback, plus a record on the
        # run result — never a silent flag drop.
        for message in self.executor.fallbacks:
            print(f"tealeaf: warning: {message}", file=sys.stderr)
        self._prologue, self._epilogue = solve_step_plans(self.grid.halo)

        # Residency tracking: skip device<->host traffic for fields the
        # device has not dirtied since the last readback.  Composes with
        # resilience: fault injection flows through read_field/write_field
        # (mirror-aware) and checkpoint restore invalidates residency
        # state for the restored fields before rewriting them.
        if deck.tl_residency_tracking:
            self.port.enable_residency_tracking()

        density, energy0 = generate_chunk(list(deck.states), self.grid)
        with self.trace.section("init"):
            self.port.set_state(density, energy0)

        # ABFT invariant: the implicit conduction operator is zero-flux, so
        # total internal energy (cell_volume * sum(density * energy)) is
        # conserved exactly; energy0 never changes after init, making the
        # expected value a run constant.
        inner = self.grid.inner()
        self._abft_expected = self.grid.cell_volume * float(
            (density[inner] * energy0[inner]).sum()
        )

    # ------------------------------------------------------------------ #
    def step(self) -> StepResult:
        """Advance one timestep, returning its measurements."""
        self.step_count += 1
        dt = self.deck.initial_timestep
        t0 = time.perf_counter()
        manager = self.resilience
        if manager is not None:
            manager.current_step = self.step_count

        retries = 0
        summary = None
        want_summary = (
            self.step_count % self.deck.summary_frequency == 0
            or self.step_count == self.deck.end_step
        )
        while True:
            try:
                with self.timers["solve"], self.trace.section(
                    "solve"
                ), self.trace.section(self.deck.solver):
                    self.executor.run(
                        self._prologue,
                        {"dt": dt, "coefficient": self.deck.tl_coefficient},
                    )
                    solve = self.solver.solve(self.port, self.deck)
                    self.executor.run(self._epilogue)
                if manager is not None:
                    violation = manager.abft_check(self.port, self._abft_expected)
                    if violation is not None:
                        retries += 1
                        if retries > self.deck.tl_max_retries:
                            raise CorruptionError(
                                f"ABFT energy check still failing after "
                                f"{retries - 1} step retries: {violation}"
                            )
                        # set_field re-derives energy1 from the untouched
                        # energy0, so re-running the pipeline from the top
                        # is a clean step retry.
                        manager.retry_backoff(retries)
                        continue
                if want_summary:
                    with self.timers["summary"], self.trace.section("summary"):
                        totals = self.port.dispatch(KernelCall("field_summary"))
                        summary = FieldSummary(*totals)
                break
            except RankFailureError as exc:
                # A rank died outside the solver's own recovery window
                # (e.g. during finalise or the summary reduction): repair
                # the ensemble and redo the whole step — the buddy restore
                # rolled the fields back, so the pipeline re-derives a
                # consistent state from the top.
                if manager is None:
                    raise
                retries += 1
                if retries > self.deck.tl_max_retries:
                    raise
                manager.record("detect", f"step-level rank failure: {exc}")
                manager.drain_comm(self.port)
                if not manager.repair_ranks(self.port):
                    raise
                manager.retry_backoff(retries)

        self.sim_time += dt
        wall = time.perf_counter() - t0

        if (
            self.deck.visit_frequency
            and self.step_count % self.deck.visit_frequency == 0
        ):
            self._write_visit_file()

        return StepResult(
            step=self.step_count,
            sim_time=self.sim_time,
            dt=dt,
            solve=solve,
            wall_seconds=wall,
            summary=summary,
            retries=retries,
        )

    def _write_visit_file(self) -> None:
        """Dump the state fields as VTK, like the reference visit output."""
        from pathlib import Path

        from repro.core.output import write_vtk

        base = Path(self.visit_dir) if self.visit_dir else Path(".")
        base.mkdir(parents=True, exist_ok=True)
        write_vtk(
            base / f"tea.{self.step_count:04d}.vtk",
            self.grid,
            {
                F.DENSITY: self.port.read_field(F.DENSITY),
                F.ENERGY1: self.port.read_field(F.ENERGY1),
                F.U: self.port.read_field(F.U),
            },
            title=f"tealeaf step {self.step_count} t={self.sim_time:.5f}",
        )

    def run(self) -> RunResult:
        """Run the deck to ``end_step`` (or ``end_time``, whichever first)."""
        t0 = time.perf_counter()
        steps: list[StepResult] = []
        while (
            self.step_count < self.deck.end_step
            and self.sim_time < self.deck.end_time
        ):
            steps.append(self.step())
        return RunResult(
            deck=self.deck,
            model=self.model,
            steps=steps,
            wall_seconds=time.perf_counter() - t0,
            trace=self.trace,
            resilience=self.resilience.report if self.resilience is not None else None,
            fallbacks=list(self.executor.fallbacks),
            comm=self.executor.comm.as_dict(),
        )

    # ------------------------------------------------------------------ #
    def field(self, name: str) -> np.ndarray:
        """Host copy of a field (delegates to the port)."""
        return self.port.read_field(name)
