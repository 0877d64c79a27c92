"""Recovery orchestration: config, the manager, and the resilient solver.

:class:`ResilientSolver` wraps any TeaLeaf solver and drives it through
the plan executor's *instrumented* compilation: fault triggers and
isfinite/divergence guards are explicit plan steps (``FaultStep`` /
``GuardStep``), so detection composes with kernel fusion and residency
tracking instead of living in a per-method proxy that fused dispatch
would bypass.  When a detector fires — non-finite reduction scalar,
corrupted checkpoint field, residual divergence, injected kernel
failure, lost halo message, or an exhausted iteration budget — it rolls
the fields back to a checkpoint and retries, with exponential backoff
and bounded attempts.  Chebyshev and PPCG degrade to plain CG instead of
retrying themselves: their eigenvalue bootstrap is the fragile phase,
and CG is the robust baseline every port implements, so a run finishes
with a degradation report instead of dying.

Rollback target policy: pointwise corruption (NaN/bitflip/lost message)
restores the *latest* periodic checkpoint — at most one checkpoint
interval of progress is lost; divergence and budget exhaustion restore
the solve-start *anchor*, because intermediate snapshots of a sick solve
are not worth resuming from.

Every action is recorded both in the :class:`ResilienceReport` (surfaced
as ``RunResult.resilience``) and as a ``resilience:*`` region in the
execution trace, so recovery overhead is countable exactly like kernel
launches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import fields as F
from repro.core.deck import Deck
from repro.core.solvers import CGSolver, ChebyshevSolver, PPCGSolver, Solver
from repro.core.solvers.base import SolveResult
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.detectors import (
    ResidualMonitor,
    abft_energy_violation,
    non_finite_fields,
)
from repro.resilience.events import (
    DEGRADE,
    DETECT,
    INJECT,
    RANK_DEATH,
    RANK_RECOVERY,
    RETRY,
    ROLLBACK,
    ResilienceEvent,
    ResilienceReport,
)
from repro.resilience.faults import FaultPlan, FaultSpec, parse_injections
from repro.util.retry import RetryPolicy
from repro.util.errors import (
    CommError,
    ConvergenceError,
    CorruptionError,
    DivergenceError,
    FaultInjectionError,
    RankFailureError,
)

#: Failures the recovery layer will roll back and retry on.
RECOVERABLE_ERRORS = (
    CorruptionError,
    DivergenceError,
    FaultInjectionError,
    CommError,
    ConvergenceError,
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer (deck options + CLI overrides)."""

    seed: int = 1234
    injections: tuple[FaultSpec, ...] = ()
    #: Periodic checkpoint cadence in solver iterations; also the bound K
    #: on how long planted field corruption can go undetected.
    checkpoint_frequency: int = 10
    max_retries: int = 3
    #: Consecutive growing residual observations before DivergenceError.
    divergence_window: int = 4
    divergence_growth: float = 1e3
    #: Relative drift of total internal energy tolerated by the ABFT check.
    abft_tolerance: float = 1e-4
    backoff_base_seconds: float = 0.002
    #: Solver iterations between liveness polls of the whole ensemble.
    heartbeat_interval: int = 10

    @classmethod
    def from_deck(cls, deck: Deck) -> "ResilienceConfig":
        return cls(
            seed=deck.tl_fault_seed,
            injections=parse_injections(deck.tl_inject),
            checkpoint_frequency=deck.tl_checkpoint_frequency,
            max_retries=deck.tl_max_retries,
            divergence_window=deck.tl_divergence_window,
            abft_tolerance=deck.tl_abft_tolerance,
            heartbeat_interval=deck.tl_heartbeat_interval,
        )


class ResilienceManager:
    """Shared state of one resilient run: plan, detectors, checkpoints, log."""

    def __init__(self, config: ResilienceConfig, trace=None, sleep=None) -> None:
        self.config = config
        self.trace = trace
        #: Injectable sleep so tests assert the backoff *schedule* instead
        #: of measuring wall time (defaults to the real clock).
        self._sleep = time.sleep if sleep is None else sleep
        self.plan = FaultPlan(
            config.injections, seed=config.seed, on_fire=self._on_injection
        )
        self.monitor = ResidualMonitor(
            window=config.divergence_window,
            growth_factor=config.divergence_growth,
        )
        self.checkpoints = CheckpointManager(frequency=config.checkpoint_frequency)
        self.report = ResilienceReport()
        #: Global solver iteration count (cg_calc_ur / cheby / jacobi sweeps).
        self.iteration = 0
        #: Driver timestep, set by TeaLeaf.step() for event attribution.
        self.current_step = 0
        #: Fields written since the last checkpoint capture (the write
        #: journal fed by the instrumented plan executor).  Incremental
        #: checkpoints copy only these; everything else is shared from the
        #: previous snapshot.
        self.dirty_since_checkpoint: set[str] = set()
        #: True once an executor has started journalling writes; until
        #: then every capture is a conservative full snapshot.
        self._journal_active = False
        #: Last-seen solver scalars (rro/beta/eigen estimates...), captured
        #: into checkpoints and restored on rollback so a resumed solve is
        #: not paired with scalars from the rolled-back attempt.
        self.scalar_state: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # event log
    # ------------------------------------------------------------------ #
    def record(self, kind: str, detail: str, backoff_seconds: float = 0.0) -> None:
        self.report.events.append(
            ResilienceEvent(
                kind=kind,
                detail=detail,
                step=self.current_step,
                iteration=self.iteration,
                backoff_seconds=backoff_seconds,
            )
        )
        if self.trace is not None:
            with self.trace.section("resilience"):
                self.trace.region(f"resilience:{kind}")

    def _on_injection(self, spec: FaultSpec, detail: str) -> None:
        self.record(INJECT, f"{spec.render()}: {detail}")

    # ------------------------------------------------------------------ #
    # guard callbacks (hot path when resilience is enabled)
    # ------------------------------------------------------------------ #
    def kernel_call(self, name: str) -> None:
        if self.plan:
            self.plan.kernel_called(name)

    def note_writes(self, names) -> None:
        """Journal fields a plan step wrote (instrumented executor only)."""
        self._journal_active = True
        self.dirty_since_checkpoint.update(names)

    def note_scalar(self, name: str, value) -> None:
        """Record a solver scalar for checkpoint capture."""
        if isinstance(value, (int, float)):
            self.scalar_state[name] = float(value)

    def guard_scalar(self, name: str, value: float) -> float:
        # The solvers' own Solver._finite guard covers their scalars; this
        # duplicates it for reductions the solver consumes unchecked.
        import math

        if not math.isfinite(value):
            raise CorruptionError(
                f"non-finite reduction scalar {name} = {value!r}"
            )
        return value

    def observe_residual(self, rrn: float) -> None:
        self.monitor.observe(rrn)

    def iteration_complete(self, port) -> None:
        self.iteration += 1
        if self.plan:
            for index, spec in self.plan.field_faults_due(self.iteration):
                arr = port.read_field(spec.target)
                self.plan.apply_field_fault(index, arr, port.h)
                port.write_field(spec.target, arr)
                # The corrupted field must be re-copied (and therefore
                # re-validated) by the next incremental capture.
                self.dirty_since_checkpoint.add(spec.target)
            for index, spec in self.plan.rank_kills_due(self.iteration):
                self._fire_rank_kill(port, index)
        dead = self._dead_chunks(port)
        if not dead:
            # Buddy checkpoints and global checkpoints share one cadence,
            # so both cut the run at the same consistent iteration.
            if self.checkpoints.due(self.iteration):
                self._buddy_capture(port)
                captured = self.checkpoints.capture_periodic(
                    port,
                    self.iteration,
                    dirty=self.dirty_since_checkpoint
                    if self._journal_active
                    else None,
                    scalars=dict(self.scalar_state),
                )
                self.report.checkpoints_taken = self.checkpoints.taken
                if captured:
                    # A refused (diverging) capture keeps accumulating: the
                    # last *good* snapshot is still the sharing baseline.
                    self.dirty_since_checkpoint.clear()
        if (
            self.config.heartbeat_interval > 0
            and self.iteration % self.config.heartbeat_interval == 0
        ):
            self.heartbeat(port)

    def _dead_chunks(self, port) -> tuple[int, ...]:
        dead = getattr(port, "dead_chunks", None)
        return dead() if dead is not None else ()

    def _fire_rank_kill(self, port, index: int) -> None:
        """Consume a kill spec; only a decomposed ensemble can die."""
        chunk = int(self.plan.specs[index].target)
        kill = getattr(port, "kill_rank", None)
        if kill is None:
            self.plan.apply_rank_kill(index)
            self.record(
                RANK_DEATH,
                f"kill of rank {chunk} ignored: not a decomposed ensemble",
            )
            return
        if chunk >= port.nchunks:
            self.plan.apply_rank_kill(index)
            self.record(
                RANK_DEATH,
                f"kill of rank {chunk} ignored: only "
                f"{port.nchunks} chunks in the decomposition",
            )
            return
        self.plan.apply_rank_kill(index)
        rank = kill(chunk)
        self.record(
            RANK_DEATH,
            f"rank {rank} (chunk {chunk}) fail-stopped",
        )

    def _buddy_capture(self, port) -> None:
        capture = getattr(port, "capture_rank_checkpoints", None)
        if capture is not None:
            capture(self.iteration, self.current_step)

    def heartbeat(self, port) -> None:
        """Poll ensemble liveness between exchanges; raise on a miss."""
        world = getattr(port, "world", None)
        if world is None:
            return
        world.heartbeat()
        dead = self._dead_chunks(port)
        if dead:
            dead_ranks = tuple(port.rank_of_chunk[c] for c in dead)
            raise RankFailureError(
                f"heartbeat missed by rank(s) "
                f"{', '.join(map(str, dead_ranks))} "
                f"(chunk(s) {', '.join(map(str, dead))})",
                dead_ranks=dead_ranks,
            )

    def eigen_filter(self, estimate):
        if self.plan:
            estimate = self.plan.filter_eigen_estimate(estimate)
        # The (possibly corrupted) bootstrap scalars the solver will run
        # with belong to the checkpointable solver state.
        self.note_scalar("eigen_min", estimate.eigen_min)
        self.note_scalar("eigen_max", estimate.eigen_max)
        return estimate

    # ------------------------------------------------------------------ #
    # recovery actions
    # ------------------------------------------------------------------ #
    def begin_solve(self, port) -> None:
        self.monitor.reset()
        self._buddy_capture(port)
        self.checkpoints.capture_anchor(
            port, self.iteration, scalars=dict(self.scalar_state)
        )
        self.report.checkpoints_taken = self.checkpoints.taken
        self.dirty_since_checkpoint.clear()

    def validate_solution(self, port) -> None:
        bad = non_finite_fields(port, (F.U,))
        if bad:
            raise CorruptionError(
                f"solve returned with non-finite values in {', '.join(bad)}"
            )

    def rollback(self, port, anchor: bool = False) -> None:
        target = "anchor" if anchor else "latest checkpoint"
        restored = self.checkpoints.restore(port, anchor=anchor)
        # Solver scalars from the rolled-back attempt are inconsistent
        # with the restored fields; resume from the checkpoint's.
        ckpt = self.checkpoints.anchor if anchor else self.checkpoints.latest
        if ckpt is not None:
            self.scalar_state = dict(ckpt.scalars)
        # The port now matches the restored snapshot exactly, so the
        # sharing baseline is clean again.
        self.dirty_since_checkpoint.clear()
        self.record(
            ROLLBACK,
            f"restored {target} (iteration {restored}) into "
            f"{', '.join(self.checkpoints.field_names)}",
        )

    def drain_comm(self, port) -> None:
        world = getattr(port, "world", None)
        if world is not None:
            dropped = world.drain()
            if dropped:
                per_rank = ", ".join(
                    f"rank {r}: {n}"
                    for r, n in sorted(dropped.per_rank.items())
                )
                self.record(
                    DETECT,
                    f"drained {int(dropped)} undelivered halo message(s) "
                    f"({per_rank})",
                )

    def repair_ranks(self, port) -> bool:
        """Recover dead chunks via the port's rank policy, if it has one.

        Returns False when the port has no rank-recovery machinery (a
        single-chunk run) or nothing is dead; raises
        :class:`RankFailureError` when the configured policy cannot repair
        the ensemble.  On success the whole ensemble has been rolled back
        to the buddy-snapshot cut, so the caller must *not* also restore a
        global checkpoint on top.
        """
        recover = getattr(port, "recover_ranks", None)
        if recover is None:
            return False
        dead = port.dead_chunks()
        if not dead:
            return False
        for chunk in dead:
            self.record(
                DETECT,
                f"chunk {chunk} lost: rank {port.rank_of_chunk[chunk]} "
                "is fail-stop dead",
            )
        for detail in recover():
            self.record(
                RANK_RECOVERY, f"policy={port.rank_policy}: {detail}"
            )
        return True

    @property
    def retry_policy(self) -> RetryPolicy:
        """The shared backoff schedule (see :mod:`repro.util.retry`).

        Jitter-free so a resilient solve replays identically; the campaign
        scheduler layers jitter on top of the same policy type.
        """
        return RetryPolicy(
            base_seconds=self.config.backoff_base_seconds,
            factor=2.0,
            jitter=0.0,
            max_retries=self.config.max_retries,
        )

    def backoff_seconds(self, attempt: int) -> float:
        """The exponential backoff schedule (pure; asserted by tests)."""
        return self.retry_policy.delay_seconds(attempt)

    def retry_backoff(self, attempt: int) -> None:
        seconds = self.backoff_seconds(attempt)
        if seconds > 0:
            self._sleep(seconds)
        self.record(
            RETRY, f"retry attempt {attempt}", backoff_seconds=seconds
        )

    def abft_check(self, port, expected_ie: float) -> str | None:
        """Energy-conservation ABFT between steps; records a detection."""
        if self.trace is not None:
            with self.trace.section("resilience"):
                summary = port.field_summary()
        else:
            summary = port.field_summary()
        violation = abft_energy_violation(
            summary[2], expected_ie, self.config.abft_tolerance
        )
        if violation is not None:
            self.record(DETECT, f"ABFT: {violation}")
        return violation


class ResilientSolver(Solver):
    """Any solver, wrapped with detection, rollback-retry, and degradation."""

    def __init__(self, inner: Solver, manager: ResilienceManager) -> None:
        self.inner = inner
        self.manager = manager
        self.name = inner.name
        # Seam for eigenvalue-corruption injection (cheby/ppcg bootstrap).
        inner.eigen_filter = manager.eigen_filter

    def solve(self, port, deck: Deck) -> SolveResult:
        m = self.manager
        # Ensure the executor the solver will pick up (executor_for) runs
        # the *instrumented* plan variant with our manager: fault triggers
        # and scalar guards are plan steps, so they survive fusion and
        # never bypass residency tracking.
        from repro.models.plan import PlanExecutor, executor_for

        ex = executor_for(port)
        if getattr(ex, "resilience", None) is not m:
            ex = PlanExecutor(port, fuse=ex.fuse, resilience=m)
            port.plan_executor = ex
        m.begin_solve(port)
        solver: Solver = self.inner
        attempt = 0
        attempt_start = m.iteration
        while True:
            try:
                result = solver.solve(port, deck)
                m.validate_solution(port)
                return result
            except RECOVERABLE_ERRORS as exc:
                attempt += 1
                m.report.wasted_iterations += m.iteration - attempt_start
                m.record(DETECT, f"{type(exc).__name__}: {exc}")
                if attempt > m.config.max_retries:
                    raise
                m.drain_comm(port)
                if isinstance(exc, RankFailureError) or m._dead_chunks(port):
                    # Hard fault: repair the ensemble (spare adoption or
                    # shrink) — that already rolled every chunk back to
                    # the buddy-snapshot cut, so skip the global rollback.
                    if not m.repair_ranks(port):
                        raise
                    m.retry_backoff(attempt)
                    m.monitor.reset()
                    attempt_start = m.iteration
                    continue
                degrade = isinstance(solver, (ChebyshevSolver, PPCGSolver))
                # Divergence and exhausted budgets restart from the anchor:
                # mid-flight snapshots of a sick solve are not worth
                # resuming.  Pointwise corruption resumes from the latest
                # good periodic checkpoint.
                to_anchor = degrade or isinstance(
                    exc, (DivergenceError, ConvergenceError)
                )
                m.rollback(port, anchor=to_anchor)
                if degrade:
                    solver = CGSolver()
                    m.record(
                        DEGRADE,
                        f"{self.inner.name} degraded to cg after "
                        f"{type(exc).__name__}",
                    )
                m.retry_backoff(attempt)
                m.monitor.reset()
                attempt_start = m.iteration
