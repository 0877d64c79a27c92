"""Resilient solve pipeline: fault injection, detection, and recovery.

Three pillars (see ``docs/resilience.md``):

* **fault injection** — a deterministic, seeded :class:`FaultPlan` that
  can flip bits / inject NaN into named fields at chosen iterations,
  drop or corrupt a halo-exchange message in a decomposed run, force a
  kernel to raise mid-solve, or corrupt the Chebyshev/PPCG eigenvalue
  estimate; activated via deck options (``tl_inject``) and the CLI's
  ``--inject`` flags;
* **detection** — cheap ``isfinite`` guards on solver reduction scalars,
  a residual-divergence monitor, field validation at checkpoint cadence,
  and an energy-conservation ABFT check between steps;
* **recovery** — periodic in-memory checkpoints with rollback-and-retry,
  bounded retries with exponential backoff, and graceful degradation of
  Chebyshev/PPCG to plain CG;
* **rank-level fault tolerance** (:mod:`repro.resilience.ranks`) —
  fail-stop rank death and straggler injection for decomposed runs, buddy
  checkpointing, and ULFM-style ``spare``/``shrink`` recovery policies.

Because all of it drives the :class:`~repro.models.base.Port` interface,
every programming-model port — and the decomposed MPI+X ensemble —
degrades and recovers identically, turning robustness itself into a
measured, cross-model property.
"""

from repro.resilience.checkpoint import CHECKPOINT_FIELDS, Checkpoint, CheckpointManager
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
from repro.resilience.ranks import (
    RANK_POLICIES,
    SNAPSHOT_FIELDS,
    BuddyStore,
    ChunkSnapshot,
    RankRecovery,
    assemble_global,
)
from repro.resilience.recovery import (
    RECOVERABLE_ERRORS,
    ResilienceConfig,
    ResilienceManager,
    ResilientSolver,
)

__all__ = [
    "CHECKPOINT_FIELDS",
    "Checkpoint",
    "CheckpointManager",
    "ResidualMonitor",
    "abft_energy_violation",
    "non_finite_fields",
    "INJECT",
    "DETECT",
    "ROLLBACK",
    "RETRY",
    "DEGRADE",
    "RANK_DEATH",
    "RANK_RECOVERY",
    "ResilienceEvent",
    "ResilienceReport",
    "RANK_POLICIES",
    "SNAPSHOT_FIELDS",
    "BuddyStore",
    "ChunkSnapshot",
    "RankRecovery",
    "assemble_global",
    "FaultPlan",
    "FaultSpec",
    "parse_injections",
    "RECOVERABLE_ERRORS",
    "ResilienceConfig",
    "ResilienceManager",
    "ResilientSolver",
]
