"""Input-deck parser for the ``tea.in`` dialect.

The reference TeaLeaf reads a free-format deck between ``*tea`` and
``*endtea`` markers.  Both ``key value`` and ``key=value`` spellings are
accepted (the wild decks use both), ``!`` or ``#`` start a comment, and
solver selection is via flag lines (``tl_use_cg`` etc.).

Example
-------
::

    *tea
    state 1 density=100.0 energy=0.0001
    state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=4.0 ymin=1.0 ymax=8.0
    x_cells=256
    y_cells=256
    xmin=0.0
    xmax=10.0
    ymin=0.0
    ymax=10.0
    initial_timestep=0.004
    end_step=10
    tl_use_ppcg
    tl_ppcg_inner_steps=10
    tl_max_iters=10000
    tl_eps=1e-15
    *endtea
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.grid import Grid2D
from repro.core.state import Geometry, State
from repro.util.errors import DeckError

#: Recognised solver names, mapping deck flags to canonical identifiers.
SOLVER_FLAGS = {
    "tl_use_cg": "cg",
    "tl_use_chebyshev": "chebyshev",
    "tl_use_cheby": "chebyshev",
    "tl_use_ppcg": "ppcg",
    "tl_use_jacobi": "jacobi",
    # Extension flag (not in the reference deck dialect): the explicit
    # scheme from the paper's introduction, for the 1/dx^2 demonstration.
    "tl_use_explicit": "explicit",
}

#: Conduction coefficient options (paper §1.1: face-centred diffusion
#: coefficients based on cell average densities).
COEFFICIENTS = ("conductivity", "recip_conductivity")


@dataclass(frozen=True)
class Deck:
    """Validated TeaLeaf problem definition."""

    x_cells: int = 10
    y_cells: int = 10
    xmin: float = 0.0
    xmax: float = 10.0
    ymin: float = 0.0
    ymax: float = 10.0
    initial_timestep: float = 0.004
    end_step: int = 10
    end_time: float = 10.0
    solver: str = "cg"
    tl_eps: float = 1e-15
    tl_max_iters: int = 10_000
    tl_coefficient: str = "conductivity"
    #: CG preconditioner: "none" or "jac_diag" (diagonal Jacobi), matching
    #: the reference app's tl_preconditioner_type options.
    tl_preconditioner_type: str = "none"
    tl_ppcg_inner_steps: int = 10
    #: CG iterations used to estimate the eigenvalue bounds that seed the
    #: Chebyshev / PPCG polynomial (reference default).
    tl_cg_eigen_steps: int = 20
    #: Check convergence every N Chebyshev iterations.
    tl_check_frequency: int = 10
    summary_frequency: int = 10
    #: Write a VTK visualisation file every N steps (0 = never), as the
    #: reference app's visit_frequency does.
    visit_frequency: int = 0
    #: Enable the resilience layer (checkpointing, divergence monitoring,
    #: ABFT energy check, rollback-and-retry) even with no injected faults.
    tl_resilient: bool = False
    #: Comma-separated fault specs, e.g. ``nan:u:5,drop:p:3`` (empty = none).
    #: A non-empty value implies ``tl_resilient``.
    tl_inject: str = ""
    #: Seed for the deterministic fault-injection RNG.
    tl_fault_seed: int = 1234
    #: Take an in-memory checkpoint every N solver iterations.
    tl_checkpoint_frequency: int = 10
    #: Rollback-and-retry budget per solve (and per-step ABFT retries).
    tl_max_retries: int = 3
    #: Consecutive residual-growth observations before declaring divergence.
    tl_divergence_window: int = 4
    #: Relative tolerance for the energy-conservation ABFT check.
    tl_abft_tolerance: float = 1e-4
    #: Recovery policy for fail-stop rank death in a decomposed run:
    #: "none" (fatal), "spare" (a reserve rank adopts the dead chunk from
    #: its buddy checkpoint), or "shrink" (re-decompose over survivors).
    tl_rank_policy: str = "none"
    #: Reserve ranks held out of the decomposition for the spare policy.
    tl_spare_ranks: int = 0
    #: Solver iterations between ensemble liveness polls (0 = disabled;
    #: exchanges still fail fast on a dead peer).
    tl_heartbeat_interval: int = 10
    #: Let the plan compiler fuse adjacent fusable kernel launches on
    #: ports that declare fusion legal.  Composes with resilience: fault
    #: triggers and scalar guards are plan steps placed at fusion-group
    #: boundaries, so injection/detection never bypass a fused dispatch.
    tl_fuse_kernels: bool = False
    #: Track device-side field residency so clean fields skip the
    #: device->host readback (offload models only; no-op on host models).
    #: Composes with resilience: checkpoint restore invalidates the
    #: residency state of restored fields so devices re-upload them.
    tl_residency_tracking: bool = False
    #: Run solver plans through the codegen backend: each kernel call /
    #: fused group executes as one generated, cached NumPy function
    #: (see repro.models.codegen).  Bitwise-identical to the interpreted
    #: path; decomposed ports fall back to interpreted dispatch.
    tl_codegen: bool = False
    #: Async overlap executor: pair each halo exchange with the stencil
    #: sweep behind it, post the exchange, run the sweep's interior core
    #: while messages are in flight, then finish the boundary strips
    #: (see repro.models.overlap).  Bitwise-identical to the synchronous
    #: plan; ports that cannot split fall back with a recorded warning.
    tl_overlap: bool = False
    #: Debug mode: NaN-fill each work field at the death points the
    #: liveness pass proves (see repro.core.driver.deck_liveness), so any
    #: read of a dead field fails a finite guard instead of consuming
    #: silently stale bytes.  Bitwise-invisible to a correct run;
    #: decomposed ports fall back with a recorded warning.
    tl_poison_dead_fields: bool = False
    states: tuple[State, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.x_cells < 1 or self.y_cells < 1:
            raise DeckError("x_cells and y_cells must be positive")
        if self.initial_timestep <= 0:
            raise DeckError("initial_timestep must be positive")
        if self.end_step < 1:
            raise DeckError("end_step must be at least 1")
        if self.solver not in set(SOLVER_FLAGS.values()):
            raise DeckError(f"unknown solver '{self.solver}'")
        if self.tl_coefficient not in COEFFICIENTS:
            raise DeckError(f"unknown coefficient '{self.tl_coefficient}'")
        if not (0 < self.tl_eps < 1):
            raise DeckError("tl_eps must be in (0, 1)")
        if self.tl_max_iters < 1:
            raise DeckError("tl_max_iters must be positive")
        if self.tl_ppcg_inner_steps < 1:
            raise DeckError("tl_ppcg_inner_steps must be positive")
        if self.tl_cg_eigen_steps < 2:
            raise DeckError("tl_cg_eigen_steps must be at least 2")
        if self.tl_preconditioner_type not in ("none", "jac_diag"):
            raise DeckError(
                f"unknown preconditioner '{self.tl_preconditioner_type}' "
                "(expected none or jac_diag)"
            )
        if self.tl_check_frequency < 1:
            raise DeckError("tl_check_frequency must be positive")
        if self.summary_frequency < 1:
            raise DeckError("summary_frequency must be positive")
        if self.visit_frequency < 0:
            raise DeckError("visit_frequency must be non-negative")
        if self.tl_checkpoint_frequency < 1:
            raise DeckError("tl_checkpoint_frequency must be positive")
        if self.tl_max_retries < 0:
            raise DeckError("tl_max_retries must be non-negative")
        if self.tl_divergence_window < 2:
            raise DeckError("tl_divergence_window must be at least 2")
        if not (0 < self.tl_abft_tolerance < 1):
            raise DeckError("tl_abft_tolerance must be in (0, 1)")
        if self.tl_rank_policy not in ("none", "spare", "shrink"):
            raise DeckError(
                f"unknown rank policy '{self.tl_rank_policy}' "
                "(expected none, spare or shrink)"
            )
        if self.tl_spare_ranks < 0:
            raise DeckError("tl_spare_ranks must be non-negative")
        # The only genuinely unsupported combinations left are within the
        # rank-recovery options themselves: fusion, residency, injection
        # and resilience all compose (plan-level instrumentation).
        if self.tl_rank_policy == "spare" and self.tl_spare_ranks < 1:
            raise DeckError(
                "tl_rank_policy spare needs tl_spare_ranks >= 1 "
                "(no reserve rank to adopt a dead chunk)"
            )
        if self.tl_spare_ranks > 0 and self.tl_rank_policy != "spare":
            raise DeckError(
                f"tl_spare_ranks {self.tl_spare_ranks} is only meaningful "
                "with tl_rank_policy spare"
            )
        if self.tl_heartbeat_interval < 0:
            raise DeckError("tl_heartbeat_interval must be non-negative")
        if self.tl_inject:
            # Validate the fault specs at deck time so a bad --inject or
            # tl_inject line fails before any solve starts.  Imported
            # lazily: deck is a core module and resilience sits above it.
            from repro.resilience.faults import parse_injections

            try:
                parse_injections(self.tl_inject)
            except ValueError as exc:
                raise DeckError(f"bad tl_inject spec: {exc}") from exc
        if self.tl_poison_dead_fields:
            # Checkpoints validate every captured field as finite, so a
            # poisoned dead field would read as corruption: the resilience
            # layer is out.  The explicit solver builds no plans to analyse.
            if self.tl_resilient or self.tl_inject:
                raise DeckError(
                    "tl_poison_dead_fields is incompatible with "
                    "tl_resilient/tl_inject (checkpoints reject the "
                    "NaN-filled dead fields as corruption)"
                )
            if self.solver == "explicit":
                raise DeckError(
                    "tl_poison_dead_fields needs a plan-based solver "
                    "(explicit has no plan IR to run liveness on)"
                )
        if self.states and not any(s.index == 1 for s in self.states):
            raise DeckError("state 1 (the background) is missing")

    def grid(self) -> Grid2D:
        """Construct the grid geometry this deck describes."""
        return Grid2D(
            nx=self.x_cells,
            ny=self.y_cells,
            xmin=self.xmin,
            xmax=self.xmax,
            ymin=self.ymin,
            ymax=self.ymax,
        )

    def with_mesh(self, n: int) -> "Deck":
        """Copy of this deck on an ``n x n`` mesh (used by mesh sweeps)."""
        return replace(self, x_cells=n, y_cells=n)

    def with_solver(self, solver: str) -> "Deck":
        """Copy of this deck using a different solver."""
        return replace(self, solver=solver)


_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=?\s*")


def _split_pairs(body: str, where: str) -> dict[str, str]:
    """Split ``key=value`` / ``key value`` pairs from a state line body."""
    pairs: dict[str, str] = {}
    tokens = body.replace("=", " ").split()
    if len(tokens) % 2:
        raise DeckError(f"{where}: expected key/value pairs, got '{body}'")
    for key, value in zip(tokens[::2], tokens[1::2]):
        pairs[key.lower()] = value
    return pairs


def _parse_state(line: str, lineno: int) -> State:
    parts = line.split(None, 2)
    if len(parts) < 3:
        raise DeckError(f"line {lineno}: malformed state line '{line}'")
    try:
        index = int(parts[1])
    except ValueError as exc:
        raise DeckError(f"line {lineno}: bad state index '{parts[1]}'") from exc
    pairs = _split_pairs(parts[2], f"line {lineno}")
    kwargs: dict[str, float] = {}
    geometry = Geometry.BACKGROUND if index == 1 else None
    for key, value in pairs.items():
        if key == "geometry":
            try:
                geometry = Geometry(value.lower())
            except ValueError as exc:
                raise DeckError(f"line {lineno}: unknown geometry '{value}'") from exc
        elif key in ("density", "energy", "xmin", "xmax", "ymin", "ymax", "radius"):
            try:
                kwargs[key] = float(value)
            except ValueError as exc:
                raise DeckError(f"line {lineno}: bad number '{value}' for {key}") from exc
        else:
            raise DeckError(f"line {lineno}: unknown state key '{key}'")
    if geometry is None:
        raise DeckError(f"line {lineno}: state {index} missing geometry")
    if "density" not in kwargs or "energy" not in kwargs:
        raise DeckError(f"line {lineno}: state {index} needs density and energy")
    return State(index=index, geometry=geometry, **kwargs)


_INT_KEYS = {
    "x_cells",
    "y_cells",
    "end_step",
    "tl_max_iters",
    "tl_ppcg_inner_steps",
    "tl_cg_eigen_steps",
    "tl_check_frequency",
    "summary_frequency",
    "visit_frequency",
    "tl_fault_seed",
    "tl_checkpoint_frequency",
    "tl_max_retries",
    "tl_divergence_window",
    "tl_spare_ranks",
    "tl_heartbeat_interval",
}
_FLOAT_KEYS = {
    "xmin",
    "xmax",
    "ymin",
    "ymax",
    "initial_timestep",
    "end_time",
    "tl_eps",
    "tl_abft_tolerance",
}
_IGNORED_KEYS = {
    # accepted-and-ignored reference-deck keys, kept so real tea.in files load
    "tl_use_fortran_kernels",
    "tl_use_c_kernels",
    "tiles_per_chunk",
    "profiler_on",
    "test_problem",
}


def parse_deck(text: str) -> Deck:
    """Parse deck text into a validated :class:`Deck`."""
    in_body = False
    saw_begin = False
    values: dict[str, object] = {}
    states: list[State] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"[!#]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered == "*tea":
            if saw_begin:
                raise DeckError(f"line {lineno}: duplicate *tea")
            saw_begin = in_body = True
            continue
        if lowered == "*endtea":
            if not in_body:
                raise DeckError(f"line {lineno}: *endtea before *tea")
            in_body = False
            continue
        if not in_body:
            continue

        if lowered.startswith("state"):
            states.append(_parse_state(line, lineno))
            continue
        if lowered in SOLVER_FLAGS:
            values["solver"] = SOLVER_FLAGS[lowered]
            continue
        if lowered == "tl_resilient":
            values["tl_resilient"] = True
            continue
        if lowered in (
            "tl_fuse_kernels",
            "tl_residency_tracking",
            "tl_codegen",
            "tl_overlap",
            "tl_poison_dead_fields",
        ):
            values[lowered] = True
            continue
        if lowered in _IGNORED_KEYS:
            continue

        tokens = line.replace("=", " ").split()
        key = tokens[0].lower()
        if key in _IGNORED_KEYS:
            continue
        if len(tokens) != 2:
            raise DeckError(f"line {lineno}: expected 'key value', got '{line}'")
        value = tokens[1]
        if key == "tl_coefficient":
            values["tl_coefficient"] = value.lower()
        elif key == "tl_preconditioner_type":
            values["tl_preconditioner_type"] = value.lower()
        elif key == "tl_inject":
            values["tl_inject"] = value.lower()
        elif key == "tl_rank_policy":
            values["tl_rank_policy"] = value.lower()
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError as exc:
                raise DeckError(f"line {lineno}: bad integer '{value}' for {key}") from exc
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise DeckError(f"line {lineno}: bad number '{value}' for {key}") from exc
        else:
            raise DeckError(f"line {lineno}: unknown deck key '{key}'")

    if not saw_begin:
        raise DeckError("deck contains no *tea block")
    if in_body:
        raise DeckError("deck missing *endtea")
    if not states:
        raise DeckError("deck defines no states")

    return Deck(states=tuple(states), **values)  # type: ignore[arg-type]


def parse_deck_file(path: str | Path) -> Deck:
    """Parse a deck file from disk."""
    return parse_deck(Path(path).read_text())


def default_deck(
    n: int = 128,
    solver: str = "cg",
    end_step: int = 2,
    eps: float = 1e-10,
) -> Deck:
    """The paper's benchmark problem scaled to an ``n x n`` mesh.

    The state layout follows the standard TeaLeaf benchmark series
    (tea_bm: a dense cold background with a hot rectangular region touching
    the domain edge), which is what the paper's mesh-convergence study runs
    at 4096x4096.
    """
    states = (
        State(index=1, density=100.0, energy=0.0001),
        State(
            index=2,
            density=0.1,
            energy=25.0,
            geometry=Geometry.RECTANGLE,
            xmin=0.0,
            xmax=4.0,
            ymin=1.0,
            ymax=8.0,
        ),
    )
    return Deck(
        x_cells=n,
        y_cells=n,
        solver=solver,
        end_step=end_step,
        tl_eps=eps,
        states=states,
    )
