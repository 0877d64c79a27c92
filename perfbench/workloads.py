"""The benchmark's workloads: seeded decks, one request, checks, clocks.

A *request* is what a user of the reproduction submits: one deck (four
for ``batch``) solved from scratch, port construction included.  Every
request is one timestep of a CG solve to ``EPS``; the seed varies the
material layout (densities, energies, region shapes), so iteration
counts differ from seed to seed and every timing is reported per solver
iteration.

Two clocks are read for every request:

* **measured** -- host wall time of the request on this machine;
* **modelled** -- device time the paper's machine model assigns to the
  request's execution trace (:mod:`repro.machine.perfmodel` on the
  paper's CPU or GPU), plus the exposed halo time of the overlap cost
  model (``RunResult.comm``).  It is what the paper's figures are made
  of, and it depends only on the trace, never on this machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Relative residual every solve converges to.
EPS = 1e-8
#: Mesh of the warm-up deck that fills the plan and codegen caches.
WARMUP_MESH = 16
#: The true residual may exceed the solver's recurrence residual by this
#: factor before a solve counts as wrong.
RESIDUAL_SLACK = 10.0
#: Largest relative drift of total energy (sum of u) across a solve.
CONSERVATION_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration: mesh, port, deck flags, shape."""

    name: str
    mesh: int
    model: str
    #: Paper device ("cpu" or "gpu") whose model prices the trace.
    device: str
    #: Deck flags switched on; flags the program no longer has are skipped.
    flags: tuple[str, ...]
    #: Weights of the machine-speed yardstick's parts (dispatch loop,
    #: whole-array sweep, row-chunk sweep) that best track this request's
    #: sensitivity to the host's speed regimes (see yardstick.py).
    yardstick: tuple[float, float, float]
    ranks: int = 1
    lanes: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "interp", 128, "openmp-f90", "cpu", ("tl_resilient",), (0.1, 0.1, 0.8)
        ),
        Workload(
            "codegen",
            256,
            "cuda",
            "gpu",
            ("tl_codegen", "tl_fuse_kernels", "tl_residency_tracking"),
            (0.1, 0.3, 0.6),
        ),
        Workload(
            "ranks",
            256,
            "openmp-f90",
            "cpu",
            ("tl_overlap",),
            (0.1, 0.1, 0.8),
            ranks=4,
        ),
        Workload(
            "batch",
            128,
            "openmp-f90",
            "cpu",
            ("tl_codegen", "tl_fuse_kernels"),
            (0.2, 0.8, 0.0),
            lanes=4,
        ),
    )
}


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def make_decks(workload: Workload, seed: int, mesh: int | None = None) -> list:
    """The request's decks; the same seed always gives the same decks.

    The layout follows the TeaLeaf benchmark series: a dense cold
    background, a light hot rectangle on the left edge and a medium
    disc, with every value drawn from ranges on which CG converges.
    """
    from repro.core.deck import Deck
    from repro.core.state import Geometry, State

    rng = random.Random(f"{workload.name}:{seed}")
    known = {f.name for f in dataclasses.fields(Deck)}
    flags = {name: True for name in workload.flags if name in known}
    n = workload.mesh if mesh is None else mesh
    decks = []
    for _ in range(workload.lanes):
        states = (
            State(index=1, density=rng.uniform(60.0, 140.0), energy=0.0001),
            State(
                index=2,
                density=rng.uniform(0.05, 0.3),
                energy=rng.uniform(15.0, 35.0),
                geometry=Geometry.RECTANGLE,
                xmin=0.0,
                xmax=rng.uniform(2.5, 5.0),
                ymin=rng.uniform(0.5, 2.5),
                ymax=rng.uniform(6.5, 9.5),
            ),
            State(
                index=3,
                density=rng.uniform(2.0, 20.0),
                energy=rng.uniform(1.0, 10.0),
                geometry=Geometry.CIRCLE,
                xmin=rng.uniform(6.5, 8.5),
                ymin=rng.uniform(2.0, 8.0),
                radius=rng.uniform(0.5, 1.5),
            ),
        )
        decks.append(
            Deck(
                x_cells=n,
                y_cells=n,
                end_step=1,
                tl_eps=EPS,
                states=states,
                **flags,
            )
        )
    return decks


# --------------------------------------------------------------------- #
# one request
# --------------------------------------------------------------------- #
@dataclass
class Request:
    """What one request produced: its wall time and per-deck results."""

    wall_s: float
    runs: list
    #: One app per deck when the fields can be read back (not batched).
    apps: list
    #: ``sha256(u)[:16]`` per deck.
    u_hashes: list[str]

    @property
    def iterations(self) -> int:
        return sum(run.total_iterations for run in self.runs)


def u_hash(u: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()[:16]


def _batch_runner() -> Any:
    try:
        from repro.core.batch import run_batch
    except ImportError:
        return None
    return run_batch


def run_request(workload: Workload, decks: list) -> Request:
    """Build and solve every deck of one request, timing the whole of it.

    Decks of a multi-lane workload go through the program's batch runner
    when it has one, and are solved one after another otherwise.
    """
    from repro.core import fields as F
    from repro.core.driver import TeaLeaf

    run_batch = _batch_runner() if workload.lanes > 1 else None
    if run_batch is not None:
        t0 = time.perf_counter()
        batch = run_batch(decks, model=workload.model)
        wall = time.perf_counter() - t0
        if batch.errors:
            raise RuntimeError("; ".join(batch.errors))
        return Request(wall, list(batch.results), [], list(batch.u_hashes))

    t0 = time.perf_counter()
    apps, runs = [], []
    for deck in decks:
        if workload.ranks > 1:
            from repro.comm.multichunk import MultiChunkPort
            from repro.models.tracing import Trace

            trace = Trace()
            port = MultiChunkPort(
                deck.grid(), workload.ranks, model=workload.model, trace=trace
            )
            app = TeaLeaf(deck, port=port, trace=trace)
        else:
            app = TeaLeaf(deck, model=workload.model)
        runs.append(app.run())
        apps.append(app)
    wall = time.perf_counter() - t0
    return Request(wall, runs, apps, [u_hash(app.field(F.U)) for app in apps])


# --------------------------------------------------------------------- #
# the modelled clock
# --------------------------------------------------------------------- #
MODEL_PARTS = (
    "compute",
    "launch",
    "regions",
    "reductions",
    "transfers",
    "comm_exposed",
    "comm_hidden",
)


def modelled(workload: Workload, request: Request) -> dict[str, float]:
    """Modelled device seconds of a request, by cost component.

    ``total`` is device time plus exposed communication; hidden
    communication overlaps compute and is reported but not added.
    """
    from repro.machine.devices import device_for
    from repro.machine.perfmodel import PerformanceModel
    from repro.models.tracing import EventKind

    pm = PerformanceModel(device_for(workload.device))
    out = dict.fromkeys(MODEL_PARTS, 0.0)
    out["launches"] = 0
    out["transfer_events"] = 0
    for run in request.runs:
        b = pm.time_trace(run.trace, workload.model, run.deck.solver)
        out["compute"] += b.compute
        out["launch"] += b.launch
        out["regions"] += b.regions
        out["reductions"] += b.reductions
        out["transfers"] += b.transfers
        out["launches"] += b.kernel_launches
        out["transfer_events"] += len(run.trace.filtered(kind=EventKind.TRANSFER))
        comm = run.comm or {}
        out["comm_exposed"] += comm.get("exposed_ms", 0.0) / 1e3
        out["comm_hidden"] += comm.get("hidden_ms", 0.0) / 1e3
    out["total"] = sum(out[k] for k in MODEL_PARTS if k != "comm_hidden")
    return out


# --------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------- #
def _apply_operator(v: np.ndarray, kx: np.ndarray, ky: np.ndarray, h: int) -> np.ndarray:
    """The implicit conduction operator on the interior, written here
    independently of the program's stencils: zero-flux boundaries
    (mirrored ghosts), face coefficients kx (west faces) and ky (south)."""
    ny, nx = v.shape[0] - 2 * h, v.shape[1] - 2 * h
    c = v[h : h + ny, h : h + nx]
    g = np.pad(c, 1, mode="symmetric")
    kw = kx[h : h + ny, h : h + nx]
    ke = kx[h : h + ny, h + 1 : h + nx + 1]
    ks = ky[h : h + ny, h : h + nx]
    kn = ky[h + 1 : h + ny + 1, h : h + nx]
    return (
        (1.0 + ke + kw + kn + ks) * c
        - ke * g[1:-1, 2:]
        - kw * g[1:-1, :-2]
        - kn * g[2:, 1:-1]
        - ks * g[:-2, 1:-1]
    )


def check_solution(app: Any) -> list[str]:
    """Problems with one solved deck's fields (empty when correct).

    Checks the right-hand side (step 1: u0 = density * energy0 exactly),
    the true residual of the implicit system against the convergence
    target, energy conservation, and that finalise set energy = u/density.
    """
    from repro.core import fields as F

    h = app.grid.halo
    read = app.port.read_field
    u, u0, kx, ky = (read(n) for n in (F.U, F.U0, F.KX, F.KY))
    rho, e0, e1 = (read(n) for n in (F.DENSITY, F.ENERGY0, F.ENERGY1))
    inner = (slice(h, -h), slice(h, -h))
    problems = []
    if not np.isfinite(u[inner]).all():
        return ["u is not finite"]
    if not np.array_equal(u0[inner], rho[inner] * e0[inner]):
        problems.append("u0 != density * energy0")
    r = u0[inner] - _apply_operator(u, kx, ky, h)
    r0 = u0[inner] - _apply_operator(u0, kx, ky, h)
    ratio = float(np.linalg.norm(r) / np.linalg.norm(r0))
    if not ratio <= RESIDUAL_SLACK * app.deck.tl_eps:
        problems.append(f"relative residual {ratio:.3e} above target")
    drift = abs(float(u[inner].sum() - u0[inner].sum())) / float(u0[inner].sum())
    if not drift <= CONSERVATION_TOL:
        problems.append(f"energy drift {drift:.3e}")
    if not np.allclose(e1[inner], u[inner] / rho[inner], rtol=1e-12, atol=0.0):
        problems.append("energy1 != u / density")
    return problems


def summaries(request: Request) -> list:
    """Final field summary of every deck (bitwise comparable)."""
    return [run.final_summary for run in request.runs]
