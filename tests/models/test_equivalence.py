"""One differential harness: every reachable (deck, port, flags) row.

The ports are comparable only because they run the same solver logic, so
every row a user can reach is solved here once per session, through the
one memoised :func:`solve`, and held to the same contract:

* the solution: the golden ``u`` hash of each ``tea_bm_short`` deck, and
  on the small decks bitwise equality across all twelve ports; the
  reference row's iterations, residual histories, summaries and comm
  ledger; and one scipy ``spsolve`` oracle per deck, so that "identical
  to each other" cannot hide "equally wrong";
* the trace: the golden per-port event streams, the pinned fused and
  4-rank digests, and on every row with a host-only flag (codegen,
  poison) the ``trace_signature`` of the same row without it;
* the support table: each requested flag a port cannot honour records
  exactly the fallback its ``supports_*`` predict, and nothing else;
* resilience: every port recovers with the reference's counts;
* poison: on every deck of two steps or more, a poisoned run ends with
  a dead field wholly NaN on every chunk, and a run without it with none.

The rows are the shipped, ``jac_diag`` and 4-rank ``tea_bm_short``
decks, the five 32x32 solver setups for one step and for two, and a
``recip_conductivity`` deck, times every registered port (the two 4-rank
ensembles on the 4-rank deck), times the flag sets users request, plus
rows for a 2-rank ensemble and fallback-only rows for numdiff's lockstep
facade, a Kokkos ``Layout.LEFT`` port and the tracing stub.  A new port
or flag set is a row change here, not a new suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core import operators as ops
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf
from repro.core.grid import Grid2D
from repro.harness.goldentrace import first_divergence, trace_signature
from repro.harness.numdiff import LockstepPort
from repro.machine.workload import (
    MODEL_BEHAVIOR,
    SolveWorkload,
    StepPlan,
    TracingStubPort,
)
from repro.models.base import available_models, make_port
from repro.models.kokkos import Layout
from repro.models.kokkos_port import KokkosPort

REPO = Path(__file__).resolve().parents[2]
GOLDEN_TRACES = Path(__file__).resolve().parent / "golden_traces"
REFERENCE = "openmp-f90"
MODELS = available_models()
FUSING_MODELS = [m for m in MODELS if make_port(m, Grid2D(nx=8, ny=8)).supports_fusion]


# --------------------------------------------------------------------- #
# decks
# --------------------------------------------------------------------- #
def tea_bm_short(**overrides):
    return dataclasses.replace(parse_deck_file(REPO / "decks" / "tea_bm_short.in"), **overrides)


def small(solver, precon="none"):
    # On 32x32 Chebyshev and PPCG run past their CG bootstrap within one
    # step, so their own plans and releases run.
    return dataclasses.replace(
        default_deck(n=32, solver=solver, end_step=1), tl_preconditioner_type=precon
    )


#: The five 32x32 solver setups the liveness pass distinguishes.
SETUPS = {
    "cg": small("cg"),
    "cg-jac_diag": small("cg", "jac_diag"),
    "chebyshev": small("chebyshev"),
    "ppcg": small("ppcg"),
    "jacobi": small("jacobi"),
}

#: The same setups for two steps, ``<setup>@2``: what the first step
#: leaves behind (residency mirrors, the poison of the second step's
#: entry, Chebyshev's and PPCG's fresh bootstrap) must not move a bit.
TWO_STEPS = {
    f"{name}@2": dataclasses.replace(deck, end_step=2) for name, deck in SETUPS.items()
}

DECKS = {
    "shipped": tea_bm_short(),
    "jac_diag": tea_bm_short(tl_preconditioner_type="jac_diag"),
    "4rank": tea_bm_short(),
    "recip": dataclasses.replace(
        default_deck(n=16, solver="cg", end_step=1, eps=1e-9),
        tl_coefficient="recip_conductivity",
    ),
    **SETUPS,
    **TWO_STEPS,
}

#: The three golden ``u`` hashes (sha256 of the whole padded field, cut
#: to 16 hex digits).  Every port and flag set lands on its deck's.
GOLDEN = {
    "shipped": "034d762cd88a2685",
    "jac_diag": "b6dc591ad1a00bda",
    "4rank": "1601909ead9d3c83",
}


# --------------------------------------------------------------------- #
# ports
# --------------------------------------------------------------------- #
FOUR_RANK_MODELS = {
    "openmp-f90x4": ["openmp-f90"] * 4,
    "heterogeneous": ["cuda", "openmp-f90", "kokkos", "opencl"],
}
#: Decomposed ensemble -> the ensemble of as many ranks its rows answer
#: to: a decomposition reduces in another order than one chunk.
ENSEMBLE_REFERENCE = {
    "openmp-f90x2": "openmp-f90x2",
    "openmp-f90x4": "openmp-f90x4",
    "heterogeneous": "openmp-f90x4",
}
STUB = "tracing-stub"

#: Port name -> factory from the run's deck.
PORTS = {
    **{m: (lambda deck, m=m: make_port(m, deck.grid())) for m in MODELS},
    **{
        name: (lambda deck, models=models: MultiChunkPort(deck.grid(), 4, model=models))
        for name, models in FOUR_RANK_MODELS.items()
    },
    "openmp-f90x2": lambda deck: MultiChunkPort(deck.grid(), 2, model=REFERENCE),
    "kokkos-left": lambda deck: KokkosPort(deck.grid(), layout=Layout.LEFT),
    "lockstep": lambda deck: LockstepPort(
        deck.grid(),
        reference=make_port(REFERENCE, deck.grid()),
        candidate=make_port("kokkos", deck.grid()),
    ),
    STUB: lambda deck: TracingStubPort(
        deck.grid(),
        deck,
        SolveWorkload(deck.solver, (StepPlan(outer=20),) * deck.end_step),
        MODEL_BEHAVIOR["cuda"],
    ),
}
#: Ports whose ``supports_poison`` declares that each chunk's
#: ``_device_array`` returns the arrays the kernels use.
POISONABLE = {name for name, make in PORTS.items() if make(SETUPS["cg"]).supports_poison}


# --------------------------------------------------------------------- #
# flag sets
# --------------------------------------------------------------------- #
#: Both specs fire on every deck: a NaN in ``u`` and a raised exchange.
INJECT = "nan:u:5,raise:update_halo:9"

#: Deck overrides behind each flag name.
FLAGS = {
    "codegen": {"tl_codegen": True},
    "fuse": {"tl_fuse_kernels": True},
    "residency": {"tl_residency_tracking": True},
    "poison": {"tl_poison_dead_fields": True},
    "resilient": {"tl_resilient": True, "tl_inject": INJECT},
    # Resilience armed, and no fault: checkpoints only.
    "checkpointed": {"tl_resilient": True},
}

#: Flags that must not move the modelled clock.
HOST_ONLY = frozenset({"codegen", "poison"})
#: Flags that may only cut launches and transfers.
OPTIMISATIONS = frozenset({"codegen", "fuse", "residency"})


def flags(spec: str) -> frozenset:
    return frozenset() if spec == "plain" else frozenset(spec.split("+"))


def spec(flag_set: frozenset) -> str:
    return "+".join(sorted(flag_set)) or "plain"


PLAIN = flags("plain")

#: The flag sets users request.  ``fuse`` always runs compiled, so
#: (fuse, codegen) has three reachable pairs; poison refuses resilience.
FLAG_SETS = (
    "plain codegen residency codegen+residency fuse fuse+residency poison "
    "codegen+fuse+poison+residency resilient codegen+resilient "
    "fuse+residency+resilient"
).split()
POISON_SETS = [f for f in FLAG_SETS if "poison" in flags(f)]
#: What every port runs for two steps: the poison sets, and their twins.
TWO_STEP_SETS = ["plain", "codegen", "fuse+residency", *POISON_SETS]


# --------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------- #
class Row(NamedTuple):
    deck: str
    port: str
    flags: frozenset

    def __str__(self) -> str:
        return f"{self.deck}/{self.port}/{spec(self.flags)}"


#: (decks, ports, flag sets) of every reachable row.  On the 128x128
#: decks the interpreted flag sets run on the reference port only: on the
#: RAJA ports one interpreted solve takes seconds.
TABLE = [
    # Poison runs for two steps, which cover one.
    (SETUPS, MODELS, [f for f in FLAG_SETS if f not in POISON_SETS]),
    (TWO_STEPS, MODELS, TWO_STEP_SETS),
    (TWO_STEPS, [REFERENCE], [f for f in FLAG_SETS if f not in TWO_STEP_SETS]),
    (["cg@2"], [REFERENCE], ["checkpointed", "checkpointed+codegen", "checkpointed+fuse"]),
    (["shipped"], MODELS, ["plain", "fuse+residency"]),
    (["jac_diag"], [REFERENCE], ["plain", "resilient"]),
    (
        ["jac_diag"],
        MODELS,
        [
            "fuse+residency",
            "codegen+fuse+poison+residency",
            "fuse+residency+resilient",
            "codegen+fuse+residency+resilient",
        ],
    ),
    (["4rank"], FOUR_RANK_MODELS, ["plain", "codegen", "poison", "fuse+residency"]),
    (["recip"], MODELS, ["plain", "codegen"]),
    (["cg"], ["openmp-f90x2"], ["plain", "codegen", "fuse"]),
    (["cg-jac_diag@2"], ["openmp-f90x2"], ["plain", "poison"]),
    # Fallback-only rows: ports that refuse some flag.
    (["cg"], ["kokkos-left", "lockstep", STUB], ["plain", "codegen", "fuse", "poison"]),
    (["jac_diag"], ["kokkos-left"], ["poison"]),
]
ROWS = [
    Row(deck, port, flags(f))
    for decks, ports, flag_sets in TABLE
    for deck in decks
    for port in ports
    for f in flag_sets
]
ROW_SET = frozenset(ROWS)
assert len(ROW_SET) == len(ROWS), "a row is listed twice"


def reference(row: Row) -> Row:
    """The row ``row`` answers to: the reference port, or ensemble of as
    many ranks, with the same resilience, since a recovery may take a
    different path."""
    port = ENSEMBLE_REFERENCE.get(row.port, REFERENCE)
    return Row(row.deck, port, row.flags & {"resilient"})


def twin(row: Row) -> Row:
    """``row`` without its host-only flags."""
    return row._replace(flags=row.flags - HOST_ONLY)


def unoptimised(row: Row) -> Row:
    return row._replace(flags=row.flags - OPTIMISATIONS)


# Which rows each per-row check applies to.
def every(row):
    return True


def has_data(row):
    return row.port != STUB


def has_host_only_twin(row):
    return bool(row.flags & HOST_ONLY) and twin(row) in ROW_SET


def is_resilient(row):
    return "resilient" in row.flags


def has_unoptimised_twin(row):
    return bool(row.flags & {"fuse", "residency"}) and unoptimised(row) in ROW_SET


def multi_step_poisonable(row):
    return row.port in POISONABLE and DECKS[row.deck].end_step > 1


def rows_where(applies) -> list:
    return [pytest.param(r, id=str(r)) for r in ROWS if applies(r)]


# --------------------------------------------------------------------- #
# solving
# --------------------------------------------------------------------- #
class Solved(NamedTuple):
    model_name: str
    #: (supports_fusion, supports_codegen, supports_poison) of the port.
    supports: tuple
    fallbacks: list
    #: What the driver printed on stderr.
    warnings: list
    #: (fuse, codegen) the executor granted.
    granted: tuple
    #: Whether the driver armed dead-field poison.
    poisoned: bool
    #: The fields wholly NaN on every chunk after the run, on ports that
    #: poison can fill.
    nan_fields: frozenset | None
    u_sha: str | None
    per_step: list
    history: list
    converged: bool
    summary: object
    signature: dict
    comm: dict
    resilience: tuple | None
    journal: tuple | None
    #: (kx, ky, u0, u) for the scipy oracle, on plain rows.
    system: tuple | None


def run_row(row: Row) -> Solved:
    """Solve ``row`` from scratch (:func:`solve` is its memo)."""
    deck = dataclasses.replace(
        DECKS[row.deck], **{k: v for f in row.flags for k, v in FLAGS[f].items()}
    )
    port = PORTS[row.port](deck)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        app = TeaLeaf(deck, port=port)
        result = app.run()
    # Before any read-back: an offload port traces its transfers.
    signature = trace_signature(result.trace)
    rep = result.resilience
    ck = app.resilience.checkpoints if app.resilience else None
    has_arrays = has_data(row)
    return Solved(
        model_name=port.model_name,
        supports=(port.supports_fusion, port.supports_codegen, port.supports_poison),
        fallbacks=result.fallbacks,
        warnings=err.getvalue().splitlines(),
        granted=(app.executor.fuse, app.executor.codegen),
        poisoned=bool(app._dead_at_entry),
        nan_fields=frozenset(
            name
            for name in F.FIELD_ORDER
            if all(np.isnan(c._device_array(name)).all() for c in port.chunks())
        )
        if row.port in POISONABLE
        else None,
        u_sha=hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16] if has_arrays else None,
        per_step=result.iterations_per_step(),
        history=[(s.solve.error, s.solve.history) for s in result.steps],
        converged=all(s.solve.converged for s in result.steps),
        summary=result.final_summary,
        signature=signature,
        comm=result.comm,
        resilience=rep and (
            rep.injections, rep.detections, rep.rollbacks,
            rep.retries, rep.recoveries, rep.checkpoints_taken,
        ),
        journal=ck and (ck.periodic_bytes_copied, ck.periodic_bytes_full),
        system=tuple(app.field(n) for n in (F.KX, F.KY, F.U0, F.U))
        if has_arrays and not row.flags
        else None,
    )


#: Every row is solved at most once per session.
solve = functools.cache(run_row)


# --------------------------------------------------------------------- #
# the contract, row by row
# --------------------------------------------------------------------- #
def predicted_fallbacks(row: Row, got: Solved) -> list[str]:
    fuses, compiles, poisons = got.supports
    port = f"port '{got.model_name}'"
    out = []
    if "fuse" in row.flags and not fuses:
        out.append(
            f"fuse requested but {port} does not support it "
            f"(supports_fusion=False); running unfused kernels"
        )
    elif "fuse" in row.flags and not compiles:
        out.append(
            f"fuse requested but {port} cannot compile its fused groups "
            f"(supports_codegen=False); running unfused kernels"
        )
    if "codegen" in row.flags and not compiles:
        out.append(
            f"codegen requested but {port} does not support it "
            f"(supports_codegen=False); running interpreted kernels"
        )
    if "poison" in row.flags and not poisons:
        out.append(
            f"tl_poison_dead_fields requested but {port} does not support "
            f"it (supports_poison=False); dead fields are not poisoned"
        )
    return out


@pytest.mark.parametrize("row", rows_where(every))
def test_fallbacks_follow_the_support_table(row):
    got = solve(row)
    fuses, compiles, poisons = got.supports
    assert got.fallbacks == predicted_fallbacks(row, got)
    assert got.warnings == [f"tealeaf: warning: {m}" for m in got.fallbacks]
    fused = "fuse" in row.flags and fuses and compiles
    assert got.granted == (fused, compiles and (fused or "codegen" in row.flags))
    assert got.poisoned == ("poison" in row.flags and poisons)


@pytest.mark.parametrize("row", rows_where(has_data))
def test_solution_matches_the_reference(row):
    got, ref = solve(row), solve(reference(row))
    assert got.converged
    if row.deck in GOLDEN:
        assert got.u_sha == GOLDEN[row.deck]
    assert got.u_sha == ref.u_sha
    assert got.per_step == ref.per_step
    assert got.history == ref.history
    assert got.summary == ref.summary
    assert got.comm["halo_steps"] == ref.comm["halo_steps"]


@pytest.mark.parametrize("row", rows_where(has_host_only_twin))
def test_host_only_flags_keep_the_trace(row):
    assert solve(row).signature == solve(twin(row)).signature


@pytest.mark.parametrize("row", rows_where(is_resilient))
def test_recovery_matches_the_reference(row):
    got, ref = solve(row), solve(reference(row))
    injections, detections, rollbacks, retries, recoveries, _ = got.resilience
    assert injections == 2 and recoveries >= 1
    assert got.resilience == ref.resilience
    # Incremental checkpoints copy what the write journal names.
    copied, full = got.journal
    assert 0 < copied <= 0.5 * full
    assert got.journal == ref.journal


@pytest.mark.parametrize("row", rows_where(multi_step_poisonable))
def test_poison_reaches_the_arrays(row):
    """Poison NaN-fills the fields dead at each step's entry, which the
    step defines before reading, so one stays NaN in every chunk's arrays
    to the end; without poison none does.  On decks of two steps or more:
    the data-region ports take the entry fill in host arrays, so their
    one-step runs with residency tracking end with none (ROADMAP)."""
    got = solve(row)
    assert bool(got.nan_fields) == got.poisoned


#: Ports whose transfers residency tracking cuts: per-solve maps and
#: per-reduction partials read-backs.
RESIDENT_PORTS = {
    m for m, b in MODEL_BEHAVIOR.items() if b.map_per_solve or b.reduction_partials
} | {"heterogeneous"}


@pytest.mark.parametrize("row", rows_where(has_unoptimised_twin))
def test_optimisations_cut_their_cost(row):
    """Fusion and residency change no bit (see above) and cut what they
    target: a fused run saves launches, and each halo refresh a traversal
    stencil-reads runs as that traversal's prefix; residency tracking
    saves transfers on offload ports."""
    got, base = solve(row), solve(unoptimised(row))
    sig, base_sig = got.signature, base.signature
    saved = base_sig["kernel_launches"] - sig["kernel_launches"]
    assert saved >= 0
    fused, iterations = got.granted[0], sum(got.per_step)
    jacobi = DECKS[row.deck].solver == "jacobi"
    if fused:
        # CG, Chebyshev and PPCG save a launch in every iteration; Jacobi
        # fuses only its residual checks.
        assert saved >= (1 if jacobi else iterations)
    if "resilient" in row.flags:
        # A rollback re-runs the prologue and restores what residency
        # keeps mapped: the counts below are those of a fault-free run.
        return
    if fused:
        # The prologue's refresh has no consumer; Jacobi's sweep refreshes
        # u but stencil-reads r.  Every other refresh is a prefix.
        standalone = len(got.per_step) + (iterations if jacobi else 0)
        assert sig["kernel_histogram"]["halo_update"] == standalone
    assert sig["transfers"] <= base_sig["transfers"]
    if "residency" in row.flags and row.port in RESIDENT_PORTS:
        assert sig["transfers"] < base_sig["transfers"]


#: Each per-row check and the rows it applies to.
ROW_CHECKS = (
    (test_fallbacks_follow_the_support_table, every),
    (test_solution_matches_the_reference, has_data),
    (test_host_only_flags_keep_the_trace, has_host_only_twin),
    (test_recovery_matches_the_reference, is_resilient),
    (test_optimisations_cut_their_cost, has_unoptimised_twin),
    (test_poison_reaches_the_arrays, multi_step_poisonable),
)


def check(*rows: Row, only=None) -> None:
    """Every per-row check that applies to each of ``rows``, or the
    checks ``only`` names, each of which must apply."""
    for row in rows:
        assert row in ROW_SET, f"{row} is not a harness row"
        tests = [test for test, applies in ROW_CHECKS if applies(row)]
        if only is not None:
            assert set(only) <= set(tests), f"{row}: not every check in {only} applies"
            tests = only
        for test in tests:
            test(row)


# --------------------------------------------------------------------- #
# pinned traces
# --------------------------------------------------------------------- #
def test_golden_traces_cover_every_registered_model():
    assert {p.stem for p in GOLDEN_TRACES.glob("*.json")} == set(MODELS)


@pytest.mark.parametrize("model", MODELS)
def test_golden_trace(model):
    """Each port's whole event stream on the shipped deck is frozen:
    launches, transfers, reduction passes, regions, iterations."""
    golden = json.loads((GOLDEN_TRACES / f"{model}.json").read_text())
    got = solve(Row("shipped", model, PLAIN))
    signature = dict(got.signature, total_iterations=sum(got.per_step))
    mismatched = [
        k for k in golden if k not in ("model", "deck") and signature.get(k) != golden[k]
    ]
    if "event_stream_sha256" in mismatched:
        trace = TeaLeaf(DECKS["shipped"], model=model).run().trace
        pytest.fail(
            f"{model}: event stream diverged ({first_divergence(trace, golden)}); "
            f"also mismatched: {mismatched}"
        )
    assert mismatched == []


#: First 16 hex digits of the sha256 of the JSON (``sort_keys=True``) of
#: a model's fused trace signatures over ``sorted(SETUPS)`` x residency
#: (off, on).  Ports whose traces differ only in their arrays share one.
FUSED_DIGESTS = {
    "cuda": "a4a1a6e1670c8f6c",
    "kokkos": "502e081feb8cf332",
    "kokkos-hp": "502e081feb8cf332",
    "opencl": "6bc3fb24fc4a0fc8",
    "openmp-cpp": "57eff75daccbfbdb",
    "openmp-f90": "57eff75daccbfbdb",
    "raja": "57eff75daccbfbdb",
    "raja-gpu": "57eff75daccbfbdb",
    "raja-simd": "57eff75daccbfbdb",
}


def test_every_fusing_model_is_pinned():
    assert sorted(FUSED_DIGESTS) == FUSING_MODELS


@pytest.mark.parametrize("model", FUSING_MODELS)
def test_fused_traces_match_their_pinned_digest(model):
    """A fused run has no interpreted twin, so its trace is pinned."""
    sigs = [
        solve(Row(setup, model, flags(f))).signature
        for setup in sorted(SETUPS)
        for f in ("fuse", "fuse+residency")
    ]
    blob = json.dumps(sigs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == FUSED_DIGESTS[model]


#: The 4-rank event streams of the deck as shipped: every launch, halo
#: message, transfer and reduction pass of each chunk, in order.
FOUR_RANK_SIGNATURES = {
    "openmp-f90x4": {
        "events": 9304,
        "event_stream_sha256": (
            "39be8581fb68cfd82f9383987fd1728373b9f39b69bcd7acc4069965dd0d77d7"
        ),
        "kernel_launches": 9304,
        "kernel_bytes": 439_070_720,
    },
    "heterogeneous": {
        "events": 11326,
        "event_stream_sha256": (
            "86a29797f9b2f3268cc57bf25d6c1a0381c3da8447961ccd9d6826aaf463baa8"
        ),
        "transfers": 1014,
        "reduction_passes": 1008,
    },
}


@pytest.mark.parametrize("ensemble", list(FOUR_RANK_SIGNATURES))
def test_four_rank_trace_signature(ensemble):
    signature = solve(Row("4rank", ensemble, PLAIN)).signature
    want = FOUR_RANK_SIGNATURES[ensemble]
    assert {key: signature[key] for key in want} == want


@pytest.mark.parametrize("row", rows_where(lambda row: row.deck == "4rank"))
def test_four_rank_comm_ledger(row):
    """Every exchange is synchronous, so its whole modelled wire time is
    exposed: 252 exchanges and 2.0717 ms on the shipped deck."""
    comm = solve(row).comm
    assert comm["halo_steps"] == 252
    assert comm["exposed_ms"] == pytest.approx(2.0717056000000085, rel=1e-12)
    assert comm["comm_ms"] == comm["exposed_ms"]


#: The launch each solver's own loop adds, proving it ran.
LOOP_KERNEL = {"chebyshev": "cheby_iterate", "ppcg": "ppcg_inner"}


@pytest.mark.parametrize("setup", list(LOOP_KERNEL))
def test_setup_runs_past_its_cg_bootstrap(setup):
    histogram = solve(Row(setup, REFERENCE, PLAIN)).signature["kernel_histogram"]
    assert histogram[LOOP_KERNEL[setup]] > 0


# --------------------------------------------------------------------- #
# the accuracy oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("deck", list(DECKS))
def test_reference_matches_a_direct_sparse_solve(deck):
    """The last step's solution against scipy on the same operator."""
    row = reference(Row(deck, REFERENCE, PLAIN))
    kx, ky, u0, u = solve(row).system
    grid = DECKS[deck].grid()
    A = ops.assemble_sparse_matrix(kx, ky, grid)
    direct = spla.spsolve(A.tocsc(), u0[grid.inner()].ravel())
    np.testing.assert_allclose(u[grid.inner()].ravel(), direct, rtol=1e-6)
