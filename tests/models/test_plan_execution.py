"""Fusion, residency tracking and dead-field poison are invisible.

Turning fusion or residency on must leave the solve bitwise-identical —
same solution field, same iteration trajectory, same field summary —
while measurably reducing the cost structure it targets: fewer kernel
launches on ports that declare fusion legal, fewer host<->device
transfers on offload ports that keep data resident across steps.  Poison
mode must be just as invisible to a correct run, yet fail loudly the
moment a kernel reads a field the liveness pass declared dead.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf, deck_liveness
from repro.harness.numdiff import LockstepPort
from repro.models.base import available_models, make_port
from repro.models.tracing import EventKind
from repro.util.errors import CommError, CorruptionError, DeckError

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"

#: One representative per port family (all others share the same base).
FUSING_MODELS = ["openmp-f90", "kokkos", "raja", "cuda", "opencl"]
REGION_MODELS = ["openmp4", "openacc"]
MIRROR_MODELS = ["cuda", "opencl"]


def run(model, **overrides):
    deck = parse_deck_file(DECK)
    deck = dataclasses.replace(
        deck, tl_preconditioner_type="jac_diag", **overrides
    )
    app = TeaLeaf(deck, model=model)
    result = app.run()
    return app, result


def observables(app, result):
    return (
        app.field(F.U),
        result.total_iterations,
        [s.solve.error for s in result.steps],
        result.final_summary,
    )


def transfer_count(trace):
    return sum(1 for e in trace.events if e.kind == EventKind.TRANSFER)


def fuse_refusal(model_name):
    """The fallback a fuse deck records on a port that cannot fuse."""
    return (
        f"fuse requested but port '{model_name}' does not support it "
        f"(supports_fusion=False); running unfused kernels"
    )


@pytest.mark.parametrize("model", FUSING_MODELS)
def test_fusion_bitwise_identical_with_fewer_launches(model):
    base_app, base = run(model)
    assert base_app.port.supports_fusion
    fused_app, fused = run(model, tl_fuse_kernels=True)

    u0, it0, hist0, sum0 = observables(base_app, base)
    u1, it1, hist1, sum1 = observables(fused_app, fused)
    assert np.array_equal(u0, u1)
    assert it0 == it1 and hist0 == hist1 and sum0 == sum1
    assert fused.trace.kernel_launches() < base.trace.kernel_launches()
    # The win is per CG iteration (the PCG tail fuses precon+dot), so it
    # scales with the iteration count rather than the step count.
    assert base.trace.kernel_launches() - fused.trace.kernel_launches() >= it0


@pytest.mark.parametrize("model", REGION_MODELS)
def test_region_residency_identical_with_fewer_transfers(model):
    base_app, base = run(model)
    res_app, res = run(model, tl_residency_tracking=True)

    assert np.array_equal(base_app.field(F.U), res_app.field(F.U))
    assert observables(base_app, base)[1:] == observables(res_app, res)[1:]
    # The persistent target/acc data region maps the fields once for the
    # whole run instead of once per step.
    assert transfer_count(res.trace) < transfer_count(base.trace)


@pytest.mark.parametrize("model", MIRROR_MODELS)
def test_mirror_cache_elides_repeat_readbacks(model):
    app, result = run(model, tl_residency_tracking=True)
    before = transfer_count(result.trace)
    first = app.port.read_field(F.U)
    after_first = transfer_count(result.trace)
    again = app.port.read_field(F.U)
    # First probe pays the D2H copy; the repeat is served from the clean
    # host mirror with no new transfer event.
    assert after_first == before + 1
    assert transfer_count(result.trace) == after_first
    assert np.array_equal(first, again)

    # A device-side write dirties the field and re-arms the readback.
    app.port.write_field(F.U, again)
    transfer_count(result.trace)
    app.port.read_field(F.U)
    assert transfer_count(result.trace) == after_first + 2


@pytest.mark.parametrize("model", MIRROR_MODELS)
def test_mirror_returns_defensive_copies(model):
    app, _ = run(model, tl_residency_tracking=True)
    first = app.port.read_field(F.U)
    first += 1e9  # caller scribbles on its copy
    again = app.port.read_field(F.U)
    assert not np.array_equal(first, again)


def test_fusion_stays_on_under_fault_injection():
    """Injection/detection are plan steps at fusion-group boundaries, so
    fusion no longer turns off under resilience — and the recovered run
    is bitwise-identical to the unfused recovered run."""
    base_app, base = run("openmp-f90", tl_inject="nan:u:5")
    fused_app, fused = run(
        "openmp-f90", tl_fuse_kernels=True, tl_inject="nan:u:5"
    )
    assert fused_app.executor.fuse is True
    assert fused.resilience is not None and fused.resilience.recoveries >= 1
    assert fused.resilience.recoveries == base.resilience.recoveries
    assert np.array_equal(base_app.field(F.U), fused_app.field(F.U))
    assert observables(base_app, base)[1:] == observables(fused_app, fused)[1:]
    assert fused.trace.kernel_launches() < base.trace.kernel_launches()


#: The five solver setups the liveness pass distinguishes:
#: (solver, preconditioner).
SOLVER_SETUPS = {
    "cg": ("cg", "none"),
    "cg-jac_diag": ("cg", "jac_diag"),
    "chebyshev": ("chebyshev", "none"),
    "ppcg": ("ppcg", "none"),
    "jacobi": ("jacobi", "none"),
}

#: Plain, then every optimisation that touches the arrays poison fills.
POISON_FLAG_SETS = [
    {},
    {"tl_fuse_kernels": True, "tl_codegen": True, "tl_residency_tracking": True},
]


def small_run(model, setup, **overrides):
    # On 32x32 Chebyshev and PPCG get past their CG bootstrap (on 24x24
    # they converge inside it), so their own plans and releases run.
    solver, precon = SOLVER_SETUPS[setup]
    deck = dataclasses.replace(
        default_deck(n=32, solver=solver, end_step=2),
        tl_preconditioner_type=precon,
        **overrides,
    )
    app = TeaLeaf(deck, model=model)
    return app, app.run()


@pytest.mark.parametrize("setup", sorted(SOLVER_SETUPS))
@pytest.mark.parametrize("model", available_models())
def test_poison_is_bitwise_invisible(model, setup):
    """NaN-filling each work field at its proven death points changes
    nothing a correct run computes — on every port, including the
    data-region ones whose device copies the poison must reach."""
    base_app, base = small_run(model, setup)
    for flags in POISON_FLAG_SETS:
        app, result = small_run(model, setup, tl_poison_dead_fields=True, **flags)
        refused = flags.get("tl_fuse_kernels") and not app.port.supports_fusion
        assert result.fallbacks == ([fuse_refusal(model)] if refused else [])
        assert np.array_equal(base_app.field(F.U), app.field(F.U))
        assert observables(base_app, base)[1:] == observables(app, result)[1:]
        # The poison really ran: some dead work field still holds NaN.
        assert any(
            np.isnan(app.port.read_field(name)).all() for name in F.FIELD_ORDER
        ), flags


#: Every registered model, plus the two wrapper ports that dispatch
#: through ``Port.dispatch``: a 2-rank decomposed port and numdiff's
#: lockstep facade.
FUSE_PORTS = {
    **{m: (lambda grid, m=m: make_port(m, grid)) for m in available_models()},
    "multichunk-2": lambda grid: MultiChunkPort(grid, 2, model="openmp-f90"),
    "lockstep": lambda grid: LockstepPort(
        grid,
        reference=make_port("openmp-f90", grid),
        candidate=make_port("kokkos", grid),
    ),
}


@pytest.mark.parametrize("name", sorted(FUSE_PORTS))
def test_unhonoured_fuse_is_recorded(name):
    """A fuse deck records exactly one refusal on a port that cannot
    fuse, and nothing on a port that can."""
    deck = dataclasses.replace(default_deck(n=16, end_step=1), tl_fuse_kernels=True)
    port = FUSE_PORTS[name](deck.grid())
    result = TeaLeaf(deck, port=port).run()
    expected = [] if port.supports_fusion else [fuse_refusal(port.model_name)]
    assert result.fallbacks == expected


def test_poison_composes_with_codegen_fusion_residency():
    """On the golden deck, poison stays invisible with every optimisation
    that touches the arrays it fills turned on at once."""
    base_app, base = run("openmp-f90")
    app, result = run(
        "openmp-f90",
        tl_poison_dead_fields=True,
        tl_fuse_kernels=True,
        tl_codegen=True,
        tl_residency_tracking=True,
    )
    assert result.fallbacks == []
    assert np.array_equal(base_app.field(F.U), app.field(F.U))
    assert observables(base_app, base)[1:] == observables(app, result)[1:]


@pytest.mark.parametrize("codegen", [False, True], ids=["interpreted", "codegen"])
@pytest.mark.parametrize("model", ["openmp-f90", "cuda", "openmp4"])
def test_poison_catches_a_stale_read(model, codegen):
    """A wrong release schedule that kills the loop-carried search
    direction ``p`` after ``cg_iter_tail`` must fail on the next
    iteration's ``p.w`` reduction instead of reusing the stale bytes."""
    deck = dataclasses.replace(
        parse_deck_file(DECK), tl_poison_dead_fields=True, tl_codegen=codegen
    )
    app = TeaLeaf(deck, model=model)
    app.executor.poison_after = {"cg_iter_tail": (F.P,)}
    with pytest.raises(CorruptionError, match="non-finite solver scalar pw"):
        app.run()


def test_poison_runs_on_every_chunk_of_a_decomposed_port():
    """A decomposed port keeps each field per chunk: poison fills every
    chunk's arrays, records no fallback and changes no bit of u."""

    def run(poison):
        deck = dataclasses.replace(
            default_deck(n=32, end_step=2),
            tl_preconditioner_type="jac_diag",
            tl_poison_dead_fields=poison,
        )
        port = MultiChunkPort(deck.grid(), 2, model="openmp-f90")
        app = TeaLeaf(deck, port=port)
        return app, app.run()

    (base_app, _), (app, result) = run(False), run(True)
    assert result.fallbacks == []
    assert np.array_equal(base_app.field(F.U), app.field(F.U))
    assert all(
        np.isnan(chunk._device_array(F.Z)).all() for chunk in app.port.ports
    )


def test_poison_catches_a_stale_read_on_a_decomposed_port():
    """The wrong release schedule of :func:`test_poison_catches_a_stale_read`
    on two ranks: the allreduce of ``p.w`` sees rank 0's NaN partial."""
    deck = dataclasses.replace(parse_deck_file(DECK), tl_poison_dead_fields=True)
    port = MultiChunkPort(deck.grid(), 2, model="openmp-f90")
    app = TeaLeaf(deck, port=port)
    app.executor.poison_after = {"cg_iter_tail": (F.P,)}
    with pytest.raises(CommError, match="non-finite partial nan from rank 0"):
        app.run()


def test_poison_on_a_layout_left_port_keeps_the_golden_hash():
    """Column-major Kokkos views refuse codegen, but poison fills them
    like any other port's arrays."""
    from repro.models.kokkos import Layout
    from repro.models.kokkos_port import KokkosPort

    deck = dataclasses.replace(
        parse_deck_file(DECK),
        tl_preconditioner_type="jac_diag",
        tl_poison_dead_fields=True,
    )
    app = TeaLeaf(deck, port=KokkosPort(deck.grid(), layout=Layout.LEFT))
    result = app.run()
    assert result.fallbacks == []
    assert app.executor.poison_after
    sha = hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]
    assert sha == "b6dc591ad1a00bda"


class TestLiveness:
    """The liveness pass behind the poison release schedule."""

    def test_cyclic_live_in_is_the_carried_state(self):
        lv = deck_liveness(default_deck(n=16, solver="cg"))
        assert lv.live_in == frozenset({F.DENSITY, F.ENERGY0})
        assert set(lv.dead_at_entry) == {"u", "u0", "p", "r", "w", "sd", "z"}

    def test_ppcg_releases_sd_after_each_preconditioner_plan(self):
        releases = deck_liveness(default_deck(n=16, solver="ppcg")).releases
        precon = [name for name in releases if name.startswith("ppcg_precon")]
        assert precon
        assert all(releases[name] == ("sd",) for name in precon)

    def test_jac_diag_releases_z_after_setup_and_tail(self):
        deck = dataclasses.replace(
            default_deck(n=16, solver="cg"), tl_preconditioner_type="jac_diag"
        )
        # Every plan that reads z re-derives it first, so z dies after
        # each of them.
        assert deck_liveness(deck).releases == {
            "pcg_setup": ("z",),
            "pcg_iter_tail": ("z",),
        }

    def test_jacobi_releases_p_and_w_after_init(self):
        # jacobi_init reuses cg_init, whose p and w outputs nothing reads.
        lv = deck_liveness(default_deck(n=16, solver="jacobi"))
        assert lv.releases == {"jacobi_init": ("p", "w")}

    def test_segments_cover_only_live_events(self):
        lv = deck_liveness(default_deck(n=16, solver="cg"))
        for a, b in lv.segments("w"):
            assert all("w" in lv.live[i] for i in range(a, b + 1))
        assert lv.segments("sd") == []


class TestDeckValidation:
    def test_poison_rejects_resilience(self):
        with pytest.raises(DeckError, match="tl_resilient"):
            dataclasses.replace(
                default_deck(n=16), tl_poison_dead_fields=True, tl_resilient=True
            )

    def test_poison_rejects_explicit_solver(self):
        with pytest.raises(DeckError, match="explicit"):
            dataclasses.replace(
                default_deck(n=16), solver="explicit", tl_poison_dead_fields=True
            )

    def test_poison_deck_file_flag_parses(self, tmp_path):
        path = tmp_path / "poison.in"
        path.write_text(
            DECK.read_text().replace("*endtea", "tl_poison_dead_fields\n*endtea")
        )
        assert parse_deck_file(path).tl_poison_dead_fields
