"""Residency mirrors and dead-field poison, below the end-to-end contract.

That fusion, residency tracking and poison change no bit and cut what
they target is a row of the differential harness (``test_equivalence.py``)
on every port.  Here: the host mirrors behind residency tracking, and
poison failing loudly the moment a kernel reads a field the liveness
pass declared dead.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf, deck_liveness
from repro.models.tracing import EventKind
from repro.util.errors import CommError, CorruptionError, DeckError
from tests.models import test_equivalence as harness
from tests.models.test_equivalence import MODELS, REFERENCE, SETUPS, Row, flags

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"

MIRROR_MODELS = ["cuda", "opencl"]


def run(model, **overrides):
    deck = parse_deck_file(DECK)
    deck = dataclasses.replace(
        deck, tl_preconditioner_type="jac_diag", **overrides
    )
    app = TeaLeaf(deck, model=model)
    result = app.run()
    return app, result


def transfer_count(trace):
    return sum(1 for e in trace.events if e.kind == EventKind.TRANSFER)


# --------------------------------------------------------------------- #
# The end-to-end checks are harness rows; these ids stay as their aliases.
# --------------------------------------------------------------------- #
FUSE_RESIDENCY = flags("fuse+residency")
ALL_ARRAY_FLAGS = flags("codegen+fuse+poison+residency")


@pytest.mark.parametrize("model", ["openmp-f90", "kokkos", "raja", "cuda", "opencl"])
def test_fusion_bitwise_identical_with_fewer_launches(model):
    harness.check(
        Row("cg-jac_diag", model, flags("fuse")),
        Row("shipped", model, FUSE_RESIDENCY),
        Row("jac_diag", model, FUSE_RESIDENCY),
    )


@pytest.mark.parametrize("model", ["openmp4", "openacc"])
def test_region_residency_identical_with_fewer_transfers(model):
    harness.check(
        Row("cg-jac_diag", model, flags("residency")),
        Row("shipped", model, FUSE_RESIDENCY),
    )


def test_fusion_stays_on_under_fault_injection():
    harness.check(Row("jac_diag", REFERENCE, flags("fuse+residency+resilient")))


@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("model", MODELS)
def test_poison_is_bitwise_invisible(model, setup):
    harness.check(
        Row(f"{setup}@2", model, flags("poison")), Row(f"{setup}@2", model, ALL_ARRAY_FLAGS)
    )


FUSE_ROWS = {
    **{m: Row("cg", m, flags("fuse")) for m in MODELS},
    "multichunk-2": Row("cg", "openmp-f90x2", flags("fuse")),
    "lockstep": Row("cg", "lockstep", flags("fuse")),
}


@pytest.mark.parametrize("name", sorted(FUSE_ROWS))
def test_unhonoured_fuse_is_recorded(name):
    harness.check(FUSE_ROWS[name])


def test_poison_composes_with_codegen_fusion_residency():
    harness.check(Row("jac_diag", REFERENCE, ALL_ARRAY_FLAGS))


def test_poison_on_a_layout_left_port_keeps_the_golden_hash():
    harness.check(Row("jac_diag", "kokkos-left", flags("poison")))


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
    row = Row("cg-jac_diag@2", "openmp-f90x2", flags("poison"))
    harness.check(row)
    assert all(F.Z in fields for fields in harness.solve(row).nan_fields)


def test_poison_catches_a_stale_read_on_a_decomposed_port():
    """The wrong release schedule of :func:`test_poison_catches_a_stale_read`
    on two ranks: the allreduce of ``p.w`` sees rank 0's NaN partial."""
    deck = dataclasses.replace(parse_deck_file(DECK), tl_poison_dead_fields=True)
    port = MultiChunkPort(deck.grid(), 2, model="openmp-f90")
    app = TeaLeaf(deck, port=port)
    app.executor.poison_after = {"cg_iter_tail": (F.P,)}
    with pytest.raises(CommError, match="non-finite partial nan from rank 0"):
        app.run()


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

    def test_poison_deck_file_flag_parses(self, tmp_path):
        path = tmp_path / "poison.in"
        path.write_text(
            DECK.read_text().replace("*endtea", "tl_poison_dead_fields\n*endtea")
        )
        assert parse_deck_file(path).tl_poison_dead_fields
