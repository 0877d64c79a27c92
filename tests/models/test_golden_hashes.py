"""The three golden solution hashes of ``decks/tea_bm_short.in``.

A run's ``u`` hash is the sha256 of the whole padded field, cut to 16
hex digits.  Every port and every flag combination lands on one of
three values: the deck as shipped, the deck with the diagonal
(``jac_diag``) preconditioner, and the deck decomposed over four ranks.
Each optimisation is held to them, so they are pinned here.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core.deck import parse_deck_file
from repro.core.driver import TeaLeaf
from repro.harness.goldentrace import trace_signature

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"


def u_sha(app) -> str:
    return hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "precon, golden",
    [("none", "034d762cd88a2685"), ("jac_diag", "b6dc591ad1a00bda")],
)
def test_single_chunk_golden(precon, golden):
    deck = dataclasses.replace(
        parse_deck_file(DECK), tl_preconditioner_type=precon
    )
    app = TeaLeaf(deck, model="openmp-f90")
    app.run()
    assert u_sha(app) == golden


#: Deck flags of the 4-rank cases: the deck as shipped, whose exchanges
#: are all synchronous, and with fusion and residency.  A decomposed port
#: does not fuse, so fusion is refused with a recorded fallback.
FOUR_RANK_FLAGS = {
    "sync": {},
    "fuse_residency": {"tl_fuse_kernels": True, "tl_residency_tracking": True},
}
FOUR_RANK_MODELS = {
    "openmp-f90": ["openmp-f90"] * 4,
    "heterogeneous": ["cuda", "openmp-f90", "kokkos", "opencl"],
}


def four_rank_run(models, **flags):
    deck = dataclasses.replace(parse_deck_file(DECK), **flags)
    port = MultiChunkPort(deck.grid(), 4, model=models)
    app = TeaLeaf(deck, port=port)
    return app, app.run()


@pytest.mark.parametrize("flags", list(FOUR_RANK_FLAGS))
@pytest.mark.parametrize("models", list(FOUR_RANK_MODELS))
def test_four_rank_golden(models, flags):
    app, result = four_rank_run(FOUR_RANK_MODELS[models], **FOUR_RANK_FLAGS[flags])
    refusal = (
        f"fuse requested but port '{app.port.model_name}' does not support "
        f"it (supports_fusion=False); running unfused kernels"
    )
    assert result.fallbacks == ([refusal] if flags == "fuse_residency" else [])
    assert u_sha(app) == "1601909ead9d3c83"


def test_four_rank_comm_ledger():
    """Every exchange is synchronous, so its whole modelled wire time is
    exposed: 252 exchanges and 2.0717 ms on the shipped deck."""
    _, result = four_rank_run(FOUR_RANK_MODELS["openmp-f90"])
    comm = result.comm
    assert comm["halo_steps"] == 252
    assert comm["exposed_ms"] == pytest.approx(2.0717056000000085, rel=1e-12)
    assert comm["comm_ms"] == comm["exposed_ms"]


#: The 4-rank event streams of the deck as shipped: every launch, halo
#: message, transfer and reduction pass of each chunk, in order.  The
#: exchange is rebuilt from a schedule, so the stream pins that each
#: message is packed, sent and unpacked as before.
FOUR_RANK_SIGNATURES = {
    "openmp-f90": {
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


@pytest.mark.parametrize("models", list(FOUR_RANK_SIGNATURES))
def test_four_rank_trace_signature(models):
    _, result = four_rank_run(FOUR_RANK_MODELS[models])
    signature = trace_signature(result.trace)
    want = FOUR_RANK_SIGNATURES[models]
    assert {key: signature[key] for key in want} == want
