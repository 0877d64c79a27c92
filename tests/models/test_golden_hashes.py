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


@pytest.mark.parametrize("overlap", [False, True], ids=["sync", "overlap"])
@pytest.mark.parametrize(
    "models",
    [["openmp-f90"] * 4, ["cuda", "openmp-f90", "kokkos", "opencl"]],
    ids=["openmp-f90", "heterogeneous"],
)
def test_four_rank_golden(models, overlap):
    deck = dataclasses.replace(parse_deck_file(DECK), tl_overlap=overlap)
    app = TeaLeaf(deck, port=MultiChunkPort(deck.grid(), 4, model=models))
    result = app.run()
    assert result.fallbacks == []
    assert (result.comm["overlap_steps"] > 0) == overlap
    assert u_sha(app) == "1601909ead9d3c83"
