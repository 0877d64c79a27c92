"""The three golden solution hashes of ``decks/tea_bm_short.in``.

These checks are rows of the differential harness (``test_equivalence.py``);
the ids stay as aliases of the harness checks that make them, and solve
nothing of their own.
"""

import pytest

from tests.models import test_equivalence as harness
from tests.models.test_equivalence import PLAIN, REFERENCE, Row, flags


@pytest.mark.parametrize(
    "precon, golden",
    [("none", "034d762cd88a2685"), ("jac_diag", "b6dc591ad1a00bda")],
)
def test_single_chunk_golden(precon, golden):
    deck = "shipped" if precon == "none" else precon
    assert harness.GOLDEN[deck] == golden
    harness.check(Row(deck, REFERENCE, PLAIN))


ENSEMBLES = {"openmp-f90": "openmp-f90x4", "heterogeneous": "heterogeneous"}
FOUR_RANK_FLAGS = {"sync": PLAIN, "fuse_residency": flags("fuse+residency")}


@pytest.mark.parametrize("flag_set", list(FOUR_RANK_FLAGS))
@pytest.mark.parametrize("models", list(ENSEMBLES))
def test_four_rank_golden(models, flag_set):
    harness.check(Row("4rank", ENSEMBLES[models], FOUR_RANK_FLAGS[flag_set]))


def test_four_rank_comm_ledger():
    harness.test_four_rank_comm_ledger(Row("4rank", "openmp-f90x4", PLAIN))


@pytest.mark.parametrize("models", list(ENSEMBLES))
def test_four_rank_trace_signature(models):
    harness.test_four_rank_trace_signature(ENSEMBLES[models])
