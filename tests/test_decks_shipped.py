"""The shipped sample decks parse and (where sized for it) run."""

from pathlib import Path

from repro.core.deck import parse_deck_file
from repro.core.driver import TeaLeaf

DECKS = Path(__file__).resolve().parent.parent / "decks"


class TestShippedDecks:
    def test_all_shipped_decks_parse(self):
        paths = sorted(DECKS.glob("*.in"))
        assert len(paths) >= 3
        for path in paths:
            deck = parse_deck_file(path)
            assert deck.states, path.name

    def test_short_benchmark_runs(self):
        deck = parse_deck_file(DECKS / "tea_bm_short.in")
        assert (deck.x_cells, deck.y_cells) == (128, 128)
        quick = deck.__class__(**{**deck.__dict__, "end_step": 1})
        result = TeaLeaf(quick, model="openmp-f90").run()
        assert result.steps[0].solve.converged

    def test_circle_deck_features(self):
        deck = parse_deck_file(DECKS / "tea_circle.in")
        assert deck.tl_coefficient == "recip_conductivity"
        assert deck.solver == "chebyshev"
        geometries = {s.geometry.value for s in deck.states}
        assert geometries == {"background", "circular", "point"}
        result = TeaLeaf(deck, model="openmp-f90").run()
        assert result.final_summary is not None

    def test_convergence_deck_matches_paper_setup(self):
        deck = parse_deck_file(DECKS / "tea_bm_convergence.in")
        assert (deck.x_cells, deck.y_cells) == (4096, 4096)
        assert deck.end_step == 10
        assert deck.tl_eps == 1e-15
        assert deck.solver == "ppcg"
