"""Fallback recording.

A port that refuses a requested option records why on
``RunResult.fallbacks`` and warns on stderr, instead of silently running
without it.
"""

import dataclasses

from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf


class TestFallbackRecording:
    def test_codegen_fallback_recorded_on_run_result(self, capsys):
        from repro.comm.multichunk import MultiChunkPort

        deck = dataclasses.replace(
            default_deck(n=32, end_step=1), tl_codegen=True
        )
        port = MultiChunkPort(deck.grid(), nranks=2)
        app = TeaLeaf(deck, port=port)
        result = app.run()
        assert app.executor.codegen is False
        assert result.fallbacks and "codegen" in result.fallbacks[0]
        assert "tealeaf: warning:" in capsys.readouterr().err
