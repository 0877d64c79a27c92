"""Property test: decks survive render -> parse round trips."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.deck import Deck, default_deck, parse_deck
from repro.core.state import Geometry, State


def render_deck(deck: Deck) -> str:
    """Serialise a Deck back into tea.in text (the inverse of parse)."""
    lines = ["*tea"]
    for s in deck.states:
        parts = [f"state {s.index} density={s.density!r} energy={s.energy!r}"]
        if s.geometry is not Geometry.BACKGROUND:
            parts.append(f"geometry={s.geometry.value}")
            if s.geometry is Geometry.RECTANGLE:
                parts.append(
                    f"xmin={s.xmin!r} xmax={s.xmax!r} ymin={s.ymin!r} ymax={s.ymax!r}"
                )
            elif s.geometry is Geometry.CIRCLE:
                parts.append(f"xmin={s.xmin!r} ymin={s.ymin!r} radius={s.radius!r}")
            else:
                parts.append(f"xmin={s.xmin!r} ymin={s.ymin!r}")
        lines.append(" ".join(parts))
    lines += [
        f"x_cells={deck.x_cells}",
        f"y_cells={deck.y_cells}",
        f"xmin={deck.xmin!r}",
        f"xmax={deck.xmax!r}",
        f"ymin={deck.ymin!r}",
        f"ymax={deck.ymax!r}",
        f"initial_timestep={deck.initial_timestep!r}",
        f"end_step={deck.end_step}",
        f"tl_eps={deck.tl_eps!r}",
        f"tl_max_iters={deck.tl_max_iters}",
        f"tl_ppcg_inner_steps={deck.tl_ppcg_inner_steps}",
        f"tl_coefficient {deck.tl_coefficient}",
        f"tl_preconditioner_type {deck.tl_preconditioner_type}",
        f"tl_use_{'chebyshev' if deck.solver == 'chebyshev' else deck.solver}",
        "*endtea",
    ]
    return "\n".join(lines)


@st.composite
def decks(draw) -> Deck:
    base = default_deck(
        n=draw(st.integers(1, 512)),
        solver=draw(st.sampled_from(["cg", "chebyshev", "ppcg", "jacobi", "explicit"])),
        end_step=draw(st.integers(1, 50)),
        eps=10.0 ** -draw(st.integers(4, 15)),
    )
    return replace(
        base,
        initial_timestep=draw(st.floats(1e-6, 1.0)),
        tl_max_iters=draw(st.integers(1, 10**6)),
        tl_ppcg_inner_steps=draw(st.integers(1, 50)),
        tl_coefficient=draw(
            st.sampled_from(["conductivity", "recip_conductivity"])
        ),
        tl_preconditioner_type=draw(st.sampled_from(["none", "jac_diag"])),
    )


class TestRoundTrip:
    @given(deck=decks())
    @settings(max_examples=60, deadline=None)
    def test_parse_inverts_render(self, deck):
        parsed = parse_deck(render_deck(deck))
        assert parsed == deck

    def test_round_trip_preserves_extra_state_geometries(self):
        deck = replace(
            default_deck(n=16),
            states=(
                State(index=1, density=2.0, energy=0.5),
                State(index=2, density=1.0, energy=3.0,
                      geometry=Geometry.CIRCLE, xmin=4.0, ymin=4.0, radius=1.5),
                State(index=3, density=0.5, energy=9.0,
                      geometry=Geometry.POINT, xmin=1.0, ymin=2.0),
            ),
        )
        assert parse_deck(render_deck(deck)) == deck
