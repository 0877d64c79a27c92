"""The timestep driver."""

from dataclasses import replace

import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.tracing import EventKind


class TestStepping:
    def test_run_executes_end_step_steps(self):
        deck = default_deck(n=16, end_step=3)
        result = TeaLeaf(deck, model="openmp-f90").run()
        assert [s.step for s in result.steps] == [1, 2, 3]
        assert result.steps[-1].sim_time == pytest.approx(3 * deck.initial_timestep)

    def test_end_time_stops_early(self):
        deck = replace(
            default_deck(n=16, end_step=100), end_time=0.01, initial_timestep=0.004
        )
        result = TeaLeaf(deck, model="openmp-f90").run()
        # steps at t=0.004, 0.008, 0.012 -> stops once sim_time >= end_time
        assert len(result.steps) == 3

    def test_summary_frequency(self):
        deck = replace(default_deck(n=16, end_step=4), summary_frequency=2)
        result = TeaLeaf(deck, model="openmp-f90").run()
        have_summary = [s.summary is not None for s in result.steps]
        assert have_summary == [False, True, False, True]

    def test_final_step_always_summarised(self):
        deck = replace(default_deck(n=16, end_step=3), summary_frequency=10)
        result = TeaLeaf(deck, model="openmp-f90").run()
        assert result.steps[-1].summary is not None
        assert result.final_summary is result.steps[-1].summary

    def test_total_iteration_accounting(self):
        deck = default_deck(n=16, end_step=2)
        result = TeaLeaf(deck, model="openmp-f90").run()
        assert result.total_iterations == sum(
            s.solve.iterations for s in result.steps
        )
        assert result.iterations_per_step() == [
            s.solve.iterations for s in result.steps
        ]

    def test_energy_consistent_with_u(self):
        deck = default_deck(n=16, end_step=1)
        app = TeaLeaf(deck, model="openmp-f90")
        app.run()
        g = app.grid
        u = app.field(F.U)[g.inner()]
        energy = app.field(F.ENERGY1)[g.inner()]
        density = app.field(F.DENSITY)[g.inner()]
        assert (abs(energy * density - u) < 1e-12).all()


class TestTracing:
    def test_solve_sections_tagged(self):
        deck = default_deck(n=16, end_step=1)
        app = TeaLeaf(deck, model="openmp-f90")
        result = app.run()
        trace = result.trace
        assert trace.kernel_launches("solve") > 0
        assert trace.kernel_launches("cg") == trace.kernel_launches("solve")
        assert "summary" in trace.tags()

    def test_summary_excluded_from_solve(self):
        deck = default_deck(n=16, end_step=1)
        result = TeaLeaf(deck, model="openmp-f90").run()
        summary_kernels = result.trace.filtered("summary", EventKind.KERNEL)
        assert all(not e.tagged("solve") for e in summary_kernels)

    def test_timers_recorded(self):
        deck = default_deck(n=16, end_step=2)
        app = TeaLeaf(deck, model="openmp-f90")
        app.run()
        assert "solve" in app.timers
        assert app.timers["solve"].count == 2
        report = app.timers.report()
        assert "solve" in report


class TestVisitOutput:
    def test_vtk_written_at_frequency(self, tmp_path):
        from repro.core.output import read_vtk_scalars

        deck = replace(default_deck(n=12, end_step=4), visit_frequency=2)
        app = TeaLeaf(deck, model="openmp-f90", visit_dir=str(tmp_path))
        app.run()
        files = sorted(p.name for p in tmp_path.glob("*.vtk"))
        assert files == ["tea.0002.vtk", "tea.0004.vtk"]
        fields = read_vtk_scalars(tmp_path / "tea.0004.vtk")
        assert set(fields) == {"density", "energy1", "u"}
        g = deck.grid()
        assert fields["u"].shape == (g.ny, g.nx)

    def test_no_output_by_default(self, tmp_path):
        deck = default_deck(n=12, end_step=2)
        TeaLeaf(deck, model="openmp-f90", visit_dir=str(tmp_path)).run()
        assert list(tmp_path.glob("*.vtk")) == []

    def test_deck_key_parsed(self):
        from repro.core.deck import parse_deck

        deck = parse_deck(
            "*tea\nstate 1 density=1 energy=1\nvisit_frequency=5\n*endtea"
        )
        assert deck.visit_frequency == 5


class TestPortSelection:
    def test_named_model(self):
        deck = default_deck(n=12, end_step=1)
        app = TeaLeaf(deck, model="kokkos")
        assert app.model == "kokkos"

    def test_explicit_port_overrides_model(self):
        from repro.models.base import make_port

        deck = default_deck(n=12, end_step=1)
        port = make_port("cuda", deck.grid())
        app = TeaLeaf(deck, port=port)
        assert app.model == "cuda"
        result = app.run()
        assert result.steps[0].solve.converged
        # The driver's sections tag the events the port records.
        assert result.trace is port.trace
        assert result.trace.kernel_launches("solve") > 0

    def test_explicit_decomposed_port_shares_its_trace(self):
        from repro.comm.multichunk import MultiChunkPort

        deck = default_deck(n=32, end_step=1)
        port = MultiChunkPort(deck.grid(), nranks=4)
        result = TeaLeaf(deck, port=port).run()
        assert result.trace is port.trace
        assert result.trace.kernel_launches("solve") > 0
        assert result.trace.kernel_launches("summary") > 0

    def test_unknown_model_raises(self):
        from repro.util.errors import ModelError

        with pytest.raises(ModelError, match="unknown model"):
            TeaLeaf(default_deck(n=12), model="sycl")
