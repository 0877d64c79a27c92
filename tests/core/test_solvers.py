"""Solver correctness: against direct sparse solves and each other."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import fields as F
from repro.core import operators as ops
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.solvers import make_solver, solver_names
from repro.util.errors import ConvergenceError

SOLVERS = ["cg", "chebyshev", "ppcg", "jacobi"]


def run_one(solver: str, n: int = 24, eps: float = 1e-10, steps: int = 1):
    deck = default_deck(n=n, solver=solver, end_step=steps, eps=eps)
    app = TeaLeaf(deck, model="openmp-f90")
    return app, app.run()


class TestAgainstDirectSolve:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_matches_scipy_spsolve(self, solver):
        eps = 1e-10 if solver != "jacobi" else 1e-12
        app, result = run_one(solver, eps=eps)
        g = app.grid
        kx = app.port.read_field(F.KX)
        ky = app.port.read_field(F.KY)
        u0 = app.port.read_field(F.U0)
        u = app.port.read_field(F.U)
        A = ops.assemble_sparse_matrix(kx, ky, g)
        direct = spla.spsolve(A.tocsc(), u0[g.inner()].ravel())
        np.testing.assert_allclose(u[g.inner()].ravel(), direct, rtol=1e-6)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_converged_flag_and_residual(self, solver):
        _, result = run_one(solver)
        solve = result.steps[0].solve
        assert solve.converged
        assert solve.iterations >= 1
        assert solve.error <= solve.initial_residual


class TestSolverBehaviour:
    def test_cg_records_scalars(self):
        _, result = run_one("cg")
        solve = result.steps[0].solve
        assert len(solve.cg_alphas) == solve.iterations
        assert all(a > 0 for a in solve.cg_alphas)
        assert all(b >= 0 for b in solve.cg_betas)

    def test_chebyshev_reports_eigen_bounds(self):
        _, result = run_one("chebyshev", n=48, eps=1e-10)
        solve = result.steps[0].solve
        assert solve.eigen_min is not None and solve.eigen_max is not None
        assert 0 < solve.eigen_min < solve.eigen_max

    def test_ppcg_counts_inner_iterations(self):
        deck = default_deck(n=48, solver="ppcg", end_step=1, eps=1e-10)
        app = TeaLeaf(deck, model="openmp-f90")
        result = app.run()
        solve = result.steps[0].solve
        assert solve.inner_iterations > 0
        assert solve.inner_iterations % deck.tl_ppcg_inner_steps == 0

    def test_ppcg_outer_iterations_fewer_than_cg(self):
        """The polynomial preconditioner must pay for itself in outer iters."""
        _, cg_result = run_one("cg", n=48, eps=1e-9)
        _, ppcg_result = run_one("ppcg", n=48, eps=1e-9)
        cg_iters = cg_result.steps[0].solve.iterations
        ppcg_solve = ppcg_result.steps[0].solve
        ppcg_outer = ppcg_solve.iterations - len(ppcg_solve.cg_alphas)
        assert ppcg_outer < cg_iters / 2

    def test_relative_residual_property(self):
        _, result = run_one("cg")
        solve = result.steps[0].solve
        assert solve.relative_residual <= 1e-10 * 1.01

    def test_max_iters_raises_convergence_error(self):
        deck = default_deck(n=32, solver="cg", end_step=1, eps=1e-12)
        deck = deck.__class__(**{**deck.__dict__, "tl_max_iters": 3})
        app = TeaLeaf(deck, model="openmp-f90")
        with pytest.raises(ConvergenceError) as excinfo:
            app.run()
        assert excinfo.value.iterations == 3
        assert excinfo.value.residual > 0

    def test_already_converged_field(self):
        """A zero-energy problem converges instantly (rr0 == 0)."""
        from repro.core.state import State

        deck = default_deck(n=8, solver="cg", end_step=1)
        deck = deck.__class__(
            **{**deck.__dict__, "states": (State(index=1, density=1.0, energy=0.0),)}
        )
        app = TeaLeaf(deck, model="openmp-f90")
        result = app.run()
        assert result.steps[0].solve.converged
        assert result.steps[0].solve.iterations == 0


class TestCrossSolverAgreement:
    def test_all_solvers_agree_on_final_field(self):
        fields = {}
        for solver in SOLVERS:
            eps = 1e-11 if solver != "jacobi" else 1e-13
            app, _ = run_one(solver, n=20, eps=eps, steps=2)
            fields[solver] = app.port.read_field(F.U)
        ref = fields["cg"]
        g = default_deck(n=20).grid()
        for solver, u in fields.items():
            np.testing.assert_allclose(
                u[g.inner()], ref[g.inner()], rtol=1e-6, atol=1e-9,
                err_msg=solver,
            )


class TestFactory:
    def test_names(self):
        assert solver_names() == ["cg", "chebyshev", "explicit", "jacobi", "ppcg"]

    @pytest.mark.parametrize("name", SOLVERS)
    def test_make_solver(self, name):
        assert make_solver(name).name == name

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("amg")


class TestConservation:
    @pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg"])
    def test_total_temperature_conserved(self, solver):
        """Zero-flux boundaries conserve the u integral across steps."""
        deck = default_deck(n=24, solver=solver, end_step=3, eps=1e-11)
        deck = deck.__class__(**{**deck.__dict__, "summary_frequency": 1})
        app = TeaLeaf(deck, model="openmp-f90")
        result = app.run()
        temps = [s.summary.temperature for s in result.steps]
        for t in temps[1:]:
            assert t == pytest.approx(temps[0], rel=1e-9)

    def test_heat_flows_hot_to_cold(self):
        """Peak temperature decays monotonically (maximum principle)."""
        deck = default_deck(n=24, solver="cg", end_step=3, eps=1e-11)
        app = TeaLeaf(deck, model="openmp-f90")
        g = app.grid
        peaks = []
        for _ in range(deck.end_step):
            app.step()
            peaks.append(app.port.read_field(F.U)[g.inner()].max())
        assert peaks == sorted(peaks, reverse=True)
