"""Property-based solver tests over randomised physics.

Hypothesis generates random (but valid) density fields, timestep sizes and
coefficient choices; the solvers must converge and match the direct sparse
solve on every instance — the strongest statement that the kernel set
implements the operator it claims to.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import fields as F
from repro.core import operators as ops
from repro.core.grid import Grid2D
from repro.core.solvers.base import Solver
from repro.models.base import make_port
from repro.models.plan import KernelCall
from repro.util.errors import SolverError


def solve_random_problem(port, grid, density, energy, dt, coefficient, eps=1e-10):
    """Drive a CG solve by hand through the port kernel set."""

    def call(op, *args):
        return port.dispatch(KernelCall(op, args))

    port.set_state(density, energy)
    call("set_field")
    port.begin_solve()
    call("tea_leaf_init", dt, coefficient)
    rro = call("cg_init")
    rr0 = rro
    for _ in range(5000):
        port.update_halo((F.P,), depth=1)
        pw = call("cg_calc_w")
        if pw == 0.0:
            # Mirror the driver's hardened CG: p.Ap = 0 is only legitimate
            # when the residual already meets the tolerance (Solver raises
            # on a genuine Krylov breakdown rather than reporting success).
            if Solver._converged(rro, rr0, eps):
                break
            raise SolverError(
                f"CG breakdown in test harness: p.Ap = 0 with squared "
                f"residual {rro:.3e} still above tolerance"
            )
        alpha = rro / pw
        rrn = call("cg_calc_ur", alpha)
        if rrn <= eps * eps * rr0:
            break
        call("cg_calc_p", rrn / rro)
        rro = rrn
    port.end_solve()


@st.composite
def random_problem(draw):
    nx = draw(st.integers(4, 14))
    ny = draw(st.integers(4, 14))
    dt = draw(st.floats(1e-4, 0.05))
    coefficient = draw(st.sampled_from([ops.CONDUCTIVITY, ops.RECIP_CONDUCTIVITY]))
    seed = draw(st.integers(0, 2**31))
    return nx, ny, dt, coefficient, seed


def build_fields(nx, ny, seed):
    grid = Grid2D(nx=nx, ny=ny, xmin=0, xmax=1, ymin=0, ymax=1)
    rng = np.random.default_rng(seed)
    density = grid.allocate()
    density[...] = rng.uniform(0.05, 50.0, grid.shape)
    energy = grid.allocate()
    energy[...] = rng.uniform(0.0, 10.0, grid.shape)
    return grid, density, energy


class TestRandomisedProblems:
    @given(problem=random_problem())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cg_matches_direct_solve(self, problem):
        nx, ny, dt, coefficient, seed = problem
        grid, density, energy = build_fields(nx, ny, seed)
        port = make_port("openmp-f90", grid)
        solve_random_problem(port, grid, density, energy, dt, coefficient)

        kx, ky = port.read_field(F.KX), port.read_field(F.KY)
        A = ops.assemble_sparse_matrix(kx, ky, grid)
        u0 = port.read_field(F.U0)[grid.inner()].ravel()
        direct = spla.spsolve(A.tocsc(), u0)
        u = port.read_field(F.U)[grid.inner()].ravel()
        np.testing.assert_allclose(u, direct, rtol=1e-6, atol=1e-10)

    @given(problem=random_problem())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_operator_spd_for_any_valid_physics(self, problem):
        nx, ny, dt, coefficient, seed = problem
        grid, density, energy = build_fields(nx, ny, seed)
        kx, ky = grid.allocate(), grid.allocate()
        ops.init_coefficients(density, grid, dt, coefficient, kx, ky)
        A = ops.assemble_sparse_matrix(kx, ky, grid)
        asym = abs(A - A.T).max()
        assert asym < 1e-12
        eigs = np.linalg.eigvalsh(A.toarray())
        assert eigs.min() > 0

    @given(problem=random_problem())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_solve_conserves_total_u(self, problem):
        nx, ny, dt, coefficient, seed = problem
        grid, density, energy = build_fields(nx, ny, seed)
        port = make_port("openmp-f90", grid)
        solve_random_problem(port, grid, density, energy, dt, coefficient, eps=1e-12)
        u0 = port.read_field(F.U0)[grid.inner()].sum()
        u = port.read_field(F.U)[grid.inner()].sum()
        assert u == pytest.approx(u0, rel=1e-8)

    @given(
        problem=random_problem(),
        model=st.sampled_from(["kokkos", "cuda", "raja-simd"]),
    )
    # The seed-era falsifying example: Kokkos drifted from the Fortran-style
    # OpenMP port at the last few ULPs because each port finalised its CG
    # reductions in a different floating-point order.  Pinned so the exact
    # counterexample that motivated the deterministic reduction core runs on
    # every invocation, not just when Hypothesis rediscovers it.
    @example(
        problem=(9, 10, 0.0030421478487320614, ops.RECIP_CONDUCTIVITY, 332284993),
        model="kokkos",
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ports_agree_on_random_problems(self, problem, model):
        nx, ny, dt, coefficient, seed = problem
        grid, density, energy = build_fields(nx, ny, seed)
        u = {}
        for m in ("openmp-f90", model):
            port = make_port(m, grid)
            solve_random_problem(port, grid, density, energy, dt, coefficient)
            u[m] = port.read_field(F.U)[grid.inner()]
        # Bitwise: every port routes reductions through the shared
        # deterministic pairwise tree, so there is no tolerance to allow.
        np.testing.assert_allclose(u[model], u["openmp-f90"], rtol=0, atol=0)
