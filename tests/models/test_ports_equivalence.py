"""The central cross-port contract: every model computes the same physics.

The paper keeps "TeaLeaf's core solver logic and parameters ... consistent
between ports to ensure that each of the programming models were
objectively compared" — here that is enforced kernel by kernel: every
registered port must reproduce the reference-operator results.  The
end-to-end half, the same solution bit for bit, is the differential
harness in ``test_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core import fields as F
from repro.core import operators as ops
from repro.core.deck import default_deck
from repro.core.state import generate_chunk
from repro.models.base import available_models, make_port
from repro.models.plan import KernelCall
from tests.models import test_equivalence as harness
from tests.models.test_equivalence import PLAIN, Row

ALL_MODELS = available_models()


def call(port, op, *args):
    """Run one op on ``port`` through its dispatch entry."""
    return port.dispatch(KernelCall(op, args))


def fresh_port(model, n=16):
    deck = default_deck(n=n)
    grid = deck.grid()
    density, energy = generate_chunk(list(deck.states), grid)
    port = make_port(model, grid)
    port.set_state(density, energy)
    # Driver ordering: set_field runs on the host before the solve-scope
    # data region opens (energy0 is never mapped to the device).
    call(port, "set_field")
    port.begin_solve()
    call(port, "tea_leaf_init", deck.initial_timestep, deck.tl_coefficient)
    return deck, grid, port


def reference_fields(n=16):
    deck = default_deck(n=n)
    grid = deck.grid()
    density, energy = generate_chunk(list(deck.states), grid)
    u, u0 = grid.allocate(), grid.allocate()
    kx, ky = grid.allocate(), grid.allocate()
    ops.compute_u(density, energy, u)
    u0[...] = u
    ops.init_coefficients(density, grid, deck.initial_timestep, deck.tl_coefficient, kx, ky)
    return grid, density, energy, u, u0, kx, ky


@pytest.mark.parametrize("model", ALL_MODELS)
class TestKernelEquivalence:
    def test_tea_leaf_init_matches_reference(self, model):
        deck, grid, port = fresh_port(model)
        gridr, density, energy, u, u0, kx, ky = reference_fields()
        inner = grid.inner()
        port_u = port.read_field(F.U)
        port_kx = port.read_field(F.KX)
        port_ky = port.read_field(F.KY)
        port.end_solve()
        np.testing.assert_allclose(port_u[inner], u[inner], rtol=1e-14)
        np.testing.assert_allclose(port_kx[inner], kx[inner], rtol=1e-14)
        np.testing.assert_allclose(port_ky[inner], ky[inner], rtol=1e-14)

    def test_matvec_and_reductions_match_reference(self, model):
        deck, grid, port = fresh_port(model)
        rro = call(port, "cg_init")
        # reference: w = A u; r = u0 - w; rro = r.r
        _, density, energy, u, u0, kx, ky = reference_fields()
        w = grid.allocate()
        ops.apply_matrix(u, kx, ky, grid.halo, w)
        r = u0 - w
        expected_rro = ops.norm2(r, grid.halo)
        assert rro == pytest.approx(expected_rro, rel=1e-12)
        pw = call(port, "cg_calc_w")
        ap = grid.allocate()
        ops.apply_matrix(r, kx, ky, grid.halo, ap)  # p == r after cg_init
        expected_pw = ops.dot(r, ap, grid.halo)
        assert pw == pytest.approx(expected_pw, rel=1e-12)
        port.end_solve()

    def test_norm_dot_copy(self, model):
        deck, grid, port = fresh_port(model)
        call(port, "cg_init")
        n2 = call(port, "norm2_field", F.R)
        d = call(port, "dot_fields", F.R, F.P)
        assert n2 == pytest.approx(d, rel=1e-12)  # p == r after cg_init
        call(port, "copy_field", F.R, F.SD)
        port.end_solve()
        np.testing.assert_array_equal(
            port.read_field(F.SD)[grid.inner()], port.read_field(F.R)[grid.inner()]
        )

    def test_finalise_recovers_energy(self, model):
        deck, grid, port = fresh_port(model)
        call(port, "tea_leaf_finalise")
        port.end_solve()
        u = port.read_field(F.U)
        density = port.read_field(F.DENSITY)
        energy = port.read_field(F.ENERGY1)
        inner = grid.inner()
        np.testing.assert_allclose(
            energy[inner], u[inner] / density[inner], rtol=1e-14
        )

    def test_field_summary_matches_reference(self, model):
        deck, grid, port = fresh_port(model)
        call(port, "tea_leaf_finalise")
        port.end_solve()
        vol, mass, ie, temp = call(port, "field_summary")
        density = port.read_field(F.DENSITY)
        energy = port.read_field(F.ENERGY1)
        u = port.read_field(F.U)
        expected = ops.field_summary(density, energy, u, grid)
        for got, want in zip((vol, mass, ie, temp), expected):
            assert got == pytest.approx(want, rel=1e-12)


# The end-to-end checks are harness rows, bitwise since they moved; these
# ids stay as their aliases.
def _check_solver_rows(self, solver):
    harness.check(
        *(Row(solver, m, PLAIN) for m in ALL_MODELS),
        only=[harness.test_solution_matches_the_reference],
    )


@pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg"])
class TestEndToEndEquivalence:
    test_all_models_reach_the_same_solution = _check_solver_rows
    test_iteration_counts_identical = _check_solver_rows


class TestRecipCoefficient:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_recip_conductivity_equivalence(self, model):
        harness.check(Row("recip", model, PLAIN))
