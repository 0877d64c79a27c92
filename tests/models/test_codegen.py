"""Caching and opt-out of the codegen backend (``--codegen``).

The compiled hot path replaces every kernel body with one function
composed from the per-op NumPy definitions, so its whole contract is:
*same bits, less time*.  The bits half is a row of the differential
harness (``test_equivalence.py``) on every port, solver and flag set;
these tests pin the plan-level cache (a plan lowers once, and its
compiled functions serve every port and grid) and the per-port opt-out.
"""

import pytest

from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.base import make_port
from repro.models.plan import CompiledKernel, PlanExecutor
from tests.models import test_equivalence as harness
from tests.models.test_equivalence import FOUR_RANK_MODELS, MODELS, Row, flags

REFERENCE_MODEL = "openmp-f90"


# The bitwise checks are harness rows; these ids stay as their aliases.
def _check_codegen_rows(self):
    harness.check(
        *(Row("cg-jac_diag", m, flags("codegen")) for m in MODELS),
        only=[harness.test_solution_matches_the_reference],
    )


class TestCodegenEquivalence:
    test_u_bitwise_identical_to_interpreted = _check_codegen_rows
    test_iteration_trajectories_identical = _check_codegen_rows
    test_summaries_bit_identical = _check_codegen_rows


@pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg", "jacobi"])
def test_every_solver_plan_bitwise_under_codegen(solver):
    harness.check(Row(f"{solver}@2", REFERENCE_MODEL, flags("codegen")))


def test_codegen_combined_with_all_flags_bitwise():
    combined = flags("codegen+fuse+residency+resilient")
    harness.check(*(Row("jac_diag", m, combined) for m in MODELS))


def test_flag_matrix_is_one_bit_pattern():
    # (fuse, codegen, tl_resilient) both ways; fuse always runs compiled.
    matrix = "plain codegen fuse checkpointed checkpointed+codegen checkpointed+fuse"
    harness.check(*(Row("cg@2", REFERENCE_MODEL, flags(f)) for f in matrix.split()))


def test_decomposed_port_falls_back_to_interpreted():
    harness.check(*(Row("4rank", e, flags("codegen")) for e in FOUR_RANK_MODELS))


class TestCodegenCache:
    def test_compiled_steps_cached_per_plan(self):
        """Plan-level cache: the same (fuse, codegen) key returns the
        identical lowered step list, so iteration replay never re-lowers."""
        from repro.core.solvers.base import CG_ITER_BODY

        CG_ITER_BODY._compiled.clear()
        a = CG_ITER_BODY.compiled(fuse=False, codegen=True)
        b = CG_ITER_BODY.compiled(fuse=False, codegen=True)
        assert a is b
        assert any(isinstance(s, CompiledKernel) for s in a)

    def test_generated_functions_shared_across_ports(self):
        """Two ports on different grids run the very same function objects."""
        from repro.core.solvers.base import SOLVE_INIT

        SOLVE_INIT._compiled.clear()
        steps = SOLVE_INIT.compiled(fuse=False, codegen=True)
        (step,) = [s for s in steps if isinstance(s, CompiledKernel)]

        deck_small = default_deck(n=16, solver="cg", end_step=1)
        deck_large = default_deck(n=24, solver="cg", end_step=1)
        out = {}
        for deck in (deck_small, deck_large):
            app = TeaLeaf(deck, model=REFERENCE_MODEL)
            ex = PlanExecutor(app.port, codegen=True)
            app.executor = ex
            app.port.plan_executor = ex
            result = app.run()
            out[deck.x_cells] = result.steps[-1].summary
        # Same fn object served both grids: nothing grid-specific is baked.
        steps2 = SOLVE_INIT.compiled(fuse=False, codegen=True)
        (step2,) = [s for s in steps2 if isinstance(s, CompiledKernel)]
        assert step2.fn is step.fn
        assert out[16] is not None and out[24] is not None


def test_port_opts_out_via_supports_codegen():
    deck = default_deck(n=16, solver="cg", end_step=1)
    port = make_port(REFERENCE_MODEL, deck.grid())
    ex = PlanExecutor(port, codegen=True)
    assert ex.codegen is True
    port.supports_codegen = False
    ex2 = PlanExecutor(port, codegen=True)
    assert ex2.codegen is False
