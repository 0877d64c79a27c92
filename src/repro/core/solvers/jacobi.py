"""Jacobi solver.

The reference TeaLeaf ships a Jacobi solver alongside CG/Chebyshev/PPCG.
The paper does not benchmark it (it converges far too slowly for the mesh
convergence study), but it is the simplest possible correct solver for the
same matrix, so the test-suite uses it as an independent ground truth.

Convergence is on the l1 change between successive iterates relative to the
first sweep's change, as in the reference kernel.
"""

from __future__ import annotations

from repro.core.deck import Deck
from repro.core import fields as F
from repro.core.solvers.base import Solver, SolveResult
from repro.models.plan import HaloStep, KernelCall, Plan, executor_for
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a core <-> models import cycle
    from repro.models.base import Port

#: cg_init doubles as the initial-residual probe for reporting; its
#: scalar is not finite-guarded here, matching the historical behaviour
#: (the sweep itself detects corruption through the change reduction).
JACOBI_INIT = Plan("jacobi_init", (KernelCall("cg_init", out="rr0"),))

#: One sweep: stash the previous iterate in r (its only free array),
#: then update u from the neighbours of the stash.
JACOBI_STEP = Plan(
    "jacobi_step",
    (
        HaloStep((F.U,), depth=1),
        KernelCall("copy_field", (F.U, F.R)),
        KernelCall("jacobi_iterate", out="change"),
    ),
)

#: The true residual norm reported after the sweeps; residual + norm are
#: both elementwise, so they fuse into one traversal where supported.
JACOBI_RESIDUAL = Plan(
    "jacobi_residual",
    (
        HaloStep((F.U,), depth=1),
        KernelCall("tea_leaf_residual"),
        KernelCall("norm2_field", (F.R,), out="rrn"),
    ),
)


class JacobiSolver(Solver):
    name = "jacobi"

    def solve(self, port: Port, deck: Deck) -> SolveResult:
        ex = executor_for(port)
        rr0 = ex.run(JACOBI_INIT)["rr0"]
        result = SolveResult(
            solver=self.name,
            converged=False,
            iterations=0,
            inner_iterations=0,
            error=rr0,
            initial_residual=rr0,
        )
        if rr0 == 0.0:
            result.converged = True
            return result

        first_change: float | None = None
        for _ in range(deck.tl_max_iters):
            change = ex.run(JACOBI_STEP)["change"]
            result.iterations += 1
            if first_change is None:
                first_change = change if change > 0.0 else 1.0
            if change <= deck.tl_eps * first_change:
                result.converged = True
                break

        result.error = ex.run(JACOBI_RESIDUAL)["rrn"]
        return self.require_convergence(result, deck)
