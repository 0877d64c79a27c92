"""TeaLeaf's iterative sparse solvers.

The paper evaluates three solvers over the 5-point implicit conduction
matrix — Conjugate Gradient (CG), Chebyshev, and Chebyshev Polynomially
Preconditioned CG (PPCG) [Boulton & McIntosh-Smith 2014] — all driven
purely through the :class:`repro.models.base.Port` kernel interface so that
every programming-model port runs byte-identical solver logic.  A Jacobi
solver (present in the reference app) is included as a slow ground-truth.
"""

from repro.core.solvers.base import Solver, SolveResult
from repro.core.solvers.cg import CGSolver
from repro.core.solvers.cheby import ChebyshevSolver
from repro.core.solvers.ppcg import PPCGSolver
from repro.core.solvers.jacobi import JacobiSolver
from repro.core.solvers.explicit import ExplicitSolver
from repro.core.solvers.eigenvalue import (
    EigenEstimate,
    estimate_eigenvalues,
    estimate_chebyshev_iterations,
)

_SOLVERS = {
    "cg": CGSolver,
    "chebyshev": ChebyshevSolver,
    "ppcg": PPCGSolver,
    "jacobi": JacobiSolver,
    # Extension (not evaluated by the paper): the explicit scheme the
    # intro argues against, kept to demonstrate its 1/dx^2 constraint.
    "explicit": ExplicitSolver,
}


def make_solver(name: str) -> Solver:
    """Instantiate a solver by its deck name."""
    try:
        return _SOLVERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown solver '{name}'; available: {', '.join(sorted(_SOLVERS))}"
        ) from None


def solver_names() -> list[str]:
    return sorted(_SOLVERS)


def solver_plan_fragments(deck):
    """The plan fragments a deck's solver replays, in execution order.

    This is the catalogue behind ``repro plan``: the recurring plans of
    one solve, suitable for rendering or fusion inspection.  Data-driven
    plans (PPCG's polynomial preconditioner bakes in the eigenvalue
    estimate) are built from a representative estimate.

    The explicit solver runs outside the plan machinery (it has its own
    dedicated sweep kernel), so it raises :class:`ValueError`.
    """
    from repro.core.solvers.base import (
        CG_ITER_BODY,
        CG_ITER_HEAD,
        CG_ITER_TAIL,
        SOLVE_INIT,
    )
    from repro.core.solvers.cg import PCG_ITER_BODY, PCG_ITER_TAIL, PCG_SETUP
    from repro.core.solvers.cheby import CHEBY_CHECK, CHEBY_HEAD, CHEBY_STEP
    from repro.core.solvers.jacobi import JACOBI_INIT, JACOBI_RESIDUAL, JACOBI_STEP
    from repro.core.solvers.ppcg import (
        PPCG_ITER_TAIL,
        PPCG_RESTART,
        PPCG_RESTART_TAIL,
        polynomial_preconditioner_plan,
    )

    if deck.solver == "jacobi":
        return [JACOBI_INIT, JACOBI_STEP, JACOBI_RESIDUAL]
    if deck.solver == "cg":
        if deck.tl_preconditioner_type == "jac_diag":
            return [SOLVE_INIT, PCG_SETUP, CG_ITER_HEAD, PCG_ITER_BODY, PCG_ITER_TAIL]
        return [SOLVE_INIT, CG_ITER_HEAD, CG_ITER_BODY, CG_ITER_TAIL]
    cg_fragments = [SOLVE_INIT, CG_ITER_HEAD, CG_ITER_BODY, CG_ITER_TAIL]
    if deck.solver == "chebyshev":
        return cg_fragments + [CHEBY_HEAD, CHEBY_STEP, CHEBY_CHECK]
    if deck.solver == "ppcg":
        estimate = EigenEstimate(eigen_min=0.1, eigen_max=4.0)
        return cg_fragments + [
            PPCG_RESTART,
            polynomial_preconditioner_plan(estimate, deck.tl_ppcg_inner_steps),
            PPCG_RESTART_TAIL,
            PCG_ITER_BODY,
            PPCG_ITER_TAIL,
        ]
    raise ValueError(f"solver '{deck.solver}' does not execute through plans")


def solver_timeline(deck):
    """``(plan, in_loop)`` rows of one canonical solve, for liveness.

    The liveness pass (:func:`repro.core.driver.deck_liveness`) needs
    to know which fragments repeat: it unrolls every contiguous run of
    in-loop plans twice so loop-carried fields (``p`` across CG
    iterations, ``sd`` across Chebyshev smoothing steps) stay live across
    the back edge exactly as they do mid-loop.  One-shot setup/teardown
    fragments stay single.
    """
    fragments = solver_plan_fragments(deck)
    if deck.solver == "jacobi":
        loop = {"jacobi_step", "jacobi_residual"}
    elif deck.solver == "cg":
        loop = {
            "cg_iter_head",
            "cg_iter_body",
            "cg_iter_tail",
            "pcg_iter_body",
            "pcg_iter_tail",
        }
    elif deck.solver == "chebyshev":
        # The CG bootstrap iterates before Chebyshev takes over; both
        # loops repeat within a solve.
        loop = {
            "cg_iter_head",
            "cg_iter_body",
            "cg_iter_tail",
            "cheby_step",
            "cheby_check",
        }
    else:  # ppcg — everything after SOLVE_INIT repeats per iteration
        loop = {
            "cg_iter_head",
            "cg_iter_body",
            "cg_iter_tail",
            "ppcg_restart",
            "ppcg_restart_tail",
            "pcg_iter_body",
            "ppcg_iter_tail",
        }
        loop.update(p.name for p in fragments if p.name.startswith("ppcg_precon"))
    return [(plan, plan.name in loop) for plan in fragments]


__all__ = [
    "Solver",
    "SolveResult",
    "CGSolver",
    "ChebyshevSolver",
    "PPCGSolver",
    "JacobiSolver",
    "ExplicitSolver",
    "EigenEstimate",
    "estimate_eigenvalues",
    "estimate_chebyshev_iterations",
    "make_solver",
    "solver_names",
    "solver_plan_fragments",
    "solver_timeline",
]
