"""Explicit (forward-Euler) diffusion — the intro's cautionary tale.

The paper's §1.1 motivates the implicit solvers: "The explicit solution,
though simple to implement is constrained by a timestep that scales as
1/dx^2".  This solver (an extension beyond the reference app) implements
that explicit scheme so the constraint is demonstrable: advancing one deck
timestep requires sub-cycling at the stable explicit step, and the number
of sub-steps grows quadratically with resolution — measured directly by
the test-suite.

Implementation note: one explicit Euler step is ``u <- 2u - A u`` (with
the face coefficients built for the sub-step), which is exactly a
Chebyshev init sweep with ``theta = 1`` after refreshing ``u0 = u`` — so
the solver composes entirely from the existing port kernel set, as two
plans the executor runs on every programming model unchanged.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core import fields as F
from repro.core.deck import Deck
from repro.core.solvers.base import Solver, SolveResult
from repro.models.plan import Bind, HaloStep, KernelCall, Plan, executor_for

if TYPE_CHECKING:  # avoid a core <-> models import cycle
    from repro.models.base import Port

#: Fraction of the stability limit to run at (the classic safety margin).
STABILITY_SAFETY = 0.9

#: Rebuild the face coefficients for the stable sub-step.
EXPLICIT_INIT = Plan(
    "explicit_init",
    (KernelCall("tea_leaf_init", (Bind("dt"), Bind("coefficient"))),),
)

#: One forward-Euler sub-step: the right-hand side is the current u, and
#: u += (u0 - A u) is a Chebyshev init sweep with theta = 1.
EXPLICIT_SUBSTEP = Plan(
    "explicit_substep",
    (
        KernelCall("copy_field", (F.U, F.U0)),
        HaloStep((F.U,), depth=1),
        KernelCall("cheby_init", (1.0,)),
    ),
)


def stability_sum(port: "Port") -> float:
    """max over cells of the coefficient row-sum (kx_e + kx_w + ky_n + ky_s).

    Forward Euler on the conduction operator is monotone/stable when this
    sum is at most 1 for the coefficients built at the step size in use.
    """
    kx = port.read_field(F.KX)
    ky = port.read_field(F.KY)
    h = port.grid.halo
    nx, ny = port.grid.nx, port.grid.ny
    kxc = kx[h : h + ny, h : h + nx]
    kxe = kx[h : h + ny, h + 1 : h + nx + 1]
    kyc = ky[h : h + ny, h : h + nx]
    kyn = ky[h + 1 : h + ny + 1, h : h + nx]
    return float((kxc + kxe + kyc + kyn).max())


class ExplicitSolver(Solver):
    """Sub-cycled forward Euler (extension; not part of the paper's set)."""

    name = "explicit"

    def solve(self, port: "Port", deck: Deck) -> SolveResult:
        dt = deck.initial_timestep
        # Coefficients were built for the full dt by tea_leaf_init; the
        # stability sum scales linearly in dt, so it directly gives the
        # sub-cycling factor.
        s_full = stability_sum(port)
        substeps = max(1, math.ceil(s_full / STABILITY_SAFETY))
        if substeps > deck.tl_max_iters:
            from repro.util.errors import ConvergenceError

            raise ConvergenceError(
                f"explicit solve needs {substeps} sub-steps (stability sum "
                f"{s_full:.1f}); the 1/dx^2 constraint makes this mesh "
                "impractical explicitly — use an implicit solver",
                iterations=0,
                residual=float("nan"),
            )

        ex = executor_for(port)
        ex.run(
            EXPLICIT_INIT,
            {"dt": dt / substeps, "coefficient": deck.tl_coefficient},
        )
        for _ in range(substeps):
            ex.run(EXPLICIT_SUBSTEP)

        return SolveResult(
            solver=self.name,
            converged=True,
            iterations=substeps,
            inner_iterations=0,
            # Explicit integration has no algebraic residual; report the
            # stability sum actually used per sub-step for diagnostics.
            error=s_full / substeps,
            initial_residual=s_full,
        )
