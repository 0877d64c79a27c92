"""Eigenvalue estimation for the Chebyshev solver family.

CG is mathematically the Lanczos process in disguise: the step scalars
``alpha_k`` and ``beta_k`` of ``k`` CG iterations define a tridiagonal
matrix T_k whose extremal eigenvalues (Ritz values) approximate the
extremal eigenvalues of A from the inside.  TeaLeaf runs a short CG phase,
assembles T_k, and inflates the Ritz interval by a safety factor before
seeding the Chebyshev polynomial — exactly what this module implements.

References: Boulton & McIntosh-Smith, "Optimising sparse iterative solvers
for many-core computer architectures" (UKMAC 2014), cited by the paper for
the PPCG solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.errors import SolverError

#: Ritz values approach the true spectrum from the inside, so the reference
#: app widens the interval; these are its factors.
SAFETY_LOW = 0.95
SAFETY_HIGH = 1.05


@dataclass(frozen=True)
class EigenEstimate:
    """Estimated spectral interval of the conduction matrix A."""

    eigen_min: float
    eigen_max: float

    @property
    def condition_number(self) -> float:
        return self.eigen_max / self.eigen_min

    @property
    def theta(self) -> float:
        """Interval centre — the Chebyshev shift."""
        return 0.5 * (self.eigen_max + self.eigen_min)

    @property
    def delta(self) -> float:
        """Interval half-width — the Chebyshev scale."""
        return 0.5 * (self.eigen_max - self.eigen_min)

    @property
    def sigma(self) -> float:
        return self.theta / self.delta


def lanczos_tridiagonal(
    alphas: list[float], betas: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the Lanczos T matrix from CG scalars.

    With CG scalars ``alpha_k`` (step length) and ``beta_k`` (direction
    update), the Lanczos tridiagonal has::

        T[k, k]   = 1/alpha_k + beta_{k-1}/alpha_{k-1}   (beta_{-1} = 0)
        T[k, k+1] = sqrt(beta_k) / alpha_k
    """
    n = len(alphas)
    if n < 2:
        raise SolverError(f"need at least 2 CG iterations to estimate eigenvalues, got {n}")
    if len(betas) != n:
        raise SolverError(f"alpha/beta length mismatch: {n} vs {len(betas)}")
    if any(a <= 0 for a in alphas):
        raise SolverError("CG produced a non-positive alpha; matrix is not SPD")
    if any(b < 0 for b in betas):
        raise SolverError("CG produced a negative beta; matrix is not SPD")

    diag = np.empty(n)
    off = np.empty(n - 1)
    for k in range(n):
        diag[k] = 1.0 / alphas[k]
        if k > 0:
            diag[k] += betas[k - 1] / alphas[k - 1]
        if k < n - 1:
            off[k] = math.sqrt(betas[k]) / alphas[k]
    return diag, off


def estimate_eigenvalues(
    alphas: list[float],
    betas: list[float],
    safety_low: float = SAFETY_LOW,
    safety_high: float = SAFETY_HIGH,
) -> EigenEstimate:
    """Ritz-value spectral interval from recorded CG scalars, widened."""
    # Imported here: only Chebyshev and PPCG need scipy, and a CG run
    # should not pay for loading it.
    from scipy.linalg import eigh_tridiagonal

    diag, off = lanczos_tridiagonal(alphas, betas)
    ritz = eigh_tridiagonal(diag, off, eigvals_only=True)
    eigen_min = float(ritz[0]) * safety_low
    eigen_max = float(ritz[-1]) * safety_high
    if eigen_min <= 0.0:
        raise SolverError(
            f"estimated eigen_min {eigen_min:.3e} is not positive; "
            "the CG phase was too short or the matrix is indefinite"
        )
    return EigenEstimate(eigen_min=eigen_min, eigen_max=eigen_max)


def estimate_chebyshev_iterations(estimate: EigenEstimate, eps: float) -> int:
    """Predicted Chebyshev iterations to reach a relative residual ``eps``.

    The Chebyshev error bound contracts per iteration by
    ``(sqrt(cn) - 1) / (sqrt(cn) + 1)`` for condition number ``cn``; solving
    for the iteration count that reaches ``eps`` gives the estimate the
    reference app prints before entering the Chebyshev loop.
    """
    if not (0 < eps < 1):
        raise SolverError(f"eps must be in (0, 1), got {eps}")
    cn = estimate.condition_number
    rate = (math.sqrt(cn) - 1.0) / (math.sqrt(cn) + 1.0)
    if rate <= 0.0:  # cn == 1: one iteration nails it
        return 1
    return max(1, math.ceil(math.log(eps) / math.log(rate)))
