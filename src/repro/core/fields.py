"""Canonical TeaLeaf field names and metadata.

Every port allocates exactly this set of cell-centred arrays; solver kernels
refer to fields by these names so that traces, halo exchanges and the
pairwise cross-port equivalence tests can be expressed uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class FieldRole(Enum):
    """Why a field exists; used to decide residency and exchange depth."""

    #: Physical state carried between timesteps.
    STATE = "state"
    #: Solver work vector, reinitialised every solve.
    WORK = "work"
    #: Stencil coefficient, rebuilt at the start of every solve.
    COEFFICIENT = "coefficient"


@dataclass(frozen=True)
class FieldInfo:
    """Static description of one TeaLeaf field."""

    name: str
    role: FieldRole
    description: str


#: Cell density (never changes: TeaLeaf has no hydrodynamics).
DENSITY = "density"
#: Specific energy at the start of the step.
ENERGY0 = "energy0"
#: Specific energy being advanced.
ENERGY1 = "energy1"
#: Temperature-like solve variable, u = energy1 * density.
U = "u"
#: Right-hand side / initial u for the current solve.
U0 = "u0"
#: CG search direction.
P = "p"
#: Residual vector.
R = "r"
#: Matrix-vector product workspace (w = A p).
W = "w"
#: PPCG / Chebyshev smoothing direction.
SD = "sd"
#: Preconditioner output vector (identity preconditioner copies r).
Z = "z"
#: x-face conduction coefficients (rx folded in).
KX = "kx"
#: y-face conduction coefficients (ry folded in).
KY = "ky"

FIELDS: dict[str, FieldInfo] = {
    f.name: f
    for f in [
        FieldInfo(DENSITY, FieldRole.STATE, "cell density"),
        FieldInfo(ENERGY0, FieldRole.STATE, "start-of-step specific energy"),
        FieldInfo(ENERGY1, FieldRole.STATE, "advancing specific energy"),
        FieldInfo(U, FieldRole.WORK, "solve variable u = energy*density"),
        FieldInfo(U0, FieldRole.WORK, "right-hand side of the implicit solve"),
        FieldInfo(P, FieldRole.WORK, "CG search direction"),
        FieldInfo(R, FieldRole.WORK, "residual"),
        FieldInfo(W, FieldRole.WORK, "A*p workspace"),
        FieldInfo(SD, FieldRole.WORK, "Chebyshev/PPCG smoothing direction"),
        FieldInfo(Z, FieldRole.WORK, "preconditioned residual"),
        FieldInfo(KX, FieldRole.COEFFICIENT, "x-face conduction coefficient"),
        FieldInfo(KY, FieldRole.COEFFICIENT, "y-face conduction coefficient"),
    ]
}

#: Order in which ports allocate fields (stable, for reproducible traces).
FIELD_ORDER: tuple[str, ...] = tuple(FIELDS)

#: Fields that must be exchanged before a solve begins (depth 2, matching
#: the reference app's pre-solve exchange of u, and coefficient halos).
PRE_SOLVE_EXCHANGE: tuple[str, ...] = (U, U0, KX, KY)

#: Fields exchanged every CG/Chebyshev/PPCG iteration (depth 1).
PER_ITERATION_EXCHANGE: tuple[str, ...] = (P,)


def role(name: str) -> FieldRole:
    """The :class:`FieldRole` of a canonical field name."""
    return FIELDS[name].role


def is_field(name: str) -> bool:
    """True when ``name`` is a canonical TeaLeaf field name."""
    return name in FIELDS
