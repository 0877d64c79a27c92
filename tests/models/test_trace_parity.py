"""``--codegen`` is a host-only flag: it must not move the modelled clock.

The compiled hot path replaces kernel bodies, not the device actions the
trace records.  So on every port, for every solver, with fusion and
residency tracking either way, a codegen run traces exactly the events of
the interpreted run with the same flags: the same launches, the same
reduction-pass markers and the same partials read-backs (which CUDA and
OpenCL record in ``Port._reduction_epilogue`` on both paths), in the same
order.  With fusion on, that includes the groups that run a halo refresh
as their prefix.
"""

import dataclasses

import pytest

from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.grid import Grid2D
from repro.harness.goldentrace import trace_signature
from repro.models.base import available_models, make_port

#: (solver, preconditioner) setups; on a 32x32 mesh the Chebyshev and
#: PPCG loops run past their CG bootstrap within one step.
SETUPS = {
    "cg": ("cg", "none"),
    "cg-jac_diag": ("cg", "jac_diag"),
    "chebyshev": ("chebyshev", "none"),
    "ppcg": ("ppcg", "none"),
    "jacobi": ("jacobi", "none"),
}

#: The launch each solver's own loop adds, proving it ran.
LOOP_KERNEL = {"chebyshev": "cheby_iterate", "ppcg": "ppcg_inner"}


def signature(model, setup, **flags):
    solver, precon = SETUPS[setup]
    deck = dataclasses.replace(
        default_deck(n=32, solver=solver, end_step=1),
        tl_preconditioner_type=precon,
        **flags,
    )
    return trace_signature(TeaLeaf(deck, model=model).run().trace)


@pytest.mark.parametrize(
    "residency", [False, True], ids=["residency-off", "residency-on"]
)
@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("model", available_models())
def test_codegen_traces_like_the_interpreter(model, setup, residency):
    sigs = {
        (fuse, codegen): signature(
            model,
            setup,
            tl_fuse_kernels=fuse,
            tl_codegen=codegen,
            tl_residency_tracking=residency,
        )
        for fuse in (False, True)
        for codegen in (False, True)
    }
    for fuse in (False, True):
        assert sigs[fuse, True] == sigs[fuse, False], f"fuse={fuse}"
    unfused = sigs[False, False]
    if setup in LOOP_KERNEL:
        assert unfused["kernel_histogram"][LOOP_KERNEL[setup]] > 0
    if make_port(model, Grid2D(nx=8, ny=8)).supports_fusion:
        # The fused comparison covered halo-prefixed groups: each one
        # removed a standalone refresh launch from both fused traces.
        halos = sigs[True, False]["kernel_histogram"]["halo_update"]
        assert halos < unfused["kernel_histogram"]["halo_update"]
