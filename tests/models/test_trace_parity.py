"""``--codegen`` is a host-only flag: it must not move the modelled clock.

The compiled hot path replaces kernel bodies, not the device actions the
trace records.  So on every port, for every solver, with residency
tracking either way, a codegen run traces exactly the events of the
interpreted run with the same flags: the same launches, the same
reduction-pass markers and the same partials read-backs (which CUDA and
OpenCL record in ``Port._reduction_epilogue`` on both paths), in the same
order.

A fused run always runs compiled, so its trace has no interpreted twin
to compare with.  Instead each fusing model's fused traces are pinned by
digest, including the groups that run a halo refresh as their prefix.
The digests were taken while fused groups still had an interpreted body
too, and both bodies gave them.
"""

import dataclasses
import functools
import hashlib
import json

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

FUSING_MODELS = [
    m for m in available_models() if make_port(m, Grid2D(nx=8, ny=8)).supports_fusion
]

#: First 16 hex digits of the sha256 of the JSON (``sort_keys=True``) of
#: a model's fused trace signatures over ``sorted(SETUPS)`` x residency
#: (off, on).  Ports whose traces differ only in their arrays share one.
FUSED_DIGESTS = {
    "cuda": "a4a1a6e1670c8f6c",
    "kokkos": "502e081feb8cf332",
    "kokkos-hp": "502e081feb8cf332",
    "opencl": "6bc3fb24fc4a0fc8",
    "openmp-cpp": "57eff75daccbfbdb",
    "openmp-f90": "57eff75daccbfbdb",
    "raja": "57eff75daccbfbdb",
    "raja-gpu": "57eff75daccbfbdb",
    "raja-simd": "57eff75daccbfbdb",
}


@functools.lru_cache(maxsize=None)
def signature(model, setup, fuse=False, codegen=False, residency=False):
    solver, precon = SETUPS[setup]
    deck = dataclasses.replace(
        default_deck(n=32, solver=solver, end_step=1),
        tl_preconditioner_type=precon,
        tl_fuse_kernels=fuse,
        tl_codegen=codegen,
        tl_residency_tracking=residency,
    )
    return trace_signature(TeaLeaf(deck, model=model).run().trace)


@pytest.mark.parametrize(
    "residency", [False, True], ids=["residency-off", "residency-on"]
)
@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("model", available_models())
def test_codegen_traces_like_the_interpreter(model, setup, residency):
    unfused = signature(model, setup, residency=residency)
    compiled = signature(model, setup, codegen=True, residency=residency)
    assert compiled == unfused
    if setup in LOOP_KERNEL:
        assert unfused["kernel_histogram"][LOOP_KERNEL[setup]] > 0
    if model in FUSING_MODELS:
        # Fusion prefixes halo refreshes: each one removed a standalone
        # refresh launch from the fused trace.
        fused = signature(model, setup, fuse=True, residency=residency)
        halos = fused["kernel_histogram"]["halo_update"]
        assert halos < unfused["kernel_histogram"]["halo_update"]


def test_every_fusing_model_is_pinned():
    assert sorted(FUSED_DIGESTS) == FUSING_MODELS


@pytest.mark.parametrize("model", FUSING_MODELS)
def test_fused_traces_match_their_pinned_digest(model):
    sigs = [
        signature(model, setup, fuse=True, residency=residency)
        for setup in sorted(SETUPS)
        for residency in (False, True)
    ]
    blob = json.dumps(sigs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == FUSED_DIGESTS[model]
