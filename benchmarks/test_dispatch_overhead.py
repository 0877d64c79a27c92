"""Dispatch-overhead trajectory point for the kernel-plan execution core.

Runs the benchmark deck (jac_diag-preconditioned CG, where fusion has the
most adjacent elementwise work) on every registered port with the plan
optimisations off and on, and records per-CG-iteration kernel-launch
counts, wall time, and host<->device transfer counts to
``BENCH_dispatch.json`` — the baseline future perf PRs (buffer arenas,
async halo overlap) will be measured against.

Offload ports additionally measure the residency mirror on repeated
``read_field`` probes (the checkpoint/monitoring access pattern): the
second probe of a clean field must not pay a device->host copy.

A second sweep measures the compiled hot path (``--codegen``):
interpreted per-kernel dispatch vs the plan lowered to composed NumPy,
recorded to ``BENCH_codegen.json`` with bitwise-identity asserted
against the golden solution hash.

Run with::

    pytest benchmarks/test_dispatch_overhead.py --benchmark-only
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import parse_deck_file
from repro.core.driver import TeaLeaf
from repro.models.base import available_models
from repro.models.tracing import EventKind

REPO = Path(__file__).resolve().parents[1]
DECK = REPO / "decks" / "tea_bm_short.in"
OUT = REPO / "BENCH_dispatch.json"

_RESULTS: dict[str, dict] = {}


def measure(model: str, fuse: bool, residency: bool, codegen: bool = False) -> dict:
    deck = parse_deck_file(DECK)
    deck = dataclasses.replace(
        deck,
        tl_preconditioner_type="jac_diag",
        tl_fuse_kernels=fuse,
        tl_residency_tracking=residency,
        tl_codegen=codegen,
    )
    app = TeaLeaf(deck, model=model)
    t0 = time.perf_counter()
    result = app.run()
    wall = time.perf_counter() - t0

    trace = result.trace
    iters = result.total_iterations
    transfers = sum(1 for e in trace.events if e.kind == EventKind.TRANSFER)
    # Mirror probe: two reads of the (now idle) solution field — the
    # repeated-readback pattern of checkpoint probes and monitors.
    app.port.read_field(F.U)
    probe_before = sum(1 for e in trace.events if e.kind == EventKind.TRANSFER)
    app.port.read_field(F.U)
    probe_after = sum(1 for e in trace.events if e.kind == EventKind.TRANSFER)

    return {
        "fuse": fuse,
        "residency": residency,
        "codegen": codegen,
        "iterations": iters,
        "kernel_launches": trace.kernel_launches(),
        "launches_per_iteration": round(trace.kernel_launches() / iters, 3),
        "transfers": transfers,
        "repeat_readback_transfers": probe_after - probe_before,
        "wall_seconds": round(wall, 4),
        "u_sha": hash_u(app),
    }


def hash_u(app: TeaLeaf) -> str:
    import hashlib

    return hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("model", available_models())
def test_dispatch_overhead(model, benchmark):
    def both():
        off = measure(model, fuse=False, residency=False)
        on = measure(model, fuse=True, residency=True)
        return off, on

    off, on = benchmark.pedantic(both, rounds=1, iterations=1)
    _RESULTS[model] = {"off": off, "on": on}

    # The optimised run must be a pure win: identical solution...
    assert on["u_sha"] == off["u_sha"]
    assert on["iterations"] == off["iterations"]
    # ...and never more launches or transfers than the baseline.
    assert on["kernel_launches"] <= off["kernel_launches"]
    assert on["transfers"] <= off["transfers"]


_CODEGEN_RESULTS: dict[str, dict] = {}
CODEGEN_OUT = REPO / "BENCH_codegen.json"
GOLDEN_U_SHA = "b6dc591ad1a00bda"


@pytest.mark.parametrize("model", available_models())
def test_codegen_speedup(model, benchmark):
    """Interpreted dispatch vs the compiled-NumPy hot path (--codegen)."""

    def both():
        interp = measure(model, fuse=False, residency=False, codegen=False)
        comp = measure(model, fuse=False, residency=False, codegen=True)
        return interp, comp

    interp, comp = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = interp["wall_seconds"] / max(comp["wall_seconds"], 1e-12)
    _CODEGEN_RESULTS[model] = {
        "interpreted": interp,
        "codegen": comp,
        "speedup": round(speedup, 2),
    }

    # The compiled hot path is a pure substitution: identical bits.
    assert comp["u_sha"] == interp["u_sha"] == GOLDEN_U_SHA
    assert comp["iterations"] == interp["iterations"]


def test_write_codegen_json():
    """Aggregate the codegen measurements into BENCH_codegen.json."""
    if not _CODEGEN_RESULTS:
        pytest.skip("no codegen measurements collected")
    speedups = {m: r["speedup"] for m, r in _CODEGEN_RESULTS.items()}
    payload = {
        "deck": DECK.name,
        "preconditioner": "jac_diag",
        "golden_u_sha": GOLDEN_U_SHA,
        "models": _CODEGEN_RESULTS,
        "summary": {
            "speedups": dict(sorted(speedups.items())),
            "max_speedup": max(speedups.values()),
            "max_speedup_model": max(speedups, key=speedups.get),
        },
    }
    CODEGEN_OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    # Acceptance: at least one port's hot path gets >= 5x faster.
    assert max(speedups.values()) >= 5.0


def test_write_bench_json():
    """Aggregate the per-model measurements into BENCH_dispatch.json."""
    if not _RESULTS:  # benchmark selection skipped the sweep
        pytest.skip("no dispatch measurements collected")
    fused = [m for m, r in _RESULTS.items()
             if r["on"]["kernel_launches"] < r["off"]["kernel_launches"]]
    fewer_transfers = [m for m, r in _RESULTS.items()
                       if r["on"]["transfers"] < r["off"]["transfers"]]
    mirror_hits = [m for m, r in _RESULTS.items()
                   if r["on"]["repeat_readback_transfers"]
                   < r["off"]["repeat_readback_transfers"]]
    payload = {
        "deck": DECK.name,
        "preconditioner": "jac_diag",
        "models": _RESULTS,
        "summary": {
            "fewer_launches_fused": sorted(fused),
            "fewer_transfers_resident": sorted(fewer_transfers),
            "mirror_elides_repeat_readback": sorted(mirror_hits),
        },
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    # Acceptance: fusion-capable host ports launch measurably less per
    # iteration; offload ports move measurably less data.
    assert {"openmp-f90", "openmp-cpp", "kokkos", "raja"} <= set(fused)
    assert {"openmp4", "openmp45", "openacc"} <= set(fewer_transfers)
    assert {"cuda", "opencl"} <= set(mirror_hits)
