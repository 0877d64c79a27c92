"""Golden execution-trace snapshots for the port regression gate.

The kernel-plan refactor rebuilt every port on the shared dispatch core
with the contract that, with fusion and residency tracking off, each
port's event stream is *exactly* what the hand-written ports produced.
This module defines the snapshot format that pins that contract:

* the full ordered event stream, reduced to a SHA-256 over
  ``kind:name[:direction]`` lines (event *ordering*, not just counts);
* per-kernel launch histograms and the aggregate byte/flop/transfer
  totals (the quantities the performance model consumes);
* the first events verbatim, so a mismatch is debuggable without
  re-deriving the stream by hand.

``python -m repro.harness.goldentrace --out tests/models/golden_traces``
regenerates the snapshots; the differential harness
(`tests/models/test_equivalence.py`) replays the benchmark deck and
compares signatures.  Snapshots were captured from the pre-refactor
imperative ports and must only be regenerated for an intentional,
reviewed trace change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.models.tracing import EventKind, Trace

#: Deck every snapshot is captured on (the paper's benchmark problem,
#: shortened).
GOLDEN_DECK = "decks/tea_bm_short.in"

#: Events shown verbatim at the head of the snapshot for debuggability.
HEAD_EVENTS = 40


def event_lines(trace: Trace) -> list[str]:
    """The ordered event stream as stable one-line records."""
    out = []
    for e in trace.events:
        line = f"{e.kind.value}:{e.name}"
        if e.direction is not None:
            line += f":{e.direction.value}"
        out.append(line)
    return out


def trace_signature(trace: Trace) -> dict:
    """JSON-serialisable signature pinning ordering and cost structure."""
    lines = event_lines(trace)
    return {
        "events": len(lines),
        "event_stream_sha256": hashlib.sha256(
            "\n".join(lines).encode()
        ).hexdigest(),
        "head": lines[:HEAD_EVENTS],
        "kernel_launches": trace.kernel_launches(),
        "kernel_histogram": dict(sorted(trace.kernel_histogram().items())),
        "kernel_bytes": trace.kernel_bytes(),
        "flops": trace.flops(),
        "transfers": len(trace.filtered(None, EventKind.TRANSFER)),
        "transfer_bytes": trace.transfer_bytes(),
        "reduction_passes": len(trace.filtered(None, EventKind.REDUCTION_PASS)),
        "regions": trace.region_entries(),
    }


def capture(model: str, deck_path: str = GOLDEN_DECK) -> dict:
    """Run ``deck_path`` on ``model`` and return its trace signature."""
    from repro.core.deck import parse_deck_file
    from repro.core.driver import TeaLeaf

    deck = parse_deck_file(deck_path)
    result = TeaLeaf(deck, model=model).run()
    signature = trace_signature(result.trace)
    signature["model"] = model
    signature["deck"] = Path(deck_path).name
    signature["total_iterations"] = result.total_iterations
    return signature


def first_divergence(trace: Trace, golden: dict) -> str | None:
    """Human-readable location of the first event-stream mismatch."""
    lines = event_lines(trace)
    head = golden["head"]
    for i, expected in enumerate(head):
        if i >= len(lines):
            return f"event {i}: stream ended early (expected {expected})"
        if lines[i] != expected:
            return f"event {i}: got {lines[i]}, expected {expected}"
    if len(lines) != golden["events"]:
        return f"event count {len(lines)} != {golden['events']}"
    return "streams diverge after the recorded head"


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.models.base import available_models

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="tests/models/golden_traces")
    parser.add_argument("--deck", default=GOLDEN_DECK)
    parser.add_argument("--models", default=None, help="comma list (default: all)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    models = args.models.split(",") if args.models else available_models()
    for model in models:
        signature = capture(model, args.deck)
        path = out / f"{model}.json"
        path.write_text(json.dumps(signature, indent=1, sort_keys=True) + "\n")
        print(
            f"{model}: {signature['kernel_launches']} launches, "
            f"{signature['events']} events -> {path}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
