"""TeaLeaf reproduction benchmark: measured and modelled clocks per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload codegen --seed 1 --seconds 25 --trace 0

Runs requests of one workload (see ``perfbench/workloads.py``) back to
back for ``--seconds`` after a warm-up, checks every result against a
verified reference, and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics with no
instrumentation; ``--trace 1`` wraps the program's layer entry points
(``perfbench/layers.py``), reports per-layer metrics and writes the
first measured request's spans to ``.perfbench/`` as a Chrome trace.
See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIMELINE_DIR = ROOT / ".perfbench"

#: Cold set-ups timed per run (each in a fresh interpreter).
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def pin_to_one_cpu() -> None:
    """Keep the benchmark (and the set-up probes it starts) on one CPU.

    Batched lanes are threads handing the interpreter lock around; on
    one CPU the hand-offs do not depend on how busy the other CPU's host
    core is, and the yardstick measures the core the requests run on.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def cold_setup(workload, seed: int) -> list:
    """Everything a fresh process pays before it solves at full speed:
    importing the program, building the seed's decks, and one tiny
    request with the workload's flags so plan compilation and generated
    kernels are ready.  Returns the seed's decks."""
    from workloads import WARMUP_MESH, make_decks, run_request

    decks = make_decks(workload, seed)
    run_request(workload, make_decks(workload, seed, mesh=WARMUP_MESH))
    return decks


def probe_setup(workload_name: str, seed: int, yard) -> float:
    """Seconds of one cold set-up in a fresh interpreter, at nominal
    machine speed (wall time over the yardstick factor around it)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload_name,
        "--seed",
        str(seed),
    ]
    before = yard.factor()
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return 2.0 * wall / (before + yard.factor())


# --------------------------------------------------------------------- #
# reference and checks
# --------------------------------------------------------------------- #
def reference(workload, decks):
    """Verified expected outputs: u hash and field summary per deck.

    Solo decks are checked against the independent residual/conservation
    oracle.  A batched request is instead compared with the same decks
    solved one at a time, which are themselves oracle-checked, so every
    lane must be bitwise its sequential run.
    """
    from workloads import check_solution, run_request, summaries

    first = run_request(workload, decks)
    solo = first
    if not first.apps:  # batched: solve the decks one at a time instead
        solo = run_request(dataclasses.replace(workload, lanes=1), decks)
    problems = [p for app in solo.apps for p in check_solution(app)]
    if problems:
        raise RuntimeError("reference solve is wrong: " + "; ".join(problems))
    expected = (solo.u_hashes, summaries(solo))
    if (first.u_hashes, summaries(first)) != expected:
        raise RuntimeError(
            f"{workload.name} request differs from its decks solved one "
            f"at a time: {first.u_hashes} != {solo.u_hashes}"
        )
    return expected


def mismatches(request, expected) -> int:
    """Decks of ``request`` whose outputs differ from the reference."""
    from workloads import summaries

    hashes, sums = expected
    got = zip(request.u_hashes, summaries(request), hashes, sums)
    return sum(1 for h, s, eh, es in got if h != eh or s != es)


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
PER_OP = ("cg_calc_w", "cg_calc_ur", "cg_calc_p", "halo")
CALL_LAYERS = (
    "executor",
    "kernel",
    "reduction",
    "trace",
    "halo",
    "batch",
    "checkpoint",
    "resilience",
)


def layer_metrics(samples: list[dict]) -> dict:
    """Median over requests of each per-layer quantity."""
    from layers import LAYERS
    from workloads import MODEL_PARTS

    def med(key: str) -> float:
        return _median([s.get(key, 0.0) for s in samples])

    out = {}
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = _metric(med(f"self_ms.{layer}"), "ms/iter")
    for layer in CALL_LAYERS:
        out[f"calls.{layer}"] = _metric(med(f"calls.{layer}"), "1/iter")
    out["kernel_gbs"] = _metric(med("kernel_gbs"), "GB/s")
    for op in PER_OP:
        out[f"op_gbs.{op}"] = _metric(med(f"op_gbs.{op}"), "GB/s")
    for part in MODEL_PARTS:
        out[f"model_us.{part}"] = _metric(med(f"model_us.{part}"), "us/iter")
    out["launches_per_iter"] = _metric(med("launches_per_iter"), "1/iter")
    out["transfers_per_iter"] = _metric(med("transfers_per_iter"), "1/iter")
    out["iterations_per_deck"] = _metric(med("iterations_per_deck"), "count")
    out["traced_wall_ms_per_iter"] = _metric(med("traced_wall_ms_per_iter"), "ms/iter")
    out["raw_wall_ms_per_iter"] = _metric(med("raw_wall_ms_per_iter"), "ms/iter")
    out["machine_factor"] = _metric(med("machine_factor"), "x")
    return out


def layer_sample(
    delta: dict, request, model: dict, decks: int, speed: float
) -> dict:
    """Per-iteration layer quantities of one traced request.

    Times are divided by the machine-speed factor ``speed`` (see
    yardstick.py), like the end-to-end wall time; ``raw_wall_ms_per_iter``
    and ``machine_factor`` let a reader undo the correction.
    """
    from workloads import MODEL_PARTS

    iters = request.iterations
    sample = {
        f"self_ms.{k}": v * 1e3 / iters / speed
        for k, v in delta["self_s"].items()
    }
    sample.update({f"calls.{k}": v / iters for k, v in delta["calls"].items()})
    op_s, op_bytes = delta["op_s"], delta["op_bytes"]
    for op in PER_OP:
        if op_s.get(op, 0.0) > 0.0:
            sample[f"op_gbs.{op}"] = op_bytes.get(op, 0) * speed / op_s[op] / 1e9
    kernel_ops = [k for k in op_s if k != "halo"]
    kernel_s = sum(op_s[k] for k in kernel_ops)
    if kernel_s > 0.0:
        kernel_bytes = sum(op_bytes[k] for k in kernel_ops)
        sample["kernel_gbs"] = kernel_bytes * speed / kernel_s / 1e9
    for part in MODEL_PARTS:
        sample[f"model_us.{part}"] = model[part] * 1e6 / iters
    sample["launches_per_iter"] = model["launches"] / iters
    sample["transfers_per_iter"] = model["transfer_events"] / iters
    sample["iterations_per_deck"] = iters / decks
    sample["traced_wall_ms_per_iter"] = request.wall_s * 1e3 / iters / speed
    sample["raw_wall_ms_per_iter"] = request.wall_s * 1e3 / iters
    sample["machine_factor"] = speed
    return sample


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    pin_to_one_cpu()
    from workloads import WORKLOADS, modelled, run_request
    from yardstick import Yardstick

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        cold_setup(workload, args.seed)
        return 0

    tracer = None
    if args.trace:
        from layers import LayerTracer, diff

        tracer = LayerTracer()
        tracer.install()
        print(
            f"perfbench: tracing {len(tracer.wrapped)} layer entry points",
            file=sys.stderr,
        )

    yard = Yardstick(workload.mesh, workload.yardstick)
    decks = cold_setup(workload, args.seed)
    expected = reference(workload, decks)
    setup = (
        []
        if args.trace
        else [
            probe_setup(workload.name, args.seed, yard)
            for _ in range(SETUP_PROBES)
        ]
    )

    attempted = failed = 0
    wall_per_iter: list[float] = []
    speeds: list[float] = []
    model_per_iter: list[float] = []
    layer_samples: list[dict] = []
    gc.collect()
    speed_before = yard.factor()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        attempted += len(decks)
        if tracer is not None:
            tracer.request += 1
            tracer.recording = tracer.request == 1
            before = tracer.totals()
        try:
            request = run_request(workload, decks)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            failed += len(decks)
            print(f"perfbench: request failed: {exc!r}", file=sys.stderr)
            continue
        finally:
            speed_after = yard.factor()
            speed = 0.5 * (speed_before + speed_after)
            gc.collect()
            speed_before = yard.factor()
        bad = mismatches(request, expected)
        failed += bad
        if bad:
            continue
        model = modelled(workload, request)
        wall_per_iter.append(request.wall_s / request.iterations / speed)
        speeds.append(speed)
        model_per_iter.append(model["total"] / request.iterations)
        if tracer is not None:
            tracer.recording = False
            delta = diff(tracer.totals(), before)
            layer_samples.append(
                layer_sample(delta, request, model, len(decks), speed)
            )

    if not wall_per_iter:
        print("perfbench: no request succeeded", file=sys.stderr)
        return 1

    if tracer is not None:
        metrics = layer_metrics(layer_samples)
        timeline = TIMELINE_DIR / f"{workload.name}-seed{args.seed}.trace.json"
        try:
            tracer.write_timeline(timeline)
            print(f"perfbench: timeline written to {timeline}", file=sys.stderr)
        except OSError as exc:
            print(f"perfbench: timeline not written: {exc}", file=sys.stderr)
    else:
        metrics = {
            "wall_ms_per_iter": _metric(_median(wall_per_iter) * 1e3, "ms"),
            "model_us_per_iter": _metric(_median(model_per_iter) * 1e6, "us"),
            "setup_s": _metric(_median(setup), "s"),
        }
    print(
        f"perfbench: {workload.name} seed={args.seed} requests="
        f"{attempted // len(decks)} failed_decks={failed} "
        f"machine_factor={_median(speeds):.3f} raw_wall_ms_per_iter="
        f"{_median([w * s for w, s in zip(wall_per_iter, speeds)]) * 1e3:.4f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
