"""Command-line interface.

Usage (installed as ``tealeaf`` or via ``python -m repro``):

* ``tealeaf run deck.in --model kokkos`` — run a TeaLeaf deck and print
  per-step summaries (any registered programming-model port);
* ``tealeaf models`` — list the registered programming models (Table 1);
* ``tealeaf experiments [--id fig9] [--quick] [--write PATH]`` —
  regenerate the paper's tables/figures and check them;
* ``tealeaf stream`` — run STREAM on the three simulated devices.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf, deck_liveness
from repro.models.base import DeviceKind, available_models, get_model


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    if args.deck:
        deck = parse_deck_file(args.deck)
    else:
        deck = default_deck(n=args.mesh, solver=args.solver, end_step=args.steps)
    if args.solver and not args.deck:
        deck = deck.with_solver(args.solver)

    # Resilience knobs layer on top of whatever the deck says.
    overrides: dict[str, object] = {}
    if args.inject:
        specs = [deck.tl_inject] if deck.tl_inject else []
        specs.extend(args.inject)
        overrides["tl_inject"] = ",".join(specs)
        overrides["tl_resilient"] = True
    if args.resilient:
        overrides["tl_resilient"] = True
    if args.fault_seed is not None:
        overrides["tl_fault_seed"] = args.fault_seed
    if args.max_retries is not None:
        overrides["tl_max_retries"] = args.max_retries
    if args.kill_rank:
        # --kill-rank ITER:RANK sugar over the kill:<rank>:<iter> spec.
        specs = [overrides.get("tl_inject", deck.tl_inject) or ""]
        specs = [s for s in specs if s]
        for kill in args.kill_rank:
            parts = kill.split(":")
            if len(parts) != 2:
                print(f"bad --kill-rank '{kill}' (expected ITER:RANK)",
                      file=sys.stderr)
                return 2
            specs.append(f"kill:{parts[1]}:{parts[0]}")
        overrides["tl_inject"] = ",".join(specs)
        overrides["tl_resilient"] = True
    if args.rank_policy is not None:
        overrides["tl_rank_policy"] = args.rank_policy
    if args.spare_ranks is not None:
        overrides["tl_spare_ranks"] = args.spare_ranks
    if args.fuse:
        overrides["tl_fuse_kernels"] = True
    if args.residency:
        overrides["tl_residency_tracking"] = True
    if args.codegen:
        overrides["tl_codegen"] = True
    if args.overlap:
        overrides["tl_overlap"] = True
    if args.poison:
        overrides["tl_poison_dead_fields"] = True
    if overrides:
        deck = dataclasses.replace(deck, **overrides)

    if args.ranks and args.ranks > 1:
        from repro.comm.multichunk import MultiChunkPort
        from repro.models.tracing import Trace

        trace = Trace()
        port = MultiChunkPort(
            deck.grid(),
            args.ranks,
            model=args.model,
            trace=trace,
            rank_policy=deck.tl_rank_policy,
            spare_ranks=deck.tl_spare_ranks,
        )
        app = TeaLeaf(deck, port=port, trace=trace)
    else:
        app = TeaLeaf(deck, model=args.model)
    print(f"TeaLeaf {deck.x_cells}x{deck.y_cells}, solver={deck.solver}, "
          f"model={app.model}")
    result = app.run()
    for step in result.steps:
        line = (
            f"step {step.step:3d}  t={step.sim_time:8.4f}  "
            f"iters={step.solve.iterations:5d}  "
            f"rel.residual={step.solve.relative_residual:.3e}  "
            f"wall={step.wall_seconds:6.2f}s"
        )
        if step.summary:
            line += (
                f"  temp={step.summary.temperature:.6e}"
                f"  ie={step.summary.internal_energy:.6e}"
            )
        print(line)
    print(f"\ntotal wall {result.wall_seconds:.2f}s; trace: {result.trace.summary()}")
    if args.overlap and result.comm is not None:
        comm = result.comm
        print(
            f"comm: {comm['comm_ms']:.4f} ms modelled wire time, "
            f"{comm['hidden_ms']:.4f} ms hidden behind interior compute, "
            f"{comm['exposed_ms']:.4f} ms exposed "
            f"({comm['overlap_steps']} overlapped / "
            f"{comm['halo_steps']} synchronous exchanges)"
        )
    if result.resilience is not None:
        from repro.harness.report import render_resilience

        print(render_resilience(result.resilience))
    if args.trace_out:
        result.trace.to_json(args.trace_out)
        print(f"wrote execution trace to {args.trace_out}")
    return 0


def _cmd_plan_liveness(args: argparse.Namespace, deck) -> int:
    """Render per-field live ranges and the poison release schedule."""
    from repro.core import fields as F

    lv = deck_liveness(deck)
    print(
        f"# liveness: solver={deck.solver} precon={deck.tl_preconditioner_type} "
        f"mesh={deck.x_cells}x{deck.y_cells} "
        f"({len(lv.events)} events, loops unrolled 2x)"
    )
    print(f"# cyclic live-in: {', '.join(sorted(lv.live_in)) or '(none)'}")
    print(f"{'field':10s} {'role':12s} live ranges (event index)")
    for name in F.FIELD_ORDER:
        role = F.role(name).name.lower()
        segments = lv.segments(name)
        ranges = (
            ", ".join(f"[{a}..{b}]" for a, b in segments)
            if segments
            else "(never live)"
        )
        print(f"{name:10s} {role:12s} {ranges}")
    if lv.dead_at_entry:
        print(f"\npoison at step entry: {', '.join(lv.dead_at_entry)}")
    for plan_name, dead in sorted(lv.releases.items()):
        print(f"poison release after {plan_name}: {', '.join(dead)}")
    print("\n# event timeline")
    for ev in lv.events:
        live = ", ".join(sorted(lv.live[ev.index])) or "-"
        print(f"  {ev.index:3d} {ev.plan}:{ev.label:28s} live={{{live}}}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Render the kernel plans one solve replays, compiled for a model."""
    import dataclasses

    from repro.core.driver import solve_step_plans
    from repro.core.solvers import solver_plan_fragments
    from repro.models.base import make_port
    from repro.models.tracing import Trace

    deck = default_deck(n=args.mesh, solver=args.solver, end_step=1)
    if args.precon != "none":
        deck = dataclasses.replace(deck, tl_preconditioner_type=args.precon)
    if getattr(args, "liveness", False):
        try:
            return _cmd_plan_liveness(args, deck)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    try:
        fragments = solver_plan_fragments(deck)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    port = make_port(args.model, deck.grid(), Trace())
    fuse = args.fuse and port.supports_fusion
    transparent = not port.has_data_region
    if args.fuse and not fuse:
        print(f"# model {args.model} does not support fusion; showing unfused")
    instrument = bool(getattr(args, "resilient", False))
    codegen = bool(getattr(args, "codegen", False)) and port.supports_codegen
    overlap = bool(getattr(args, "overlap", False)) and port.supports_overlap
    if getattr(args, "overlap", False) and not overlap:
        print(
            f"# model {args.model} does not support overlap; "
            f"showing synchronous exchanges"
        )
    header = f"# model={args.model} solver={deck.solver} mesh={args.mesh}"
    if instrument:
        header += " resilience-instrumented"
    if codegen:
        header += " codegen"
    if overlap:
        header += " overlap"
    print(header)
    prologue, epilogue = solve_step_plans(deck.grid().halo)
    for p in [prologue, *fragments, epilogue]:
        print(
            p.describe(
                fuse=fuse,
                transparent_barriers=transparent,
                instrument=instrument,
                codegen=codegen,
                overlap=overlap,
            )
        )
        print()
    return 0


def _resolve_store_dir(target: str | None, store: str | None):
    """Map a campaign target (store dir, builtin/spec name) to a store dir."""
    from pathlib import Path

    if store:
        return Path(store)
    if target:
        p = Path(target)
        if (p / "campaign.json").exists():
            return p
        return Path("campaigns") / target
    return None


def _load_campaign_spec(args: argparse.Namespace):
    """Resolve the launch target to a validated CampaignSpec."""
    from pathlib import Path

    from repro.campaign import BUILTIN_CAMPAIGNS, CampaignSpec, builtin_spec

    target = args.spec
    if target in BUILTIN_CAMPAIGNS:
        return builtin_spec(target, quick=args.quick)
    path = Path(target)
    if path.exists():
        return CampaignSpec.from_file(path)
    from repro.util.errors import CampaignError

    raise CampaignError(
        f"'{target}' is neither a built-in campaign "
        f"({', '.join(BUILTIN_CAMPAIGNS)}) nor a spec file"
    )


def _campaign_scheduler(spec, store_dir, args):
    from repro.campaign import CampaignScheduler, ResultStore

    store = ResultStore(store_dir)
    log = (lambda line: None) if getattr(args, "quiet", False) else print
    return CampaignScheduler(
        spec,
        store,
        max_workers=args.max_workers,
        timeout_seconds="spec" if args.timeout is None else (
            None if args.timeout <= 0 else args.timeout
        ),
        retries=args.retries,
        log=log,
    )


def _cmd_campaign_launch(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign import EXIT_SPEC_INVALID
    from repro.util.errors import CampaignError

    try:
        spec = _load_campaign_spec(args)
        store_dir = (
            Path(args.store) if args.store else Path("campaigns") / spec.name
        )
        scheduler = _campaign_scheduler(spec, store_dir, args)
        outcome = scheduler.run()
    except CampaignError as exc:
        print(f"campaign spec invalid: {exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID
    except KeyboardInterrupt:
        print("campaign interrupted; `repro campaign resume` will pick up "
              "from the store", file=sys.stderr)
        return 130
    print(f"store: {store_dir}")
    return outcome.exit_code


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign import EXIT_SPEC_INVALID, ResultStore
    from repro.util.errors import CampaignError

    store_dir = _resolve_store_dir(args.target, args.store)
    if store_dir is None:
        print("resume needs a campaign: a store dir, a campaign name, or "
              "--store", file=sys.stderr)
        return EXIT_SPEC_INVALID
    try:
        spec = ResultStore(store_dir).load_spec()
        scheduler = _campaign_scheduler(spec, store_dir, args)
        outcome = scheduler.run()
    except CampaignError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID
    except KeyboardInterrupt:
        print("campaign interrupted; `repro campaign resume` will pick up "
              "from the store", file=sys.stderr)
        return 130
    return outcome.exit_code


def _campaign_manifest(args: argparse.Namespace):
    from repro.campaign import ResultStore

    store_dir = _resolve_store_dir(args.target, args.store)
    if store_dir is None:
        return None, None, None
    store = ResultStore(store_dir)
    spec = store.load_spec()
    manifest = {"name": spec.name, "kind": spec.kind, **store.scan(spec.expand())}
    return store, spec, manifest


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import EXIT_SPEC_INVALID
    from repro.util.errors import CampaignError

    try:
        store, spec, manifest = _campaign_manifest(args)
    except CampaignError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID
    if manifest is None:
        print("status needs a campaign: a store dir, a campaign name, or "
              "--store", file=sys.stderr)
        return EXIT_SPEC_INVALID
    print(f"campaign {manifest['name']} ({manifest['kind']}): "
          f"{manifest['total']} run(s)")
    for run in manifest["runs"]:
        extra = ""
        if run["retries"]:
            extra = (f"  retries={run['retries']} timeouts={run['timeouts']}"
                     f" crashes={run['crashes']}"
                     f" backoff={run['backoff_seconds']:.2f}s")
        print(f"  [{run['status']:8s}] {run['label']}{extra}")
    c = manifest["counts"]
    print(f"{c['ok']} ok, {c['degraded']} degraded, {c['failed']} failed, "
          f"{c['pending']} pending")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign import EXIT_FAILURES, EXIT_SPEC_INVALID
    from repro.util.errors import CampaignError

    try:
        store, spec, manifest = _campaign_manifest(args)
    except CampaignError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_SPEC_INVALID
    if manifest is None:
        print("report needs a campaign: a store dir, a campaign name, or "
              "--store", file=sys.stderr)
        return EXIT_SPEC_INVALID
    store.write_manifest(spec, spec.expand())
    if args.json:
        print(_json.dumps(manifest, indent=2, sort_keys=True))
    else:
        print(f"campaign {manifest['name']} ({manifest['kind']})")
        print(f"  runs     : {manifest['total']}")
        for status in ("ok", "degraded", "failed", "pending"):
            print(f"  {status:9s}: {manifest['counts'][status]}")
        print(f"  retries  : {manifest['retries']} "
              f"(timeouts={manifest['timeouts']}, crashes={manifest['crashes']}, "
              f"total backoff={manifest['backoff_seconds']:.2f}s)")
        failed = [r for r in manifest["runs"] if r["status"] == "failed"]
        if failed:
            print("  failure manifest:")
            for run in failed:
                err = run.get("error") or {}
                print(f"    {run['label']} [{run['key']}]: "
                      f"{err.get('type', '?')}: {err.get('message', '')} "
                      f"({run['attempts']} attempt(s))")
        degraded = [r for r in manifest["runs"] if r["status"] == "degraded"]
        for run in degraded:
            print(f"  degraded: {run['label']} [{run['key']}] fell back to "
                  "quick mode")
    if not manifest["complete"]:
        print("campaign incomplete: `repro campaign resume` to continue",
              file=sys.stderr)
    return EXIT_FAILURES if manifest["failures"] else 0


def _cmd_models(args: argparse.Namespace) -> int:
    print(f"{'name':12s} {'display':36s} {'CPU':12s} {'GPU':12s} {'KNC':12s}")
    for name in available_models():
        caps = get_model(name).capabilities
        row = [
            caps.support.get(k, None).value or "-"
            if caps.support.get(k) is not None
            else "-"
            for k in (DeviceKind.CPU, DeviceKind.GPU, DeviceKind.KNC)
        ]
        print(f"{name:12s} {caps.display_name:36s} {row[0]:12s} {row[1]:12s} {row[2]:12s}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness import run_all, run_experiment, write_experiments_md
    from repro.harness.report import render_checks

    if args.id:
        results = [run_experiment(args.id, quick=args.quick)]
    else:
        results = run_all(quick=args.quick)
    failures = 0
    for r in results:
        print(f"== {r.title} ==\n")
        print(r.rendered)
        print()
        print(render_checks(r.checks))
        print()
        failures += len(r.failed_checks)
    if args.write:
        path = write_experiments_md(args.write, quick=args.quick, results=results)
        print(f"wrote {path}")
    return 1 if failures else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Cross-port equivalence check: the paper's controlled comparison."""
    import numpy as np

    from repro.core import fields as F

    deck = default_deck(n=args.mesh, solver=args.solver, end_step=1, eps=1e-9)
    grid = deck.grid()
    print(
        f"validating {len(available_models())} ports on "
        f"{args.mesh}x{args.mesh} / {args.solver}..."
    )
    reference = None
    worst = 0.0
    iterations = set()
    for model in available_models():
        app = TeaLeaf(deck, model=model)
        result = app.run()
        u = app.field(F.U)[grid.inner()]
        if reference is None:
            reference = u
        diff = float(np.max(np.abs(u - reference)))
        worst = max(worst, diff)
        iterations.add(result.total_iterations)
        print(f"  {model:12s} iters={result.total_iterations:5d} max|u-ref|={diff:.3e}")
    ok = worst < 1e-10 and len(iterations) == 1
    print(
        f"\n{'PASS' if ok else 'FAIL'}: worst cross-port difference "
        f"{worst:.3e}, iteration counts {sorted(iterations)}"
    )
    return 0 if ok else 1


def _cmd_project(args: argparse.Namespace) -> int:
    from repro.harness.experiments import projected_runtime
    from repro.machine.devices import device_for
    from repro.util.units import GIGA

    kind = DeviceKind(args.device)
    bd = projected_runtime(args.model, kind, args.solver, args.mesh, args.steps)
    device = device_for(kind)
    print(
        f"{args.model} / {args.solver} on {device.name}, "
        f"{args.mesh}x{args.mesh}, {args.steps} steps (simulated):"
    )
    print(f"  total            {bd.total:10.2f} s")
    print(f"  compute          {bd.compute:10.2f} s")
    print(f"  kernel launches  {bd.launch:10.4f} s  ({bd.kernel_launches} launches)")
    print(f"  offload regions  {bd.regions:10.4f} s  ({bd.region_entries} entries)")
    print(f"  reductions       {bd.reductions:10.4f} s  ({bd.reduction_count})")
    print(f"  transfers        {bd.transfers:10.4f} s  ({bd.transferred_bytes / 1e6:.1f} MB)")
    print(f"  achieved bandwidth {bd.achieved_bandwidth() / GIGA:8.1f} GB/s "
          f"({bd.achieved_bandwidth() / device.stream_bw:.1%} of STREAM)")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.machine.devices import DEVICES
    from repro.machine.roofline import render_roofline

    for device in DEVICES.values():
        print(render_roofline(device))
        print()
    return 0


def _cmd_numdiff(args: argparse.Namespace) -> int:
    """First-divergence lockstep comparison of two ports."""
    from repro.harness.numdiff import Perturbation, run_numdiff

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if len(models) != 2:
        print(f"--models needs exactly two comma-separated ports, got {models}",
              file=sys.stderr)
        return 2
    for m in models:
        if m not in available_models():
            print(f"unknown model '{m}'; available: "
                  f"{', '.join(available_models())}", file=sys.stderr)
            return 2

    if args.deck:
        deck = parse_deck_file(args.deck)
    else:
        deck = default_deck(n=args.mesh, solver=args.solver, end_step=args.steps)

    perturbation = None
    if args.perturb:
        parts = args.perturb.split(":")
        if len(parts) != 3:
            print(f"bad --perturb '{args.perturb}' (expected KERNEL:CALL:FIELD)",
                  file=sys.stderr)
            return 2
        perturbation = Perturbation(parts[0], int(parts[1]), parts[2])

    report = run_numdiff(models[0], models[1], deck, perturbation=perturbation)
    print(report.describe())
    if report.divergence is None:
        return 0
    d = report.divergence
    print(f"  iteration : {d.iteration}")
    print(f"  kernel    : {d.kernel} (call #{d.call_index})")
    print(f"  field     : {d.field}")
    print(f"  location  : {d.where}")
    print(f"  values    : {d.value_a!r} vs {d.value_b!r}")
    print(f"  distance  : {d.max_ulp} ULP")
    return 1


def _cmd_complexity(args: argparse.Namespace) -> int:
    from repro.harness.complexity import compare, render

    print(
        "Porting effort per model, measured on this repository's ports "
        "(§3/§9 of the paper):\n"
    )
    print(render(compare()))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.machine import DEVICES, stream_benchmark
    from repro.util.units import GIGA

    for device in DEVICES.values():
        result = stream_benchmark(device)
        bws = "  ".join(
            f"{name.split('_')[1]}={bw / GIGA:6.1f}"
            for name, bw in result.bandwidth.items()
        )
        print(f"{device.name:32s} {bws}  GB/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tealeaf",
        description="TeaLeaf reproduction of Martineau et al., PMAM'16.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a TeaLeaf deck")
    run.add_argument("deck", nargs="?", help="tea.in-style deck file")
    run.add_argument("--model", default="openmp-f90", help="programming-model port")
    run.add_argument("--mesh", type=int, default=128, help="NxN mesh (no deck file)")
    run.add_argument("--solver", default="cg", help="cg|chebyshev|ppcg|jacobi")
    run.add_argument("--steps", type=int, default=2, help="timesteps (no deck file)")
    run.add_argument("--trace-out", help="write the execution trace as JSON")
    run.add_argument(
        "--ranks", type=int, default=0,
        help="decompose over N in-process MPI ranks (0/1 = single chunk)",
    )
    run.add_argument(
        "--inject", action="append", metavar="KIND:TARGET:N",
        help="inject a fault, e.g. nan:u:5, bitflip:p:3, drop:p:2, "
             "corrupt:u:4, raise:cg_calc_w:7, eigen:max:1, kill:1:30, "
             "delay:p:2 (repeatable)",
    )
    run.add_argument(
        "--resilient", action="store_true",
        help="enable checkpointing/detection/recovery even with no faults",
    )
    run.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the deterministic fault-injection RNG",
    )
    run.add_argument(
        "--max-retries", type=int, default=None,
        help="rollback-and-retry budget per solve",
    )
    run.add_argument(
        "--kill-rank", action="append", metavar="ITER:RANK",
        help="fail-stop RANK at global solver iteration ITER (repeatable; "
             "needs --ranks and a --rank-policy to survive)",
    )
    run.add_argument(
        "--rank-policy", choices=["none", "spare", "shrink"], default=None,
        help="recovery policy for dead ranks (overrides tl_rank_policy)",
    )
    run.add_argument(
        "--spare-ranks", type=int, default=None,
        help="reserve ranks for the spare policy (overrides tl_spare_ranks)",
    )
    run.add_argument(
        "--fuse", action="store_true",
        help="fuse adjacent fusable kernel launches (tl_fuse_kernels)",
    )
    run.add_argument(
        "--residency", action="store_true",
        help="track device-side field residency (tl_residency_tracking)",
    )
    run.add_argument(
        "--codegen", action="store_true",
        help="run kernel plans as generated NumPy code (tl_codegen); "
             "bitwise-identical to the interpreted path",
    )
    run.add_argument(
        "--overlap", action="store_true",
        help="overlap halo exchanges with interior compute (tl_overlap); "
             "bitwise-identical, prints exposed/hidden comm accounting",
    )
    run.add_argument(
        "--poison", action="store_true",
        help="debug: NaN-fill each work field where the liveness pass "
             "proves it dead (tl_poison_dead_fields); bitwise-identical "
             "unless a kernel reads a dead field",
    )
    run.set_defaults(fn=_cmd_run)

    models = sub.add_parser("models", help="list registered programming models")
    models.set_defaults(fn=_cmd_models)

    plan = sub.add_parser(
        "plan", help="show the kernel plans a solver replays on a model"
    )
    plan.add_argument("--model", default="openmp-f90", help="programming-model port")
    plan.add_argument("--solver", default="cg", help="cg|chebyshev|ppcg|jacobi")
    plan.add_argument("--mesh", type=int, default=32, help="NxN mesh")
    plan.add_argument(
        "--precon", choices=["none", "jac_diag"], default="none",
        help="CG preconditioner (tl_preconditioner_type)",
    )
    plan.add_argument(
        "--fuse", action="store_true",
        help="compile with fusion on (if the model supports it)",
    )
    plan.add_argument(
        "--codegen", action="store_true",
        help="show the codegen-lowered variant (compiled kernel steps)",
    )
    plan.add_argument(
        "--overlap", action="store_true",
        help="show the overlap-paired variant (async exchange steps)",
    )
    plan.add_argument(
        "--resilient", action="store_true",
        help="show the instrumented variant: where the compiler places "
        "fault-injection triggers and isfinite/divergence guard steps",
    )
    plan.add_argument(
        "--liveness", action="store_true",
        help="show per-field live ranges over the solve cycle and the "
        "poison release schedule instead of the plan bodies",
    )
    plan.set_defaults(fn=_cmd_plan)

    campaign = sub.add_parser(
        "campaign",
        help="crash-safe sweeps: launch/status/resume/report a campaign "
        "of runs over a resumable result store",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(p, with_overrides: bool) -> None:
        p.add_argument(
            "--store",
            help="campaign store directory (default: campaigns/<name>)",
        )
        if with_overrides:
            p.add_argument(
                "--max-workers", type=int, default=None,
                help="worker-pool width (overrides the spec default)",
            )
            p.add_argument(
                "--timeout", type=float, default=None, metavar="SECONDS",
                help="per-run wall-clock timeout; overrides the spec "
                "default, <= 0 disables the timeout",
            )
            p.add_argument(
                "--retries", type=int, default=None,
                help="per-run retry budget (overrides the spec default)",
            )
            p.add_argument(
                "--quiet", action="store_true",
                help="suppress per-run progress lines",
            )

    launch = campaign_sub.add_parser(
        "launch",
        help="launch (or idempotently continue) a campaign",
        description="Exit codes: 0 = campaign complete; 3 = complete with "
        "failed runs (see the failure manifest); 2 = spec invalid.",
    )
    launch.add_argument(
        "spec",
        help="built-in campaign name (paper-figures, chaos-ensemble) "
        "or path to a JSON campaign spec",
    )
    launch.add_argument(
        "--quick", action="store_true",
        help="built-in campaigns only: run at quick scale",
    )
    _campaign_common(launch, with_overrides=True)
    launch.set_defaults(fn=_cmd_campaign_launch)

    resume = campaign_sub.add_parser(
        "resume",
        help="resume a campaign from its store (zero recomputation of "
        "finished runs)",
        description="Exit codes match `launch`: 0 complete, 3 complete "
        "with failures, 2 spec/store invalid.",
    )
    resume.add_argument(
        "target", nargs="?",
        help="store directory or campaign name (default store layout)",
    )
    _campaign_common(resume, with_overrides=True)
    resume.set_defaults(fn=_cmd_campaign_resume)

    status = campaign_sub.add_parser(
        "status", help="per-run status of a campaign store"
    )
    status.add_argument("target", nargs="?", help="store directory or campaign name")
    _campaign_common(status, with_overrides=False)
    status.set_defaults(fn=_cmd_campaign_status)

    creport = campaign_sub.add_parser(
        "report",
        help="write + print the campaign manifest (retries, timeouts, "
        "backoff, degradations, failure manifest)",
    )
    creport.add_argument("target", nargs="?", help="store directory or campaign name")
    creport.add_argument("--json", action="store_true", help="print JSON")
    _campaign_common(creport, with_overrides=False)
    creport.set_defaults(fn=_cmd_campaign_report)

    exp = sub.add_parser("experiments", help="regenerate the paper's tables/figures")
    exp.add_argument(
        "--id",
        help="one experiment (table1, table2, fig8..fig12, rank_resilience)",
    )
    exp.add_argument("--quick", action="store_true", help="smaller projected meshes")
    exp.add_argument("--write", nargs="?", const="EXPERIMENTS.md", default=None,
                     help="write EXPERIMENTS.md (optionally at PATH)")
    exp.set_defaults(fn=_cmd_experiments)

    stream = sub.add_parser("stream", help="run STREAM on the simulated devices")
    stream.set_defaults(fn=_cmd_stream)

    project = sub.add_parser(
        "project", help="simulated runtime breakdown for one configuration"
    )
    project.add_argument("--model", default="cuda")
    project.add_argument("--device", default="gpu", choices=["cpu", "gpu", "knc"])
    project.add_argument("--solver", default="cg")
    project.add_argument("--mesh", type=int, default=4096)
    project.add_argument("--steps", type=int, default=10)
    project.set_defaults(fn=_cmd_project)

    roofline = sub.add_parser(
        "roofline", help="roofline placement of the TeaLeaf kernels"
    )
    roofline.set_defaults(fn=_cmd_roofline)

    validate = sub.add_parser(
        "validate", help="check all ports produce identical physics"
    )
    validate.add_argument("--mesh", type=int, default=32)
    validate.add_argument("--solver", default="cg")
    validate.set_defaults(fn=_cmd_validate)

    complexity = sub.add_parser(
        "complexity", help="porting-effort comparison across the ports"
    )
    complexity.set_defaults(fn=_cmd_complexity)

    numdiff = sub.add_parser(
        "numdiff",
        help="run two ports in lockstep and report the first bitwise divergence",
    )
    numdiff.add_argument(
        "--models", required=True, metavar="A,B",
        help="two comma-separated port names, e.g. kokkos,openmp-f90",
    )
    numdiff.add_argument("--deck", help="tea.in-style deck file")
    numdiff.add_argument("--mesh", type=int, default=32, help="NxN mesh (no deck file)")
    numdiff.add_argument("--solver", default="cg", help="cg|chebyshev|ppcg|jacobi")
    numdiff.add_argument("--steps", type=int, default=1, help="timesteps (no deck file)")
    numdiff.add_argument(
        "--perturb", metavar="KERNEL:CALL:FIELD",
        help="self-test: one-ULP nudge after the CALL-th KERNEL call on port B",
    )
    numdiff.set_defaults(fn=_cmd_numdiff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
