"""The async overlap executor: hide halo exchange behind interior compute.

The paper's decomposed MPI+X runs pay the full halo-exchange latency on
every solver iteration — the classic communication/computation overlap
is exactly the optimisation all four programming models leave on the
table.  This module supplies the pieces the plan compiler and executor
need to take it:

* :func:`interior_partition` splits a chunk's interior into a **core**
  (cells whose stencil never reaches a ghost layer) plus up to four
  **boundary strips** of width :data:`STENCIL_REACH`, covering every
  interior cell exactly once for any mesh size and halo depth.
* :data:`OVERLAP_TEMPLATES` gives each overlappable operation a
  region-capable **body** (the elementwise sweep, runnable over the core
  while the exchange is in flight, then over the strips once the ghosts
  have landed) and an optional **epilogue** (scalar updates and
  reductions that need the whole interior, run after the wait).  Bodies
  reuse the exact shared arithmetic helpers the interpreted ports and
  the codegen backend use, over sub-slices of the same full-interior
  expressions, so every cell's bits are identical to the non-overlapped
  run.
* :func:`overlap_reason` is the legality pass: it refuses pairs where a
  body writes an exchanged field (the WAR hazard — a ``depth > 1``
  exchange packs ``depth`` interior layers, and the core sweep mutates
  layer ``STENCIL_REACH`` onwards *while the pack is in flight* on any
  port that does not snapshot eagerly), where no member actually
  stencil-reads an exchanged field, or where splitting a fused group
  into a body phase and an epilogue phase would reorder cross-member
  dataflow.
* :func:`execute_overlap` runs one :class:`~repro.models.plan.OverlapStep`:
  post the exchange (``port.halo_begin``), sweep every chunk's core,
  complete the exchange (``port.halo_wait``), sweep the strips, then run
  the epilogues and combine reduction partials deterministically.

Deterministic simulated-async mode
----------------------------------
Nothing here consults a wall clock.  Communication cost is modelled as
``messages * NET_LATENCY_MS + bytes / NET_BANDWIDTH`` from the port's
declared wire traffic (:meth:`Port.halo_wire_traffic`), interior compute
as ``bytes / COMPUTE_BANDWIDTH`` from the kernel table's per-cell
footprints, and the hidden portion of an overlapped exchange is
``min(comm, interior)``.  The accounting (:class:`CommStats`, surfaced
as ``RunResult.comm``) is therefore a pure function of the plan and the
decomposition — bitwise results, traces and the exposed/hidden split
all replay identically run over run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core import fields as F
from repro.models.plan import OPS, FusedGroup, HaloStep, KernelCall
from repro.models.reduction import deterministic_sum
from repro.models.stencil import row_matvec

#: Stencil reach of every overlappable operation (the 5-point stencil
#: reads one neighbour in each direction).  The boundary-strip width is
#: the reach, not the exchange depth: a depth-2 halo's second ghost
#: layer is never read by a reach-1 sweep, so the core may start one
#: cell in regardless of how deep the exchange is.
STENCIL_REACH = 1

#: Simulated network bandwidth for halo traffic (bytes per millisecond).
NET_BANDWIDTH_B_PER_MS = 20e6  # 20 GB/s
#: Simulated per-message latency (milliseconds).
NET_LATENCY_MS = 0.001
#: Simulated streaming bandwidth of one chunk's compute (bytes per ms).
COMPUTE_BANDWIDTH_B_PER_MS = 40e6  # 40 GB/s


def comm_cost_ms(nbytes: int, messages: int) -> float:
    """Modelled wire time for one exchange (latency + bandwidth terms)."""
    return messages * NET_LATENCY_MS + nbytes / NET_BANDWIDTH_B_PER_MS


def compute_cost_ms(nbytes: int) -> float:
    """Modelled sweep time for ``nbytes`` of kernel traffic."""
    return nbytes / COMPUTE_BANDWIDTH_B_PER_MS


# --------------------------------------------------------------------- #
# interior / boundary-strip partition
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Region:
    """A rectangle of interior cells, in interior-relative coordinates."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def cells(self) -> int:
        return (self.r1 - self.r0) * (self.c1 - self.c0)


def interior_partition(
    ny: int, nx: int, depth: int
) -> tuple[Region | None, tuple[Region, ...]]:
    """Split an ``ny x nx`` interior into (core, boundary strips).

    The strips are the outermost ``depth`` layers (bottom and top rows
    span the full width; left and right columns cover the remaining
    middle rows); the core is everything further in.  Every interior
    cell lands in exactly one region for *any* ``ny``/``nx``/``depth``
    — when the mesh is too small for a core the strips absorb it and
    the core is ``None``.
    """
    rb = min(depth, ny)
    rt = max(rb, ny - depth)
    cl = min(depth, nx)
    cr = max(cl, nx - depth)
    strips: list[Region] = []
    if rb > 0:
        strips.append(Region(0, rb, 0, nx))
    if rt < ny:
        strips.append(Region(rt, ny, 0, nx))
    if rb < rt:
        if cl > 0:
            strips.append(Region(rb, rt, 0, cl))
        if cr < nx:
            strips.append(Region(rb, rt, cr, nx))
    core = Region(rb, rt, cl, cr) if (rb < rt and cl < cr) else None
    return core, tuple(strips)


class RegionSlices:
    """Array slices for one region — the region-typed CodegenContext.

    Offers the same ``I/Ip/Im/J/Jp/Jm`` attributes a
    :class:`~repro.models.codegen.CodegenContext` supplies for the full
    interior, shifted to the region, so generated bodies (and the
    hand-written overlap bodies below) evaluate the identical per-cell
    expressions over a sub-slab.  ``T0``-``T2`` are region-shaped views
    of the context's scratch arrays.
    """

    __slots__ = ("I", "Ip", "Im", "J", "Jp", "Jm", "T0", "T1", "T2")

    def __init__(self, ctx: Any, region: Region) -> None:
        h = ctx.h
        r0, r1, c0, c1 = region.r0, region.r1, region.c0, region.c1
        self.I = slice(h + r0, h + r1)
        self.Ip = slice(h + r0 + 1, h + r1 + 1)
        self.Im = slice(h + r0 - 1, h + r1 - 1)
        self.J = slice(h + c0, h + c1)
        self.Jp = slice(h + c0 + 1, h + c1 + 1)
        self.Jm = slice(h + c0 - 1, h + c1 - 1)
        self.T0 = ctx.T0[r0:r1, c0:c1]
        self.T1 = ctx.T1[r0:r1, c0:c1]
        self.T2 = ctx.T2[r0:r1, c0:c1]

    @staticmethod
    def reduce(values: Any) -> float:  # pragma: no cover - legality bars it
        """Generated preamble binds ``S.reduce``; a region must never sum.

        A partial-region reduction would not be the canonical
        deterministic interior sum — the overlap legality pass keeps
        reductions in whole-interior epilogues, so reaching this is a
        compiler bug, not a numerics choice.
        """
        raise AssertionError("reduction evaluated over a boundary region")


# --------------------------------------------------------------------- #
# overlap templates
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class OverlapTemplate:
    """Region body + whole-interior epilogue for one operation.

    ``body(ctx, args, S)`` runs the elementwise sweep over the region
    ``S`` (a :class:`RegionSlices`); ``epilogue(ctx, args)`` runs any
    same-cell scalar updates and returns the member's reduction partial
    (or ``None``).  The read/write sets drive the legality pass: body
    sets describe what happens *while the exchange is in flight*,
    epilogue sets what happens after the wait.
    """

    body: Callable[..., None] | None
    epilogue: Callable[..., Any] | None
    body_reads: tuple[str, ...] = ()
    body_writes: tuple[str, ...] = ()
    epi_reads: tuple[str, ...] = ()
    epi_writes: tuple[str, ...] = ()


def _body_cg_calc_w(ctx: Any, args: tuple, S: RegionSlices) -> None:
    A = ctx.array
    A(F.W)[S.I, S.J] = row_matvec(
        A(F.P), A(F.KX), A(F.KY), S.I, S.Im, S.Ip, S.J, S.Jm, S.Jp
    )


def _epi_cg_calc_w(ctx: Any, args: tuple) -> float:
    A = ctx.array
    return deterministic_sum(
        (A(F.P)[ctx.I, ctx.J] * A(F.W)[ctx.I, ctx.J]).ravel()
    )


_RESIDUAL_FN: Callable | None = None


def _body_tea_leaf_residual(ctx: Any, args: tuple, S: RegionSlices) -> None:
    # Routed through the codegen backend's region-capable generated
    # function (the same cached object ``--codegen`` runs), exercising
    # the ``R`` parameter for real; the op has no epilogue, so the whole
    # sweep is region-safe.
    global _RESIDUAL_FN
    if _RESIDUAL_FN is None:
        from repro.models.codegen import _function_for

        _RESIDUAL_FN = _function_for((KernelCall("tea_leaf_residual"),))[0]
    _RESIDUAL_FN(ctx, (args,), S)


def _body_cheby_iterate(ctx: Any, args: tuple, S: RegionSlices) -> None:
    A = ctx.array
    A(F.R)[S.I, S.J] -= row_matvec(
        A(F.SD), A(F.KX), A(F.KY), S.I, S.Im, S.Ip, S.J, S.Jm, S.Jp
    )


def _epi_cheby_iterate(ctx: Any, args: tuple) -> None:
    A = ctx.array
    r, sd, u = A(F.R), A(F.SD), A(F.U)
    I, J = ctx.I, ctx.J
    sd[I, J] = args[0] * sd[I, J] + args[1] * r[I, J]
    u[I, J] += sd[I, J]
    return None


def _body_ppcg_precon_inner(ctx: Any, args: tuple, S: RegionSlices) -> None:
    A = ctx.array
    A(F.W)[S.I, S.J] -= row_matvec(
        A(F.SD), A(F.KX), A(F.KY), S.I, S.Im, S.Ip, S.J, S.Jm, S.Jp
    )


def _epi_ppcg_precon_inner(ctx: Any, args: tuple) -> None:
    A = ctx.array
    w, sd, z = A(F.W), A(F.SD), A(F.Z)
    I, J = ctx.I, ctx.J
    sd[I, J] = args[0] * sd[I, J] + args[1] * w[I, J]
    z[I, J] += sd[I, J]
    return None


def _epi_norm2_field(ctx: Any, args: tuple) -> float:
    v = ctx.array(args[0])[ctx.I, ctx.J]
    return deterministic_sum((v * v).ravel())


def _epi_dot_fields(ctx: Any, args: tuple) -> float:
    a = ctx.array(args[0])[ctx.I, ctx.J]
    b = ctx.array(args[1])[ctx.I, ctx.J]
    return deterministic_sum((a * b).ravel())


#: Operations the overlap pass may split.  The matvec-style sweeps keep
#: their stencil read in the body and push same-cell recurrences and
#: reductions into the epilogue; pure reductions are epilogue-only so
#: they can ride along inside a fused group (``jacobi_residual``'s
#: ``residual + norm2`` pair) without blocking the split.
OVERLAP_TEMPLATES: dict[str, OverlapTemplate] = {
    "cg_calc_w": OverlapTemplate(
        body=_body_cg_calc_w,
        epilogue=_epi_cg_calc_w,
        body_reads=(F.P, F.KX, F.KY),
        body_writes=(F.W,),
        epi_reads=(F.P, F.W),
    ),
    "tea_leaf_residual": OverlapTemplate(
        body=_body_tea_leaf_residual,
        epilogue=None,
        body_reads=(F.U0, F.U, F.KX, F.KY),
        body_writes=(F.R,),
    ),
    "cheby_iterate": OverlapTemplate(
        body=_body_cheby_iterate,
        epilogue=_epi_cheby_iterate,
        body_reads=(F.R, F.SD, F.KX, F.KY),
        body_writes=(F.R,),
        epi_reads=(F.R, F.SD, F.U),
        epi_writes=(F.SD, F.U),
    ),
    "ppcg_precon_inner": OverlapTemplate(
        body=_body_ppcg_precon_inner,
        epilogue=_epi_ppcg_precon_inner,
        body_reads=(F.W, F.SD, F.KX, F.KY),
        body_writes=(F.W,),
        epi_reads=(F.W, F.SD, F.Z),
        epi_writes=(F.SD, F.Z),
    ),
    "norm2_field": OverlapTemplate(body=None, epilogue=_epi_norm2_field),
    "dot_fields": OverlapTemplate(body=None, epilogue=_epi_dot_fields),
}


def _member_calls(body: Any) -> tuple[KernelCall, ...]:
    return body.calls if isinstance(body, FusedGroup) else (body,)


def _epi_reads(call: KernelCall, t: OverlapTemplate) -> set[str]:
    reads = set(t.epi_reads)
    if call.spec.reads_args:
        reads.update(a for a in call.args if isinstance(a, str))
    return reads


def overlap_reason(halo: HaloStep, body: Any) -> str | None:
    """Why ``halo`` may NOT overlap ``body`` — ``None`` when it is legal.

    Legality rules (each refusal returns a human-readable reason):

    1. every member must have an :data:`OVERLAP_TEMPLATES` entry;
    2. **WAR hazard**: no member's *body* may write an exchanged field.
       The exchange packs ``depth`` interior edge layers when it is
       posted; a body sweep runs concurrently and mutates everything
       from layer :data:`STENCIL_REACH` inward, so for ``depth >
       STENCIL_REACH`` the packed strip would change under an in-flight
       (or lazily-packing) send.  Epilogue writes are fine — they land
       after the wait, exactly where the non-overlapped plan wrote.
    3. at least one member must stencil-read an exchanged field — the
       split otherwise buys nothing;
    4. splitting a fused group must not reorder cross-member dataflow:
       a later member's body may not read an earlier member's epilogue
       writes (the epilogue now runs *after* that body), an earlier
       member's epilogue may not read a later member's body writes, and
       an earlier member's epilogue may not write what a later member's
       body writes.
    """
    if not isinstance(body, (KernelCall, FusedGroup)):
        return f"step {type(body).__name__} has no interior/boundary split"
    calls = _member_calls(body)
    for c in calls:
        if c.op not in OVERLAP_TEMPLATES:
            return f"no overlap template for '{c.op}'"
    names = set(halo.names)
    body_writes: set[str] = set()
    stencil_hit = False
    for c in calls:
        t = OVERLAP_TEMPLATES[c.op]
        body_writes.update(t.body_writes)
        if set(c.spec.stencil_reads) & names:
            stencil_hit = True
    war = body_writes & names
    if war:
        return (
            f"WAR hazard: interior body writes {sorted(war)} while their "
            f"depth-{halo.depth} exchange is in flight (the packed edge "
            f"layers would be mutated before the send completes)"
        )
    if not stencil_hit:
        return "no member stencil-reads an exchanged field"
    for i, ci in enumerate(calls):
        ti = OVERLAP_TEMPLATES[ci.op]
        epi_w = set(ti.epi_writes)
        epi_r = _epi_reads(ci, ti)
        for cj in calls[i + 1 :]:
            tj = OVERLAP_TEMPLATES[cj.op]
            if set(tj.body_reads) & epi_w:
                return (
                    f"phase hazard: '{cj.op}' body reads "
                    f"{sorted(set(tj.body_reads) & epi_w)} written by "
                    f"'{ci.op}' epilogue, which the split defers"
                )
            if epi_r & set(tj.body_writes):
                return (
                    f"phase hazard: '{ci.op}' epilogue reads "
                    f"{sorted(epi_r & set(tj.body_writes))} which "
                    f"'{cj.op}' body would overwrite first"
                )
            if epi_w & set(tj.body_writes):
                return (
                    f"phase hazard: '{ci.op}' epilogue and '{cj.op}' body "
                    f"both write {sorted(epi_w & set(tj.body_writes))} "
                    f"in swapped order"
                )
    return None


# --------------------------------------------------------------------- #
# exposed / hidden communication accounting
# --------------------------------------------------------------------- #
class CommStats:
    """Deterministic exposed-vs-hidden communication ledger for one run.

    Aggregated per *site* — one entry per (plan, step kind, exchanged
    fields, depth) — rather than per execution, so a 10k-iteration run
    stays bounded while still showing exactly which plan step pays which
    cost.  A plain :class:`~repro.models.plan.HaloStep` is fully
    exposed; an overlapped one hides ``min(comm, interior)``.
    """

    __slots__ = (
        "comm_ms",
        "exposed_ms",
        "hidden_ms",
        "halo_steps",
        "overlap_steps",
        "sites",
    )

    def __init__(self) -> None:
        self.comm_ms = 0.0
        self.exposed_ms = 0.0
        self.hidden_ms = 0.0
        self.halo_steps = 0
        self.overlap_steps = 0
        self.sites: dict[tuple, dict] = {}

    def _site(self, plan: str, kind: str, names: tuple, depth: int) -> dict:
        key = (plan, kind, names, depth)
        site = self.sites.get(key)
        if site is None:
            site = {
                "plan": plan,
                "kind": kind,
                "fields": list(names),
                "depth": depth,
                "count": 0,
                "comm_ms": 0.0,
                "exposed_ms": 0.0,
                "hidden_ms": 0.0,
            }
            self.sites[key] = site
        return site

    def record_halo(
        self, plan: str, names: tuple, depth: int, comm_ms: float
    ) -> None:
        self.halo_steps += 1
        self.comm_ms += comm_ms
        self.exposed_ms += comm_ms
        site = self._site(plan, "halo", names, depth)
        site["count"] += 1
        site["comm_ms"] += comm_ms
        site["exposed_ms"] += comm_ms

    def record_overlap(
        self,
        plan: str,
        names: tuple,
        depth: int,
        comm_ms: float,
        interior_ms: float,
    ) -> None:
        hidden = min(comm_ms, interior_ms)
        exposed = comm_ms - hidden
        self.overlap_steps += 1
        self.comm_ms += comm_ms
        self.exposed_ms += exposed
        self.hidden_ms += hidden
        site = self._site(plan, "overlap", names, depth)
        site["count"] += 1
        site["comm_ms"] += comm_ms
        site["exposed_ms"] += exposed
        site["hidden_ms"] += hidden

    def as_dict(self) -> dict:
        return {
            "comm_ms": self.comm_ms,
            "exposed_ms": self.exposed_ms,
            "hidden_ms": self.hidden_ms,
            "halo_steps": self.halo_steps,
            "overlap_steps": self.overlap_steps,
            "sites": [
                self.sites[key] for key in sorted(self.sites, key=repr)
            ],
        }


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def execute_overlap(
    port: Any,
    step: Any,
    argv: tuple[tuple, ...],
    stats: CommStats | None = None,
    plan_name: str = "",
) -> list:
    """Run one OverlapStep: post exchange, sweep core, wait, sweep strips.

    Execution order per chunk: the exchange for ``step.halo`` is posted
    first (packing reads the pre-sweep edge values, exactly what the
    non-overlapped ``HaloStep`` would send), every chunk's core is swept
    while the messages are in flight, ``halo_wait`` completes delivery,
    the boundary strips are swept against the fresh ghosts, and finally
    the epilogues run over each chunk's whole interior with reduction
    partials combined through ``port.overlap_reduce`` (the same
    deterministic allreduce the interpreted dispatch uses).  Returns one
    result per member call, like ``dispatch_fused``.
    """
    halo = step.halo
    calls = step.calls
    templates = [OVERLAP_TEMPLATES[c.op] for c in calls]
    chunks = []
    for cp in port.overlap_chunks():
        ctx = cp._codegen_ctx()
        core, strips = interior_partition(
            cp.grid.ny, cp.grid.nx, STENCIL_REACH
        )
        chunks.append((cp, ctx, core, strips))

    nbytes, messages = port.halo_wire_traffic(halo.names, halo.depth)
    token = port.halo_begin(halo.names, halo.depth)

    interior_bytes = 0
    for cp, ctx, core, strips in chunks:
        if core is None:
            continue
        S = RegionSlices(ctx, core)
        for call, t, args in zip(calls, templates, argv):
            if t.body is None:
                continue
            spec = cp._launch(call.spec.kernel, cells=core.cells)
            t.body(ctx, args, S)
            interior_bytes += spec.bytes_for(core.cells)

    port.halo_wait(token)

    for cp, ctx, core, strips in chunks:
        for strip in strips:
            S = RegionSlices(ctx, strip)
            for call, t, args in zip(calls, templates, argv):
                if t.body is None:
                    continue
                cp._launch(call.spec.kernel, cells=strip.cells)
                t.body(ctx, args, S)

    results = []
    for call, t, args in zip(calls, templates, argv):
        value = None
        if t.epilogue is not None:
            partials = []
            for cp, ctx, core, strips in chunks:
                if t.body is None:
                    cp._launch(call.spec.kernel, cells=ctx.nx * ctx.ny)
                partials.append(t.epilogue(ctx, args))
            if call.spec.reduction:
                value = port.overlap_reduce(partials)
        results.append(value)
        written = call.spec.written(args)
        if written:
            for cp, _ctx, _core, _strips in chunks:
                cp._mark_dirty(written)

    if stats is not None:
        stats.record_overlap(
            plan_name,
            halo.names,
            halo.depth,
            comm_cost_ms(nbytes, messages),
            compute_cost_ms(interior_bytes),
        )
    return results
