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
* :data:`~repro.models.codegen.OP_DEFS` supplies the arithmetic: each
  op that splits has a region-capable **sweep** (the stencil part,
  runnable over the core while the exchange is in flight, then over the
  strips once the ghosts have landed) and every op a whole-interior
  **tail** (same-cell updates and reductions, run after the wait).
  These are the very functions ``--codegen`` composes, evaluated over
  sub-slices of the same full-interior expressions, so every cell's
  bits are identical to the non-overlapped run.  The core's stencil
  runs over its span of the padded fields (:class:`SpanSlices`) on
  every port whose arrays :func:`~repro.models.stencil.flat` accepts;
  the strips, and the core of a column-major Kokkos port, run over 2-D
  slices (:class:`RegionSlices`).
* :func:`overlap_reason` is the legality pass, over read/write sets
  derived from the :data:`~repro.models.plan.OPS` dataflow table: it
  refuses pairs where a sweep writes an exchanged field (the WAR
  hazard — a ``depth > 1`` exchange packs ``depth`` interior layers,
  and the core sweep mutates layer ``STENCIL_REACH`` onwards *while the
  pack is in flight* on any port that does not snapshot eagerly), where
  no member actually stencil-reads an exchanged field, or where
  splitting a fused group into a sweep phase and a tail phase would
  reorder cross-member dataflow.
* :func:`execute_overlap` runs one :class:`~repro.models.plan.OverlapStep`:
  post the exchange (``port.halo_begin``), sweep every chunk's core,
  complete the exchange (``port.halo_wait``), sweep the strips, then run
  the tails and combine reduction partials deterministically.  Each
  chunk traces two launches under the body's own launch spec, as OP2
  runs a split parallel loop: the core, which does not reduce, and one
  boundary ring over all four strips, which carries the body's
  reduction.  An overlapped run therefore has the synchronous run's
  reductions and one launch more per chunk per overlapped step.

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
from typing import Any

import numpy as np

from repro.core import fields as F
from repro.models.codegen import OP_DEFS
from repro.models.plan import FusedGroup, HaloStep, KernelCall
from repro.models.stencil import (
    flat,
    flattens,
    matvec_into,
    region_stencil,
    row_span,
)

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

    Offers the same ``I/Ip/Im/J/Jp/Jm`` attributes and :meth:`matvec`
    entry point a :class:`~repro.models.codegen.CodegenContext` supplies
    for the full interior, shifted to the region, so an op's ``sweep``
    evaluates the identical per-cell ufuncs over a sub-slab.  Here the
    stencil runs over 2-D slices, which any memory order allows.  The
    boundary strips use it, because a left or right strip is one column
    wide and its span would cost about a row pitch of cells per cell;
    so does the core of a port whose arrays
    :func:`~repro.models.stencil.flat` refuses (a Kokkos ``Layout.LEFT``
    port, whose column-major arrays have no row-major span short of a
    copy of each).  ``T0``-``T2`` are region-shaped views of the leading
    cells of the context's scratch, contiguous like the whole-interior
    scratch.
    """

    __slots__ = (
        "array", "cells", "I", "Ip", "Im", "J", "Jp", "Jm", "at", "T0", "T1", "T2",
    )

    def __init__(self, ctx: Any, region: Region) -> None:
        h = ctx.h
        r0, r1, c0, c1 = region.r0, region.r1, region.c0, region.c1
        self.array = ctx.array
        self.cells = region.cells
        self.I = I = slice(h + r0, h + r1)
        self.Ip = Ip = slice(h + r0 + 1, h + r1 + 1)
        self.Im = Im = slice(h + r0 - 1, h + r1 - 1)
        self.J = J = slice(h + c0, h + c1)
        self.Jp = Jp = slice(h + c0 + 1, h + c1 + 1)
        self.Jm = Jm = slice(h + c0 - 1, h + c1 - 1)
        self.at = region_stencil(I, Im, Ip, J, Jm, Jp)
        shape = (r1 - r0, c1 - c0)
        cells = shape[0] * shape[1]
        self.T0 = ctx.T0.ravel()[:cells].reshape(shape)
        self.T1 = ctx.T1.ravel()[:cells].reshape(shape)
        self.T2 = ctx.T2.ravel()[:cells].reshape(shape)

    def matvec(self, v: str) -> np.ndarray:
        """``A v`` over the region, in ``T0``."""
        A = self.array
        return matvec_into(
            A(v), A(F.KX), A(F.KY), self.at, self.T0, self.T1, self.T2
        )


class SpanSlices(RegionSlices):
    """A core whose stencil runs over its span of the padded fields.

    As the compiled whole-interior ``matvec`` does, every operand of
    ``A v`` is a 1-D slice of a flattened field
    (:func:`~repro.models.stencil.row_span` over the core's rows and
    columns), so each ufunc streams contiguous memory.  ``T0``-``T2``
    are the span-long heads of the context's scratch rows, and
    :meth:`matvec` returns the pitched ``(rows, columns)`` view of the
    first, which a sweep writes through the field's interior view.
    """

    __slots__ = ("pitch", "out")

    def __init__(self, ctx: Any, region: Region) -> None:
        super().__init__(ctx, region)
        r0, r1, c0, c1 = region.r0, region.r1, region.c0, region.c1
        _, length, self.at = row_span(ctx.h, ctx.nx, r0, r1, c0, c1)
        self.T0, self.T1, self.T2 = (s[:length] for s in ctx.spans)
        self.out = ctx.pitched[0][: r1 - r0, : c1 - c0]
        self.pitch = ctx.pitch

    def matvec(self, v: str) -> np.ndarray:
        """``A v`` over the core's span, as the view ``out``."""
        A, pitch = self.array, self.pitch
        matvec_into(
            flat(A(v), pitch), flat(A(F.KX), pitch), flat(A(F.KY), pitch),
            self.at, self.T0, self.T1, self.T2,
        )
        return self.out


def region_views(ctx: Any) -> tuple[RegionSlices | None, tuple[RegionSlices, ...]]:
    """The core and strip views of ``ctx``'s interior, built on first use.

    The core runs over its span (:class:`SpanSlices`) when the port's
    arrays are C-contiguous rows of the context's pitch, over 2-D slices
    otherwise; the strips always run over 2-D slices.  The partition and
    the scratch views never change for a port, so they are kept on its
    codegen context and every overlapped step reuses them.
    """
    if ctx.regions is None:
        core, strips = interior_partition(ctx.ny, ctx.nx, STENCIL_REACH)
        if core is not None:
            span = flattens(ctx.array(F.KX), ctx.pitch)
            core = (SpanSlices if span else RegionSlices)(ctx, core)
        ctx.regions = (core, tuple(RegionSlices(ctx, s) for s in strips))
    return ctx.regions


# --------------------------------------------------------------------- #
# legality pass
# --------------------------------------------------------------------- #
def _member_calls(body: Any) -> tuple[KernelCall, ...]:
    return body.calls if isinstance(body, FusedGroup) else (body,)


def _phases(call: KernelCall) -> tuple[set[str], set[str], set[str], set[str]]:
    """(sweep reads, sweep writes, tail reads, tail writes) of one member.

    Derived from the :data:`~repro.models.plan.OPS` dataflow table.  A
    sweep reads what the op reads plus its stencil neighbourhoods and
    may write anything the op writes except the fields it stencil-reads,
    which change only in the tail, after the wait.  The tail may read
    and write anything the op does.  An op without a sweep (a pure
    reduction) does all its work in the tail.
    """
    spec = call.spec
    reads = set(spec.read_fields(call.args))
    writes = set(spec.written(call.args))
    if OP_DEFS[call.op].sweep is None:
        return set(), set(), reads, writes
    stencil = set(spec.stencil_reads)
    return reads | stencil, writes - stencil, reads, writes


def overlap_reason(halo: HaloStep, body: Any) -> str | None:
    """Why ``halo`` may NOT overlap ``body`` — ``None`` when it is legal.

    Legality rules (each refusal returns a human-readable reason), over
    the read/write sets :func:`_phases` derives for each member:

    1. every member's op must have a region ``sweep`` in
       :data:`~repro.models.codegen.OP_DEFS` or write nothing (a pure
       reduction, which runs whole in its tail);
    2. **WAR hazard**: no member's *sweep* may write an exchanged field.
       The exchange packs ``depth`` interior edge layers when it is
       posted; a core sweep runs concurrently and mutates everything
       from layer :data:`STENCIL_REACH` inward, so for ``depth >
       STENCIL_REACH`` the packed strip would change under an in-flight
       (or lazily-packing) send.  Tail writes are fine — they land
       after the wait, exactly where the non-overlapped plan wrote.
    3. at least one member must stencil-read an exchanged field — the
       split otherwise buys nothing;
    4. splitting a fused group must not reorder cross-member dataflow:
       a later member's sweep may not read an earlier member's tail
       writes (the tail now runs *after* that sweep), an earlier
       member's tail may not read a later member's sweep writes, and
       an earlier member's tail may not write what a later member's
       sweep writes.
    """
    if not isinstance(body, (KernelCall, FusedGroup)):
        return f"step {type(body).__name__} has no interior/boundary split"
    calls = _member_calls(body)
    for c in calls:
        d = OP_DEFS.get(c.op)
        if d is None or (d.sweep is None and c.spec.written(c.args)):
            return (
                f"no split template for '{c.op}': only ops with a region "
                f"sweep or pure reductions split"
            )
    names = set(halo.names)
    members = [(c, _phases(c)) for c in calls]
    war = names & set().union(*(phases[1] for _, phases in members))
    if war:
        return (
            f"WAR hazard: interior sweep writes {sorted(war)} while their "
            f"depth-{halo.depth} exchange is in flight (the packed edge "
            f"layers would be mutated before the send completes)"
        )
    if not any(set(c.spec.stencil_reads) & names for c in calls):
        return "no member stencil-reads an exchanged field"
    for i, (ci, (_, _, tail_r, tail_w)) in enumerate(members):
        for cj, (sweep_r, sweep_w, _, _) in members[i + 1 :]:
            if sweep_r & tail_w:
                return (
                    f"phase hazard: '{cj.op}' sweep reads "
                    f"{sorted(sweep_r & tail_w)} written by '{ci.op}' "
                    f"tail, which the split defers"
                )
            if tail_r & sweep_w:
                return (
                    f"phase hazard: '{ci.op}' tail reads "
                    f"{sorted(tail_r & sweep_w)} which '{cj.op}' sweep "
                    f"would overwrite first"
                )
            if tail_w & sweep_w:
                return (
                    f"phase hazard: '{ci.op}' tail and '{cj.op}' sweep "
                    f"both write {sorted(tail_w & sweep_w)} in swapped order"
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
    """Run one OverlapStep: post exchange, sweep cores, wait, sweep rings.

    The exchange for ``step.halo`` is posted first (packing reads the
    pre-sweep edge values, exactly what the non-overlapped ``HaloStep``
    would send).  Each chunk then launches twice under the body's own
    launch, as OP2 runs a split parallel loop: its core, while the
    messages are in flight, under ``step.core_spec``, which does not
    reduce; and after ``halo_wait``, one boundary ring covering the four
    strips, their cells summed, under ``step.spec``, which carries the
    body's reduction.  A chunk without a core launches the ring alone.
    The ring launch also finishes the member tails over the chunk's
    whole interior, so a member without a sweep (a pure reduction) runs
    there and launches nothing of its own.  Reduction partials are
    combined through ``port.overlap_reduce``, the same deterministic
    allreduce the interpreted dispatch uses.  Returns one result per
    member call, like ``dispatch_fused``.
    """
    halo = step.halo
    calls = step.calls
    defs = [OP_DEFS[c.op] for c in calls]
    sweeps = [
        (d.sweep, args) for d, args in zip(defs, argv) if d.sweep is not None
    ]
    chunks = []
    for cp in port.overlap_chunks():
        ctx = cp._codegen_ctx()
        chunks.append((cp, ctx, *region_views(ctx)))

    nbytes, messages = port.halo_wire_traffic(halo.names, halo.depth)
    token = port.halo_begin(halo.names, halo.depth)

    name = step.spec.name
    core_cells = 0
    for cp, ctx, core, strips in chunks:
        if core is None:
            continue
        cp._launch(name, cells=core.cells, spec=step.core_spec)
        for sweep, args in sweeps:
            sweep(ctx, core, args)
        core_cells += core.cells

    port.halo_wait(token)

    for cp, ctx, core, strips in chunks:
        cp._launch(name, cells=sum(S.cells for S in strips), spec=step.spec)
        for S in strips:
            for sweep, args in sweeps:
                sweep(ctx, S, args)

    results = []
    for call, d, args in zip(calls, defs, argv):
        partials = []
        reduction = call.spec.reduction
        for cp, ctx, core, strips in chunks:
            partials.append(d.tail(ctx, args))
            if reduction:
                cp._reduction_epilogue(call.op)
        results.append(
            port.overlap_reduce(partials) if reduction else None
        )
        written = call.spec.written(args)
        if written:
            for cp, _ctx, _core, _strips in chunks:
                cp._mark_dirty(written)

    if stats is not None:
        # The hidden share is priced from the members' own footprints
        # over the cores, whatever launch they share.
        interior_bytes = sum(
            c.spec.spec().bytes_for(core_cells)
            for c, d in zip(calls, defs)
            if d.sweep is not None
        )
        stats.record_overlap(
            plan_name,
            halo.names,
            halo.depth,
            comm_cost_ms(nbytes, messages),
            compute_cost_ms(interior_bytes),
        )
    return results
