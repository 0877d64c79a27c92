"""The kernel-plan IR: declarative solver call sequences over the ports.

The paper's central observation is that all models run *the same solver
logic* and differ only in how each wraps kernel dispatch, data residency,
and reductions.  This module makes that shared structure explicit: solvers
build :class:`Plan` objects — flat sequences of kernel calls, halo
exchanges, and scalar recurrences — and a :class:`PlanExecutor` replays
them against any port.  Each port then needs only a table of ``_k_*``
primitives plus a residency adapter (see ``models/base.py``); the ~20
imperative per-port kernel methods collapse into the shared dispatch core.

Because the plan knows, per operation, which fields are read (and which of
those through the 5-point stencil), which are written, and whether a global
reduction is involved, it is the single surface for cross-model
optimisation:

* **Fusion** (``Plan.compiled(fuse=True)``): adjacent fusable kernels whose
  stencil reads do not overlap earlier writes in the group are merged into
  one :class:`FusedGroup`, which codegen lowers to a single launch.
  Reductions stay on the canonical ``deterministic_sum`` path and the
  member bodies run in original order, so results are bitwise-identical
  to the unfused plan.  A halo refresh whose fields the next traversal
  stencil-reads becomes that traversal's prefix, traced as part of its
  one launch (:func:`_prefix_halos`).
* **Residency tracking**: executed plans report written fields to the
  port's dirty-set adapter, letting offload ports elide redundant
  host<->device transfers (see ``Port.enable_residency_tracking``).
* **Resilience instrumentation** (``Plan.compiled(..., instrument=True)``):
  fault-injection triggers (:class:`FaultStep`) and isfinite/divergence
  guards (:class:`GuardStep`) are explicit steps the compiler places at
  fusion-group boundaries, so detection composes with fusion and residency
  instead of requiring a per-kernel proxy that fused dispatch would
  bypass.  The executor also journals every step's write set into the
  resilience manager, which is what lets checkpoints go incremental.

``python -m repro plan --model M --solver S`` dumps the compiled plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.kernels import KERNELS, KernelSpec
from repro.util.errors import CorruptionError, ModelError


def check_finite(name: str, value: float) -> float:
    """Scalar corruption guard shared by solvers and the executor.

    NaN/Inf must never propagate silently out of a reduction; the message
    matches the historical ``Solver._finite`` wording so resilience tests
    keyed on it keep passing.
    """
    if not math.isfinite(value):
        raise CorruptionError(f"non-finite solver scalar {name} = {value!r}")
    return value


# --------------------------------------------------------------------- #
# the operation table
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class OpSpec:
    """Dataflow facts for one port-level operation.

    ``kernel`` names the :data:`repro.core.kernels.KERNELS` entry traced
    for the launch.  ``reads``/``writes`` are the statically-known fields;
    ``stencil_reads`` is the subset of reads that go through the 5-point
    neighbourhood (the fusion legality test only cares about those —
    same-cell reads of a field written earlier in a fused traversal see
    the updated value in every port, exactly as in the unfused sequence).
    Operations whose field arguments arrive at call time (``dot_fields``,
    ``copy_field``...) declare them via ``reads_args``/``writes_arg``.
    """

    name: str
    kernel: str
    reads: tuple[str, ...] = ()
    stencil_reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    fusable: bool = False
    reduction: bool = False
    #: Index into the call args naming a written field (copy_field's dst).
    writes_arg: int | None = None
    #: When True, every string arg names a field that is read.
    reads_args: bool = False

    def written(self, args: tuple[Any, ...]) -> tuple[str, ...]:
        out = self.writes
        if self.writes_arg is not None and self.writes_arg < len(args):
            arg = args[self.writes_arg]
            if isinstance(arg, str):
                out = out + (arg,)
        return out

    def read_fields(self, args: tuple[Any, ...]) -> tuple[str, ...]:
        out = self.reads
        if self.reads_args:
            out = out + tuple(a for a in args if isinstance(a, str))
        return out

    def spec(self) -> KernelSpec:
        return KERNELS[self.kernel]


def _op(name: str, **kw: Any) -> tuple[str, OpSpec]:
    return name, OpSpec(name=name, kernel=kw.pop("kernel", name), **kw)


from repro.core import fields as F  # noqa: E402  (table needs the names)

#: Every port-level operation a plan may call, keyed by the public
#: ``Port`` method name.  ``fusable=False`` marks operations whose bodies
#: are multi-sweep (cheby/ppcg inner) or whose port implementations differ
#: structurally (copy_field is a D2D memcpy on CUDA, a deep_copy on
#: Kokkos) — fusing those would change trace structure per model.
OPS: dict[str, OpSpec] = dict(
    (
        _op(
            "set_field",
            reads=(F.ENERGY0,),
            writes=(F.ENERGY1,),
            fusable=True,
        ),
        _op(
            "tea_leaf_init",
            reads=(F.DENSITY, F.ENERGY1),
            stencil_reads=(F.DENSITY,),
            writes=(F.U, F.U0, F.KX, F.KY),
            fusable=True,
        ),
        _op(
            "tea_leaf_residual",
            reads=(F.U0, F.U, F.KX, F.KY),
            stencil_reads=(F.U, F.KX, F.KY),
            writes=(F.R,),
            fusable=True,
        ),
        _op(
            "cg_init",
            reads=(F.U, F.U0, F.KX, F.KY),
            stencil_reads=(F.U, F.KX, F.KY),
            writes=(F.W, F.R, F.P),
            reduction=True,
            fusable=True,
        ),
        _op(
            "cg_calc_w",
            reads=(F.P, F.KX, F.KY),
            stencil_reads=(F.P, F.KX, F.KY),
            writes=(F.W,),
            reduction=True,
            fusable=True,
        ),
        _op(
            "cg_calc_ur",
            reads=(F.U, F.R, F.P, F.W),
            writes=(F.U, F.R),
            reduction=True,
            fusable=True,
        ),
        _op("cg_calc_p", reads=(F.R, F.P), writes=(F.P,), fusable=True),
        _op(
            "cheby_init",
            reads=(F.U, F.U0, F.KX, F.KY),
            stencil_reads=(F.U, F.KX, F.KY),
            writes=(F.R, F.SD, F.U),
        ),
        _op(
            "cheby_iterate",
            reads=(F.R, F.SD, F.U, F.KX, F.KY),
            stencil_reads=(F.SD, F.KX, F.KY),
            writes=(F.R, F.SD, F.U),
        ),
        _op(
            "ppcg_precon_init",
            reads=(F.R,),
            writes=(F.W, F.SD, F.Z),
            fusable=True,
        ),
        _op(
            "ppcg_precon_inner",
            kernel="ppcg_inner",
            reads=(F.W, F.SD, F.Z, F.KX, F.KY),
            stencil_reads=(F.SD, F.KX, F.KY),
            writes=(F.W, F.SD, F.Z),
        ),
        _op(
            "ppcg_calc_p",
            kernel="cg_calc_p",
            reads=(F.Z, F.P),
            writes=(F.P,),
            fusable=True,
        ),
        _op(
            "cg_precon_jacobi",
            kernel="cg_precon",
            reads=(F.R, F.KX, F.KY),
            stencil_reads=(F.KX, F.KY),
            writes=(F.Z,),
            fusable=True,
        ),
        _op(
            "jacobi_iterate",
            reads=(F.U, F.U0, F.KX, F.KY, F.R),
            stencil_reads=(F.R, F.KX, F.KY),
            writes=(F.U, F.R),
            reduction=True,
        ),
        _op("norm2_field", kernel="norm2", reads_args=True, reduction=True, fusable=True),
        _op(
            "dot_fields",
            kernel="dot_product",
            reads_args=True,
            reduction=True,
            fusable=True,
        ),
        _op("copy_field", reads_args=True, writes_arg=1),
        _op(
            "tea_leaf_finalise",
            reads=(F.U, F.DENSITY),
            writes=(F.ENERGY1,),
            fusable=True,
        ),
        _op(
            "field_summary",
            reads=(F.DENSITY, F.ENERGY1, F.U),
            reduction=True,
        ),
    )
)


# --------------------------------------------------------------------- #
# plan steps
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Bind:
    """A late-bound scalar argument, resolved from the plan environment."""

    key: str


@dataclass(frozen=True)
class KernelCall:
    """One port operation: ``env[out] = port.<op>(*args)``."""

    op: str
    args: tuple[Any, ...] = ()
    #: Environment key the (scalar) result is stored under, if any.
    out: str | None = None
    #: Apply the NaN/Inf corruption guard to the result.
    finite: bool = False

    @property
    def spec(self) -> OpSpec:
        return OPS[self.op]


@dataclass(frozen=True)
class HaloStep:
    """Reflective halo exchange on ``names`` to ``depth``."""

    names: tuple[str, ...]
    depth: int = 1


@dataclass(frozen=True)
class ScalarStep:
    """Host-side scalar recurrence: ``env[out] = fn(env)``."""

    out: str
    fn: Callable[[Mapping[str, float]], float]
    finite: bool = False


@dataclass(frozen=True)
class BarrierStep:
    """A port lifecycle call (``begin_solve``/``end_solve``).

    The compiler hoists it across a fusion group: only ports without a
    data region fuse, and their begin/end_solve are no-ops.
    """

    method: str


@dataclass(frozen=True)
class FusedGroup:
    """Adjacent fusable kernel calls run as one traversal.

    Compile-time IR only: codegen lowers every group to one
    :class:`CompiledKernel` (see :func:`repro.models.codegen.lower_steps`),
    which traces the group's one launch under :attr:`spec`.  The spec is
    synthesised once, at construction, and construction also audits the
    member dataflow (:func:`audit_fusion`), so an illegal group cannot be
    built at all.

    ``halo`` is a reflective refresh the traversal runs as its prefix
    (see :func:`_prefix_halos`): it is traced as part of the group's one
    launch, and a prefix may lead a group whose only member is a
    non-fusable call.  A one-member group launches under its member's
    own kernel spec, exactly as the lone call would.
    """

    calls: tuple[KernelCall, ...]
    halo: HaloStep | None = None
    #: Launch spec (compile-time constant for the group).
    spec: KernelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        audit_fusion(self.calls)
        if self.halo is not None:
            reason = prefix_reason(self.halo, self.calls)
            if reason is not None:
                raise ModelError(f"illegal halo prefix: {reason}")
        object.__setattr__(
            self,
            "spec",
            fused_spec(self.calls)
            if len(self.calls) > 1
            else self.calls[0].spec.spec(),
        )


@dataclass(frozen=True)
class FaultStep:
    """Fault-plan trigger point for the named kernel launches.

    Placed by the instrumentation pass immediately *before* the launch it
    covers (one entry per member for a fused group), so a due
    ``raise:<kernel>:<n>`` spec aborts before the kernel — or the whole
    fused traversal — runs, exactly as the per-method proxy did unfused.
    A run without resilience never executes this step.
    """

    ops: tuple[str, ...]


@dataclass(frozen=True)
class GuardStep:
    """Detection point placed after a reduction's scalar is available.

    ``guard`` names the environment key whose value is isfinite-checked
    (raising :class:`CorruptionError` under ``label``), ``observe`` feeds
    a residual into the divergence monitor, and ``tick`` advances the
    global iteration count that drives field-fault injection and periodic
    checkpoints.  For fused groups the guards land at the group boundary:
    member bodies run back-to-back with no intervening scalar use, so
    checking afterwards is observationally identical to the unfused order.
    """

    guard: str | None = None
    label: str | None = None
    observe: str | None = None
    tick: bool = False


@dataclass
class CompiledKernel:
    """A codegen-lowered :class:`KernelCall` or :class:`FusedGroup`.

    Produced by :mod:`repro.models.codegen`: ``fn`` composes the
    members' NumPy definitions into one function that runs every member
    body as vectorised NumPy over the port's device arrays — no per-cell
    Python frames, no per-slab dispatch.  ``launches`` pre-records the trace
    events: those the interpreted dispatch of a lone call emits, or the
    group's single fused launch, so launch accounting matches the
    interpreted run.  ``argv`` holds the members' static argument tuples;
    executions only re-resolve them when ``has_binds`` is set.
    """

    calls: tuple[KernelCall, ...]
    fn: Callable[..., tuple]
    launches: tuple[tuple[str, KernelSpec | None], ...]
    argv: tuple[tuple[Any, ...], ...]
    has_binds: bool
    #: The group's halo prefix, refreshed before ``fn`` runs.
    halo: HaloStep | None = None
    #: Ops of the reducing members, in order: each result gets the
    #: port's reduction epilogue (``Port._reduction_epilogue``).
    reductions: tuple[str, ...] = ()


Step = Any  # KernelCall | HaloStep | ... | FusedGroup | FaultStep | GuardStep


#: Ops whose public ``Port`` method dispatches more than the op itself:
#: ``jacobi_iterate`` first stashes u in r through ``copy_field``.  A
#: group runs its members through their primitives, so such an op never
#: runs inside one.
_COMPOUND_OPS = frozenset({"jacobi_iterate"})


def fusion_reason(calls: tuple[KernelCall, ...]) -> str | None:
    """Why ``calls`` may NOT run as one traversal — ``None`` when legal.

    Member bodies execute in original order *per cell*, so same-cell
    read-after-write (a member reading a field an earlier member wrote)
    and write-after-write (two members writing the same field) are both
    legal — the later body observes exactly the values the unfused
    sequence would produce.  The genuine hazards are the *stencil*
    orderings: a member's neighbour read of any field another member
    writes, in either direction, would observe mid-traversal state on a
    cell-parallel port.  A member whose late-bound scalar (:class:`Bind`)
    an earlier member's reduction produces must stay out too: the scalar
    does not exist until the group completes.

    A group of one call fuses nothing, so its op need not be fusable (a
    halo prefix may lead a lone Chebyshev sweep) — unless the op's
    public method dispatches more than the op itself.
    """
    outs: set[str] = set()
    for idx, cand in enumerate(calls):
        spec = cand.spec
        if cand.op in _COMPOUND_OPS:
            return (
                f"'{cand.op}' dispatches more than one operation, so it "
                f"cannot run inside a group"
            )
        if not spec.fusable and len(calls) > 1:
            return f"'{cand.op}' is not a fusable operation"
        for arg in cand.args:
            if isinstance(arg, Bind) and arg.key in outs:
                return (
                    f"'{cand.op}' binds ${arg.key}, produced by an earlier "
                    f"member of the same group"
                )
        if cand.out is not None:
            outs.add(cand.out)
        cand_writes = set(spec.written(cand.args))
        cand_stencil = set(spec.stencil_reads)
        for other in calls[:idx]:
            o_spec = other.spec
            o_writes = set(o_spec.written(other.args))
            if cand_stencil & o_writes:
                return (
                    f"'{cand.op}' stencil-reads "
                    f"{sorted(cand_stencil & o_writes)} written by "
                    f"'{other.op}' in the same group"
                )
            if set(o_spec.stencil_reads) & cand_writes:
                return (
                    f"'{other.op}' stencil-reads "
                    f"{sorted(set(o_spec.stencil_reads) & cand_writes)} "
                    f"written later by '{cand.op}' in the same group"
                )
    return None


def audit_fusion(calls: tuple[KernelCall, ...]) -> None:
    """Raise on a group :func:`fusion_reason` refuses: every constructed
    group, hand-built ones included, is re-checked, so an illegal group
    is unrepresentable."""
    reason = fusion_reason(calls)
    if reason is not None:
        raise ModelError(f"illegal fusion: {reason}")


def prefix_reason(halo: HaloStep, calls: tuple[KernelCall, ...]) -> str | None:
    """Why ``halo`` may NOT run as the prefix of ``calls`` — ``None`` when legal.

    The refresh may join the traversal only when the group stencil-reads
    every refreshed field: on a single-chunk port each ghost cell the
    5-point stencil reads mirrors the very cell that reads it, so running
    the refresh first for each cell gives the bits of a separate launch.
    The calls must also be legal as one traversal.
    """
    stencil = {n for c in calls for n in c.spec.stencil_reads}
    missing = set(halo.names) - stencil
    if missing:
        return f"no member stencil-reads {sorted(missing)}"
    return fusion_reason(calls)


def fused_spec(calls: tuple[KernelCall, ...]) -> KernelSpec:
    """Synthesised :class:`KernelSpec` for a fused traversal.

    Costs follow the produced-set model: a field counts as a read only
    when no earlier member of the group wrote it (it is already in
    registers/cache for the fused loop body), writes are the union, flops
    simply add.  The fused launch is traced under ``fused:<k1>+<k2>+...``.
    """
    readset: list[str] = []
    writeset: list[str] = []
    produced: set[str] = set()
    flops = 0
    reduction = False
    for call in calls:
        op = call.spec
        for name in op.read_fields(call.args):
            if name not in produced and name not in readset:
                readset.append(name)
        for name in op.written(call.args):
            produced.add(name)
            if name not in writeset:
                writeset.append(name)
        flops += op.spec().flops
        reduction = reduction or op.spec().has_reduction
    name = "fused:" + "+".join(OPS[c.op].kernel for c in calls)
    first = calls[0].spec.spec()
    return KernelSpec(
        name=name,
        cls=first.cls,
        reads=len(readset),
        writes=len(writeset),
        flops=flops,
        has_reduction=reduction,
        description="fused elementwise traversal",
    )


# --------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------- #
def _guard_for(call: KernelCall) -> GuardStep | None:
    """The detection step the instrumentation pass places after ``call``.

    Decides which reductions are isfinite-guarded (and under which
    label), which feed the residual monitor, and which calls complete a
    solver iteration.
    """
    op = call.op
    if op == "cg_calc_ur":
        return GuardStep(
            guard=call.out, label=call.out, observe=call.out, tick=True
        )
    if op == "jacobi_iterate":
        return GuardStep(guard=call.out, label="jacobi_change", tick=True)
    if op == "cheby_iterate":
        return GuardStep(tick=True)
    if call.out is None:
        return None
    if op in ("cg_init", "cg_calc_w"):
        return GuardStep(guard=call.out, label=call.out)
    if op == "norm2_field":
        name = call.args[0]
        return GuardStep(
            guard=call.out,
            label=f"norm2({name})",
            observe=call.out if name == F.R else None,
        )
    if op == "dot_fields":
        return GuardStep(
            guard=call.out, label=f"dot({call.args[0]},{call.args[1]})"
        )
    return None


def _prefix_halos(steps: list[Step]) -> list[Step]:
    """Fold each halo into the traversal that stencil-reads what it refreshes.

    A :class:`HaloStep` followed by a kernel call or fused group that
    :func:`prefix_reason` accepts becomes that traversal's prefix
    (:class:`FusedGroup` ``halo``): one launch instead of two, the same
    bits.  Runs after fusion, so the group keeps the members fusion gave
    it.
    """
    out: list[Step] = []
    for step in steps:
        halo = out[-1] if out and isinstance(out[-1], HaloStep) else None
        if halo is not None and isinstance(step, (KernelCall, FusedGroup)):
            calls = step.calls if isinstance(step, FusedGroup) else (step,)
            if prefix_reason(halo, calls) is None:
                out[-1] = FusedGroup(calls, halo=halo)
                continue
        out.append(step)
    return out


def _instrument(steps: list[Step]) -> list[Step]:
    """Weave fault-trigger and guard steps into a compiled step list.

    Runs *after* fusion, so the triggers/guards land at fusion-group
    boundaries: a group's fault checks all fire before the traversal, its
    reduction guards after it.  The pass is pure plan rewriting — a run
    without resilience never compiles an instrumented variant.
    """
    out: list[Step] = []
    for step in steps:
        if isinstance(step, KernelCall):
            out.append(FaultStep((step.op,)))
            out.append(step)
            guard = _guard_for(step)
            if guard is not None:
                out.append(guard)
        elif isinstance(step, FusedGroup):
            # A halo prefix keeps the unfused pair's fault points, the
            # exchange's first.
            if step.halo is not None:
                out.append(FaultStep(("update_halo",)))
            out.append(FaultStep(tuple(c.op for c in step.calls)))
            out.append(step)
            for call in step.calls:
                guard = _guard_for(call)
                if guard is not None:
                    out.append(guard)
        elif isinstance(step, HaloStep):
            out.append(FaultStep(("update_halo",)))
            out.append(step)
        else:
            out.append(step)
    return out


@dataclass
class Plan:
    """A named, immutable step sequence with cached compiled variants."""

    name: str
    steps: tuple[Step, ...]
    _compiled: dict[tuple[bool, bool, bool], list[Step]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def compiled(
        self,
        fuse: bool,
        instrument: bool = False,
        codegen: bool = False,
    ) -> list[Step]:
        """The executable step list, fused when ``fuse`` is set.

        Compilation happens once per (fuse, instrument, codegen) tuple
        and is cached — CG/Chebyshev/PPCG inner loops replay the same
        compiled list every iteration instead of rebuilding their call
        sequence.  Pass order: ``fuse`` first, after which each halo
        becomes the prefix of the traversal that reads it (see
        :func:`_prefix_halos`); ``instrument`` weaves resilience
        fault/guard steps around the result (see :func:`_instrument`),
        and ``codegen`` finally lowers the remaining plain kernel calls
        and every fused group to composed NumPy functions
        (:mod:`repro.models.codegen`), leaving halo/scalar/guard steps
        interpreted.  The executor compiles with ``fuse`` only together
        with ``codegen``, so it never runs a :class:`FusedGroup` itself.
        """
        key = (bool(fuse), bool(instrument), bool(codegen))
        cached = self._compiled.get(key)
        if cached is None:
            cached = self._compile() if fuse else list(self.steps)
            if key[0]:
                cached = _prefix_halos(cached)
            if key[1]:
                cached = _instrument(cached)
            if key[2]:
                # Imported lazily: codegen builds on the IR in this module.
                from repro.models.codegen import lower_steps

                cached = lower_steps(cached)
            self._compiled[key] = cached
        return cached

    def _compile(self) -> list[Step]:
        out: list[Step] = []
        group: list[KernelCall] = []
        #: Every field the open group reads (incl. stencil) or writes.
        group_fields: set[str] = set()
        hoisted: list[Step] = []

        def flush() -> None:
            out.extend(hoisted)
            hoisted.clear()
            if len(group) >= 2:
                out.append(FusedGroup(tuple(group)))
            else:
                out.extend(group)
            group.clear()
            group_fields.clear()

        for step in self.steps:
            if isinstance(step, KernelCall) and step.spec.fusable:
                if group and fusion_reason((*group, step)) is not None:
                    flush()
                group.append(step)
                spec = step.spec
                group_fields.update(spec.read_fields(step.args))
                group_fields.update(spec.stencil_reads)
                group_fields.update(spec.written(step.args))
            elif isinstance(step, BarrierStep) and group:
                # Fusing ports have no data region, so the barrier is a
                # no-op and may cross the group without changing
                # observable order.
                hoisted.append(step)
            elif (
                isinstance(step, HaloStep)
                and group
                and not set(step.names) & group_fields
            ):
                # Fusion across halos: the exchange touches only fields
                # the open group neither reads nor writes, so it commutes
                # with every member and may run before the fused
                # traversal, letting the calls on either side fuse.
                hoisted.append(step)
            else:
                flush()
                out.append(step)
        flush()
        return out

    # ------------------------------------------------------------------ #
    def describe(
        self,
        fuse: bool = False,
        instrument: bool = False,
        codegen: bool = False,
    ) -> str:
        """Human-readable dump (the ``repro plan`` CLI output)."""
        header = f"plan {self.name} (fuse={'on' if fuse else 'off'}"
        if instrument:
            header += ", instrumented"
        if codegen:
            header += ", codegen"
        lines = [header + "):"]
        for step in self.compiled(fuse, instrument, codegen):
            lines.append(f"  {render_step(step)}")
        return "\n".join(lines)


def _render_arg(arg: Any) -> str:
    if isinstance(arg, Bind):
        return f"${arg.key}"
    return repr(arg)


def render_step(step: Step) -> str:
    if isinstance(step, (CompiledKernel, FusedGroup)):
        parts = [render_step(c) for c in step.calls]
        if step.halo is not None:
            parts.insert(0, f"prefix {render_step(step.halo)}")
        inner = "; ".join(parts)
        if isinstance(step, CompiledKernel):
            names = ", ".join(name for name, _ in step.launches)
            return f"compiled[{len(step.calls)}] {names}  {{ {inner} }}"
        return f"fused[{len(step.calls)}] {step.spec.name}  {{ {inner} }}"
    if isinstance(step, KernelCall):
        op = step.spec
        args = ", ".join(_render_arg(a) for a in step.args)
        text = f"{step.op}({args})"
        if step.out is not None:
            text = f"{step.out} = {text}"
        notes = []
        if op.reduction:
            notes.append("reduction")
        written = op.written(step.args)
        if written:
            notes.append("writes " + ",".join(written))
        if notes:
            text += "   # " + "; ".join(notes)
        return text
    if isinstance(step, HaloStep):
        return f"update_halo({','.join(step.names)}, depth={step.depth})"
    if isinstance(step, ScalarStep):
        return f"{step.out} = scalar({step.fn.__name__})"
    if isinstance(step, BarrierStep):
        return f"barrier {step.method}()"
    if isinstance(step, FaultStep):
        return f"fault-point({', '.join(step.ops)})"
    if isinstance(step, GuardStep):
        parts = []
        if step.guard is not None:
            parts.append(f"isfinite(${step.guard} as {step.label!r})")
        if step.observe is not None:
            parts.append(f"observe_residual(${step.observe})")
        if step.tick:
            parts.append("iteration_complete")
        return "guard " + "; ".join(parts)
    return repr(step)


# --------------------------------------------------------------------- #
# the liveness pass
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LiveEvent:
    """One field-touching point of a canonical solve timeline.

    ``uses`` are read before ``defs`` are written, except that an
    operation's stencil reads and its writes genuinely interleave cell
    by cell — which is why the live set at an event holds both.
    """

    index: int
    plan: str
    step: int
    label: str
    uses: tuple[str, ...]
    defs: tuple[str, ...]


#: Synthetic terminal event: the driver's out-of-plan consumers (the
#: ``field_summary`` reduction, VTK dumps, ``app.field(u)`` probes) read
#: these fields after the epilogue, so they stay live to the cycle end.
_OBSERVE_USES = (F.DENSITY, F.ENERGY1, F.U)


def _step_dataflow(step: Step) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(label, uses, defs) entries for one raw plan step."""
    if isinstance(step, KernelCall):
        op = step.spec
        uses = tuple(dict.fromkeys(op.read_fields(step.args) + op.stencil_reads))
        return [(step.op, uses, op.written(step.args))]
    if isinstance(step, HaloStep):
        # The reflective exchange derives ghost layers from the interior:
        # a use (of the interior) and a def (of the ghosts) of each name.
        return [(f"halo({','.join(step.names)})", step.names, step.names)]
    return []


def plan_events(plan: Plan) -> list[tuple[str, int, str, tuple, tuple]]:
    """The (plan, step, label, uses, defs) rows of one plan's raw steps."""
    rows = []
    for idx, step in enumerate(plan.steps):
        for label, uses, defs in _step_dataflow(step):
            rows.append((plan.name, idx, label, uses, defs))
    return rows


def plan_live_in(plan: Plan) -> frozenset[str]:
    """Fields ``plan`` reads before (re)defining them."""
    live_in: set[str] = set()
    seen: set[str] = set()
    for _, _, _, uses, defs in plan_events(plan):
        live_in.update(u for u in uses if u not in seen)
        seen.update(defs)
    return frozenset(live_in)


@dataclass(frozen=True)
class FieldLiveness:
    """Per-field live ranges and the poison release schedule of a solve cycle.

    Computed over a canonical timeline (prologue, solver fragments with
    loop bodies unrolled twice, epilogue, observe) that repeats every
    timestep, so liveness wraps around: the exit live set is the
    timeline's own use-before-def set.
    """

    events: tuple[LiveEvent, ...]
    #: Values that must survive at each event: live-in ∪ defs (same-event
    #: use/def conflict by construction — stencil sweeps interleave).
    live: tuple[frozenset[str], ...]
    #: Fields read by the cycle before it redefines them (live across the
    #: timestep boundary; never poisoned).
    live_in: frozenset[str]
    #: WORK-role fields every cycle fully re-derives before reading them:
    #: dead at step entry, in allocation order.
    dead_at_entry: tuple[str, ...]
    #: plan name -> fields safely poisonable when that plan completes.
    releases: dict[str, tuple[str, ...]]

    def segments(self, name: str) -> list[tuple[int, int]]:
        """Maximal [start, end] event-index runs where ``name`` is live."""
        out: list[tuple[int, int]] = []
        for i, p in enumerate(self.live):
            if name in p:
                if out and out[-1][1] == i - 1:
                    out[-1] = (out[-1][0], i)
                else:
                    out.append((i, i))
        return out


def compute_liveness(timeline: Sequence[Plan]) -> FieldLiveness:
    """Live ranges + poison releases for a canonical cyclic plan timeline.

    ``timeline`` is the ordered plan sequence of one timestep with loop
    bodies repeated twice — the second unroll gives every loop position a
    successor iteration, so loop-carried fields (``p`` across CG
    iterations, ``sd`` across Chebyshev iterations) stay live across the
    back edge exactly as they do mid-loop.
    """
    rows: list[tuple[str, int, str, tuple, tuple]] = []
    for plan in timeline:
        rows.extend(plan_events(plan))
    rows.append(("<observe>", 0, "field_summary/output", _OBSERVE_USES, ()))
    events = tuple(
        LiveEvent(i, p, s, label, uses, defs)
        for i, (p, s, label, uses, defs) in enumerate(rows)
    )

    # Cycle-carried fields: read before any def in a forward scan.
    live_in: set[str] = set()
    seen: set[str] = set()
    for ev in events:
        live_in.update(u for u in ev.uses if u not in seen)
        seen.update(ev.defs)

    # Backward pass: the timeline repeats, so its exit live set is its
    # own entry live set.
    live_sets: list[frozenset[str]] = [frozenset()] * len(events)
    live = set(live_in)
    for ev in reversed(events):
        point = (live | set(ev.defs)) | set(ev.uses)
        live_sets[ev.index] = frozenset(point)
        live -= set(ev.defs)
        live |= set(ev.uses)

    dead_at_entry = tuple(
        n
        for n in F.FIELD_ORDER
        if F.role(n) is F.FieldRole.WORK and n not in live_in
    )

    # Self-contained fields: every plan that uses them defines them
    # first, so their value never crosses a plan boundary and a poison
    # after any touching plan is unobservable regardless of control flow.
    all_live_in: set[str] = set(_OBSERVE_USES)
    for plan in timeline:
        all_live_in |= plan_live_in(plan)
    self_contained = [n for n in dead_at_entry if n not in all_live_in]

    releases: dict[str, tuple[str, ...]] = {}
    for plan in timeline:
        plan_touched = {
            n for _, _, _, uses, defs in plan_events(plan) for n in uses + defs
        }
        dead = tuple(n for n in self_contained if n in plan_touched)
        if dead:
            releases[plan.name] = dead

    return FieldLiveness(
        events=events,
        live=tuple(live_sets),
        live_in=frozenset(live_in),
        dead_at_entry=dead_at_entry,
        releases=releases,
    )


# --------------------------------------------------------------------- #
# exposed communication accounting
# --------------------------------------------------------------------- #
#: Simulated network bandwidth for halo traffic (bytes per millisecond).
NET_BANDWIDTH_B_PER_MS = 20e6  # 20 GB/s
#: Simulated per-message latency (milliseconds).
NET_LATENCY_MS = 0.001


def comm_cost_ms(nbytes: int, messages: int) -> float:
    """Modelled wire time for one exchange (latency + bandwidth terms)."""
    return messages * NET_LATENCY_MS + nbytes / NET_BANDWIDTH_B_PER_MS


class CommStats:
    """Deterministic communication ledger for one run.

    Every exchange is synchronous, so its whole modelled wire time
    (:func:`comm_cost_ms` of the port's declared
    :meth:`~repro.models.base.Port.halo_wire_traffic`) is exposed.  No
    wall clock is consulted: the ledger is a pure function of the plan
    and the decomposition, and replays identically run over run.
    Aggregated per *site* — one entry per (plan, exchanged fields,
    depth) — rather than per execution, so a 10k-iteration run stays
    bounded while still showing exactly which plan step pays which cost.
    """

    __slots__ = ("comm_ms", "exposed_ms", "halo_steps", "sites")

    def __init__(self) -> None:
        self.comm_ms = 0.0
        self.exposed_ms = 0.0
        self.halo_steps = 0
        self.sites: dict[tuple, dict] = {}

    def record_halo(
        self, plan: str, names: tuple, depth: int, comm_ms: float
    ) -> None:
        self.halo_steps += 1
        self.comm_ms += comm_ms
        self.exposed_ms += comm_ms
        key = (plan, names, depth)
        site = self.sites.get(key)
        if site is None:
            site = self.sites[key] = {
                "plan": plan,
                "fields": list(names),
                "depth": depth,
                "count": 0,
                "comm_ms": 0.0,
                "exposed_ms": 0.0,
            }
        site["count"] += 1
        site["comm_ms"] += comm_ms
        site["exposed_ms"] += comm_ms

    def as_dict(self) -> dict:
        return {
            "comm_ms": self.comm_ms,
            "exposed_ms": self.exposed_ms,
            "halo_steps": self.halo_steps,
            "sites": [
                self.sites[key] for key in sorted(self.sites, key=repr)
            ],
        }


# --------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------- #
class PlanExecutor:
    """Replays compiled plans against one port.

    Interpreted, every :class:`KernelCall` goes through the port's
    *public* kernel method — preserving the per-model trace structure and
    any wrapper a harness has installed (lockstep comparison).  Compiled
    (``codegen``), lowered steps run through ``port.dispatch_compiled``.
    Fusion exists only there: ``fuse`` is granted on a port that both
    fuses and compiles, and it turns ``codegen`` on.

    With a resilience manager attached the executor compiles the
    *instrumented* plan variant (fault triggers + scalar guards at fusion
    boundaries) and journals every step's write set and scalar output
    into the manager — feeding incremental checkpoints and scalar-state
    capture.  Without one, the disabled path pays exactly nothing.

    A flag a port cannot honour (``fuse`` on a port without fused
    dispatch or without codegen, ``codegen`` on a decomposed port) is not
    silently dropped: the degradation is recorded in :attr:`fallbacks` so
    the driver can warn and the run report can show it.
    """

    def __init__(
        self,
        port: Any,
        fuse: bool = False,
        resilience: Any = None,
        codegen: bool = False,
    ) -> None:
        self.port = port
        self.resilience = resilience
        #: Requested-but-unsupported flag degradations, in request order.
        self.fallbacks: list[str] = []
        fuses = getattr(port, "supports_fusion", False)
        compiles = getattr(port, "supports_codegen", False)
        self.fuse = bool(fuse) and fuses and compiles
        if fuse and not fuses:
            self.fallbacks.append(
                f"fuse requested but port "
                f"'{getattr(port, 'model_name', '?')}' does not support it "
                f"(supports_fusion=False); running unfused kernels"
            )
        elif fuse and not self.fuse:
            self.fallbacks.append(
                f"fuse requested but port "
                f"'{getattr(port, 'model_name', '?')}' cannot compile its "
                f"fused groups (supports_codegen=False); running unfused kernels"
            )
        self.codegen = (bool(codegen) or self.fuse) and compiles
        if codegen and not self.codegen:
            self.fallbacks.append(
                f"codegen requested but port "
                f"'{getattr(port, 'model_name', '?')}' does not support it "
                f"(supports_codegen=False); running interpreted kernels"
            )
        #: Deterministic communication ledger for this executor's runs
        #: (surfaced as ``RunResult.comm``).
        self.comm = CommStats()
        #: Per-(names, depth) modelled wire cost, so per-step accounting
        #: is a dict lookup instead of a decomposition walk.
        self._halo_costs: dict[tuple, float] = {}
        #: Debug poison schedule: plan name -> fields NaN-filled when that
        #: plan completes (the liveness pass's
        #: :attr:`FieldLiveness.releases`).  Empty costs one lookup.
        self.poison_after: dict[str, tuple[str, ...]] = {}
        #: Fields NaN-filled right after each ``begin_solve`` barrier (the
        #: liveness pass's :attr:`FieldLiveness.dead_at_entry`): inside
        #: the step's data region, so the fill reaches the arrays its
        #: kernels read.
        self.poison_at_entry: tuple[str, ...] = ()

    def poison(self, names: Sequence[str]) -> None:
        """NaN-fill ``names`` in the device arrays of every chunk.

        Used at a field's death point: any later read before the next
        definition surfaces as a non-finite guard failure instead of a
        silently stale value.  The arrays are those the kernels use on
        each of ``port.chunks()`` (the port itself, or the
        chunk ports of a decomposed one).  The host mirrors of the
        poisoned fields are dropped, exactly as for a checkpoint restore.
        """
        for chunk in self.port.chunks():
            for name in names:
                chunk._device_array(name).fill(math.nan)
        self.port.invalidate_residency(names)

    def _halo_cost(self, names: tuple, depth: int) -> float:
        key = (names, depth)
        cost = self._halo_costs.get(key)
        if cost is None:
            traffic = getattr(self.port, "halo_wire_traffic", None)
            nbytes, messages = traffic(names, depth) if traffic else (0, 0)
            cost = comm_cost_ms(nbytes, messages)
            self._halo_costs[key] = cost
        return cost

    def run(
        self, plan: Plan, env: dict[str, float] | None = None
    ) -> dict[str, float]:
        """Execute ``plan``; returns the scalar environment."""
        port = self.port
        m = self.resilience
        env = {} if env is None else env
        for step in plan.compiled(self.fuse, m is not None, self.codegen):
            if isinstance(step, CompiledKernel):
                # Late-bound scalars are the only per-execution variation;
                # plans without them replay the pre-resolved arg vectors.
                if step.has_binds:
                    argv = tuple(
                        self._resolve(c.args, env) for c in step.calls
                    )
                else:
                    argv = step.argv
                results = port.dispatch_compiled(step, argv)
                if step.halo is not None:
                    self._record_halo(plan.name, step.halo)
                for call, value in zip(step.calls, results):
                    self._store(call, value, env)
                if m is not None:
                    for call, args in zip(step.calls, argv):
                        m.note_writes(call.spec.written(args))
            elif isinstance(step, KernelCall):
                args = self._resolve(step.args, env)
                value = getattr(port, step.op)(*args)
                self._store(step, value, env)
                if m is not None:
                    m.note_writes(step.spec.written(args))
            elif isinstance(step, HaloStep):
                port.update_halo(step.names, depth=step.depth)
                self._record_halo(plan.name, step)
            elif isinstance(step, ScalarStep):
                value = step.fn(env)
                if step.finite:
                    value = check_finite(step.out, value)
                env[step.out] = value
                if m is not None:
                    m.note_scalar(step.out, value)
            elif isinstance(step, BarrierStep):
                getattr(port, step.method)()
                if step.method == "begin_solve" and self.poison_at_entry:
                    # Every such field is def-before-use within a step, so
                    # a NaN floor here can only surface stale-read bugs.
                    self.poison(self.poison_at_entry)
            elif isinstance(step, FaultStep):
                if m is not None:
                    for op in step.ops:
                        m.kernel_call(op)
            elif isinstance(step, GuardStep):
                if m is not None:
                    if step.guard is not None:
                        m.guard_scalar(step.label, env[step.guard])
                    if step.observe is not None:
                        m.observe_residual(env[step.observe])
                    if step.tick:
                        m.iteration_complete(port)
            else:  # pragma: no cover - plans are built from known steps
                raise TypeError(f"unknown plan step {step!r}")
        dead = self.poison_after.get(plan.name)
        if dead:
            self.poison(dead)
        return env

    def _record_halo(self, plan_name: str, halo: HaloStep) -> None:
        """Ledger and journal entries of one exchange, standalone or prefix."""
        self.comm.record_halo(
            plan_name,
            halo.names,
            halo.depth,
            self._halo_cost(halo.names, halo.depth),
        )
        if self.resilience is not None:
            self.resilience.note_writes(halo.names)

    @staticmethod
    def _resolve(args: tuple[Any, ...], env: Mapping[str, float]) -> tuple[Any, ...]:
        return tuple(env[a.key] if isinstance(a, Bind) else a for a in args)

    def _store(self, call: KernelCall, value: Any, env: dict[str, float]) -> None:
        if call.out is None:
            return
        if call.finite:
            value = check_finite(call.out, value)
        env[call.out] = value
        if self.resilience is not None:
            self.resilience.note_scalar(call.out, value)


def executor_for(port: Any) -> PlanExecutor:
    """The executor attached to ``port``, or a fusion-off fallback.

    The driver configures and attaches one as ``port.plan_executor``;
    solver code driving a bare port (unit tests, harnesses) gets default
    semantics — every call through the public kernel methods, unfused.

    The attached executor is only honoured when it drives *this exact
    object*: a delegating proxy (the lockstep harness) inherits
    ``plan_executor`` from the port it wraps, and reusing that executor
    would dispatch straight to the inner port, silently bypassing the
    proxy's interception.
    """
    ex = getattr(port, "plan_executor", None)
    if ex is not None and ex.port is port:
        return ex
    return PlanExecutor(port)
