"""Outside-in layer tracing for the benchmark.

The program has no timers of its own at its layer boundaries, so the
benchmark wraps the entry points of each layer from the outside: every
call into a wrapped function opens a span (layer, name, start, end,
parent) on a per-thread stack.  A layer's *self time* is its span's
duration minus the time covered by child spans, so nested layers are
never counted twice and the layer self times of one thread add up to
its wall time.

Targets that a later version of the program renames or deletes are
skipped, and the layer then reports zero; nothing here changes what the
program computes.

Layers, outermost first (module names in brackets):

========== ==============================================================
build      deck -> ready port: ``TeaLeaf.__init__`` [core.driver]
timestep   the timestep loop: ``TeaLeaf.run`` [core.driver]
solver     solver control flow: every ``Solver.solve`` [core.solvers]
executor   plan interpretation: ``PlanExecutor.run`` [models.plan]
kernel     kernel bodies, interpreted ``_k_*`` primitives or generated
           functions: ``Port.dispatch*``, ``execute_overlap``, batched
           sweeps [models.base, models.codegen, models.overlap, core.batch]
reduction  the deterministic sum tree and rank allreduce
           [models.reduction, models.cuda.reduction, comm.communicator]
trace      trace events and residency bookkeeping [models.tracing,
           ``Port._launch`` / ``_mark_dirty`` / mirrors]
halo       halo exchange: ``update_halo`` / ``halo_begin`` / ``halo_wait``
           [models.base, comm.multichunk]
batch      the batch rendezvous: ``BatchConductor.submit`` [core.batch]
checkpoint checkpoint capture and restore [resilience.checkpoint]
resilience per-step resilience bookkeeping [resilience.recovery]
========== ==============================================================
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = (
    "build",
    "timestep",
    "solver",
    "executor",
    "kernel",
    "reduction",
    "trace",
    "halo",
    "batch",
    "checkpoint",
    "resilience",
)


def _calls_ops(calls: Any) -> str:
    return "+".join(c.op for c in calls)


#: Per-op keys of kernel spans, by wrapped function name: which operations
#: the span executed, read from its arguments.
_OP_KEYS: dict[str, Callable[[tuple], str]] = {
    "dispatch": lambda a: a[1].op,
    "dispatch_fused": lambda a: _calls_ops(a[1]),
    "dispatch_compiled": lambda a: _calls_ops(a[1].calls),
    "execute_overlap": lambda a: _calls_ops(a[1].calls),
    "_sweep": lambda a: _calls_ops(a[0]._waiting[a[1][0]][1].calls),
    "update_halo": lambda a: "halo",
    "halo_begin": lambda a: "halo",
    "halo_wait": lambda a: "halo",
}

#: (module, class or None, attribute names, layer).  A class target also
#: wraps every subclass that overrides the attribute.
TARGETS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.core.driver", "TeaLeaf", ("__init__",), "build"),
    ("repro.core.driver", "TeaLeaf", ("run",), "timestep"),
    ("repro.core.solvers.base", "Solver", ("solve",), "solver"),
    ("repro.models.plan", "PlanExecutor", ("run",), "executor"),
    (
        "repro.models.base",
        "Port",
        ("dispatch", "dispatch_fused", "dispatch_compiled"),
        "kernel",
    ),
    ("repro.models.overlap", None, ("execute_overlap",), "kernel"),
    ("repro.core.batch", "BatchConductor", ("_sweep",), "kernel"),
    (
        "repro.models.reduction",
        None,
        (
            "deterministic_sum",
            "deterministic_dot",
            "deterministic_multi_sum",
            "chunk_partials",
            "combine_partials",
            "_tree_fold",
        ),
        "reduction",
    ),
    ("repro.models.cuda.reduction", None, ("block_reduce_sum",), "reduction"),
    ("repro.models.codegen", "CodegenContext", ("reduce",), "reduction"),
    ("repro.core.batch", "BatchContext", ("reduce",), "reduction"),
    ("repro.comm.communicator", "Communicator", ("allreduce_sum",), "reduction"),
    (
        "repro.models.tracing",
        "Trace",
        ("kernel", "transfer", "reduction_pass", "region"),
        "trace",
    ),
    (
        "repro.models.base",
        "Port",
        (
            "_launch",
            "_transfer",
            "_mark_dirty",
            "_mirror_clean",
            "_mirror_store",
            "invalidate_residency",
        ),
        "trace",
    ),
    ("repro.models.base", "Port", ("update_halo", "halo_begin", "halo_wait"), "halo"),
    ("repro.core.batch", "BatchConductor", ("submit", "lane_done"), "batch"),
    (
        "repro.resilience.checkpoint",
        "CheckpointManager",
        ("capture_anchor", "capture_periodic", "restore"),
        "checkpoint",
    ),
    (
        "repro.resilience.recovery",
        "ResilienceManager",
        (
            "kernel_call",
            "note_writes",
            "note_scalar",
            "guard_scalar",
            "observe_residual",
            "iteration_complete",
            "begin_solve",
            "validate_solution",
            "abft_check",
        ),
        "resilience",
    ),
)

#: Modules imported before patching so every Port subclass is known.
_PRELOAD = ("repro.models", "repro.comm.multichunk", "repro.resilience")


class _ThreadStats:
    """One thread's span stack and accumulators (no cross-thread writes)."""

    __slots__ = ("stack", "self_s", "calls", "op_s", "op_bytes", "kernel_bytes")

    def __init__(self) -> None:
        #: Open spans: [child seconds, span id, kernel bytes at entry, op].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.op_s: dict[str, float] = defaultdict(float)
        self.op_bytes: dict[str, int] = defaultdict(int)
        #: Running total of trace kernel-event bytes recorded by this thread.
        self.kernel_bytes = 0


class LayerTracer:
    """Wraps layer entry points and accumulates per-layer self time.

    Counters live per thread (batched runs solve lanes in threads), and
    :meth:`totals` sums them.  With :attr:`recording` set, every closed
    span is also kept in :attr:`spans` for the timeline export; all spans
    of one request carry :attr:`request` as their identifier.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.recording = False
        self.request = 0
        self.spans: list[tuple] = []
        self.wrapped: list[str] = []

    # ------------------------------------------------------------------ #
    def _stats(self) -> _ThreadStats:
        st = getattr(self._tls, "stats", None)
        if st is None:
            st = _ThreadStats()
            self._tls.stats = st
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, layer: str, label: str, fn: Callable, key: str) -> Callable:
        tracer = self
        perf = time.perf_counter
        op_key = _OP_KEYS.get(key)
        counts_bytes = layer == "trace" and key == "kernel"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = tracer._stats()
            stack = st.stack
            parent = stack[-1] if stack else None
            op = None
            if op_key is not None:
                try:
                    op = op_key(args)
                except (AttributeError, IndexError, KeyError, TypeError):
                    op = "?"
            frame = [
                0.0,
                next(tracer._ids) if tracer.recording else 0,
                st.kernel_bytes,
                op,
            ]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span = t1 - t0
                st.self_s[layer] += span - frame[0]
                st.calls[layer] += 1
                if parent is not None:
                    parent[0] += span
                if counts_bytes:
                    st.kernel_bytes += kwargs.get(
                        "bytes_moved", args[2] if len(args) > 2 else 0
                    )
                # An op span nested in a span of the same op (a halo_begin
                # that calls update_halo) is already inside the outer one.
                if op is not None and (parent is None or parent[3] != op):
                    st.op_s[op] += span
                    st.op_bytes[op] += st.kernel_bytes - frame[2]
                if tracer.recording:
                    tracer.spans.append(
                        (
                            frame[1],
                            parent[1] if parent is not None else 0,
                            layer,
                            label,
                            threading.get_ident(),
                            t0,
                            t1,
                            tracer.request,
                        )
                    )

        return wrapper

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target that exists in the loaded program."""
        for name in _PRELOAD:
            _try_import(name)
        for module_name, class_name, attrs, layer in TARGETS:
            module = _try_import(module_name)
            if module is None:
                continue
            if class_name is None:
                for attr in attrs:
                    self._patch_function(module, attr, layer)
                continue
            cls = getattr(module, class_name, None)
            if cls is None:
                continue
            for klass in (cls, *_subclasses(cls)):
                for attr in attrs:
                    self._patch_method(klass, attr, layer)

    def _patch_method(self, klass: type, attr: str, layer: str) -> None:
        fn = vars(klass).get(attr)
        if not callable(fn) or isinstance(fn, (staticmethod, classmethod, type)):
            return
        if getattr(fn, "__isabstractmethod__", False):
            return
        label = f"{klass.__name__}.{attr}"
        setattr(klass, attr, self._wrap(layer, label, fn, attr))
        self.wrapped.append(label)

    def _patch_function(self, module: Any, attr: str, layer: str) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            return
        wrapped = self._wrap(layer, f"{module.__name__}.{attr}", fn, attr)
        # Rebind every module-level reference, so `from x import f`
        # callers go through the wrapper too.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapped)
        self.wrapped.append(f"{module.__name__}.{attr}")

    # ------------------------------------------------------------------ #
    def totals(self) -> dict[str, dict]:
        """Summed counters of every thread seen so far."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        op_s: dict[str, float] = defaultdict(float)
        op_bytes: dict[str, int] = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for k, v in st.self_s.items():
                self_s[k] += v
            for k, v in st.calls.items():
                calls[k] += v
            for k, v in st.op_s.items():
                op_s[k] += v
            for k, v in st.op_bytes.items():
                op_bytes[k] += v
        return {"self_s": self_s, "calls": calls, "op_s": op_s, "op_bytes": op_bytes}

    def write_timeline(self, path: Path) -> None:
        """Write the recorded spans as Chrome trace-event JSON.

        The file opens in Perfetto or ``chrome://tracing``; each event
        carries its span id, its parent's id and the request id.
        """
        if not self.spans:
            return
        origin = min(s[5] for s in self.spans)
        events = [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (t0 - origin) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, parent, layer, label, tid, t0, t1, request in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def diff(after: dict[str, dict], before: dict[str, dict]) -> dict[str, dict]:
    """Counter deltas between two :meth:`LayerTracer.totals` snapshots."""
    return {
        group: {k: v - before[group].get(k, 0) for k, v in values.items()}
        for group, values in after.items()
    }


def _try_import(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        klass = todo.pop()
        if klass not in out:
            out.append(klass)
            todo.extend(klass.__subclasses__())
    return out
