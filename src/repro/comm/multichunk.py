"""MultiChunkPort: a decomposed ensemble of ports behind the Port interface.

This is the simulated MPI+X layer: the global mesh is block-decomposed,
each rank owns an ordinary programming-model port on its chunk, halos move
through the :class:`~repro.comm.communicator.Communicator`, and global
reductions are completed with allreduce.  The TeaLeaf solvers drive a
MultiChunkPort exactly as they drive a single-chunk port — inter-node
communication is invisible to the node-level programming model, which is
precisely the division of labour the paper describes (§3).

Coefficient fix-up: single-chunk ports realise the zero-flux wall by
zeroing boundary-face coefficients, but a chunk edge with a neighbour is
*not* a wall — after each ``tea_leaf_init`` the port recomputes the face
coefficients on internal edges from the exchanged density halos, restoring
the exact global operator (conservation tests verify this to the last
bit of the solver tolerance).

Exchange schedule: which chunk sends which edge strip to which neighbour
under which tag, and which ghost strip each message fills or which
physical side is reflected, depends only on the decomposition and the
halo depth.  Each axis's schedule is built once per (decomposition,
depth), as OP2 builds its halo import/export lists once at partitioning,
and every exchange walks it.

Rank-level fault tolerance: chunks are *logical* — ``rank_of_chunk`` maps
each chunk to the physical communicator rank currently computing it, so a
spare rank can adopt a dead rank's chunk without renumbering neighbours.
Every exchange starts with a liveness check (``RankFailureError`` instead
of a deadlock when a peer is dead), a straggler timeout drains and retries
the exchange once, and buddy checkpointing / spare-or-shrink recovery is
delegated to :class:`~repro.resilience.ranks.RankRecovery`.  The schedule
names logical chunks, so only a shrink's re-decomposition rebuilds it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.decomposition import ChunkWindow, decompose
from repro.comm.halo import Side, edge_slices, reflect_side
from repro.core import fields as F
from repro.core.chunk import Chunk
from repro.core.grid import Grid2D
from repro.models.base import Port, make_port
from repro.models.plan import KernelCall
from repro.models.tracing import Trace
from repro.util.errors import CommTimeoutError, ModelError, RankFailureError
from repro.util.retry import RetryPolicy, call_with_retries
from repro.util.units import DOUBLE

#: Message tags: (axis, direction) -> tag base; field index is added.
_TAGS = {
    (Side.LEFT): 100,
    (Side.RIGHT): 200,
    (Side.DOWN): 300,
    (Side.UP): 400,
}

_FIELD_TAG = {name: i for i, name in enumerate(F.FIELD_ORDER)}

#: The two exchange axes, x first, each as its (lo, hi) sides.
_AXES = ((Side.LEFT, Side.RIGHT), (Side.DOWN, Side.UP))


class _Send(NamedTuple):
    """One message: ``chunk`` packs its ``edge`` strip for ``nbr``.

    ``tag`` is the sending side's tag base; the field's index is added.
    """

    chunk: int
    nbr: int
    tag: int
    edge: tuple[slice, slice]
    cells: int


class _Recv(NamedTuple):
    """One side of ``chunk``: a neighbour's message, or a wall.

    With a neighbour, the ``ghost`` strip, of shape ``strip``, is filled
    from the message ``nbr`` sent under ``tag``, the opposite side's tag
    base.  Without one (``nbr`` is None) the physical ``side`` is
    reflected.
    """

    chunk: int
    nbr: int | None
    tag: int
    ghost: tuple[slice, slice] | None
    strip: tuple[int, int] | None
    side: Side
    cells: int


class MultiChunkPort(Port):
    """A rank-per-chunk ensemble presenting the single-port interface."""

    #: Fields live per-chunk behind the rank boundary; there is no single
    #: device array for a compiled body to write, so codegen is refused.
    #: The executor falls back to interpreted dispatch, records the
    #: fallback in ``RunResult.fallbacks`` and warns on stderr.
    supports_codegen = False

    def __init__(
        self,
        grid: Grid2D,
        nranks: int,
        model: str | list[str] = "openmp-f90",
        trace: Trace | None = None,
        rank_policy: str = "none",
        spare_ranks: int = 0,
    ) -> None:
        super().__init__(grid, trace)
        if spare_ranks < 0:
            raise ModelError(f"spare rank count must be >= 0, got {spare_ranks}")
        self.windows: list[ChunkWindow] = decompose(grid.nx, grid.ny, nranks)
        #: Logical chunk count; physical world is nranks + spares.
        self.nchunks = nranks
        self.world = Communicator(nranks + spare_ranks)
        #: chunk id -> physical communicator rank (identity until a spare
        #: adopts a dead rank's chunk).
        self.rank_of_chunk = list(range(nranks))
        self.spare_pool = list(range(nranks, nranks + spare_ranks))
        self.subgrids = [
            grid.subgrid(w.x0, w.x1, w.y0, w.y1) for w in self.windows
        ]
        # Heterogeneous compute (the paper's §8 future-work item): each
        # rank may run a different programming-model port — e.g. CUDA
        # chunks next to OpenMP chunks — because the exchange and reduction
        # protocol only touches the Port interface.
        if isinstance(model, str):
            models = [model] * nranks
        else:
            models = list(model)
            if len(models) != nranks:
                raise ModelError(
                    f"{len(models)} models given for {nranks} ranks"
                )
        self.models = models
        self.model_name = (
            f"{models[0]}+mpi({nranks})"
            if len(set(models)) == 1
            else f"heterogeneous({','.join(models)})"
        )
        self.ports: list[Port] = [
            make_port(m, sg, self.trace) for m, sg in zip(models, self.subgrids)
        ]
        self._dt = 0.0
        self._coefficient = "conductivity"
        #: Halo depth -> both axes' exchange schedules (:meth:`_schedule`).
        self._schedules: dict[int, tuple] = {}
        #: Optional resilience FaultPlan; when set, outgoing halo messages
        #: may be dropped, delayed or corrupted (see :meth:`attach_fault_plan`).
        self.fault_plan = None
        #: Optional ResilienceManager (for event records on retried
        #: exchanges); set by :meth:`attach_resilience`.
        self._manager = None
        #: Straggler-timeout retry schedule for halo exchanges (shared
        #: :mod:`repro.util.retry` implementation).  One immediate retry
        #: by default — the historical semantics: a straggler's message
        #: is already late, so the drained re-exchange needs no delay.
        self.halo_retry_policy = RetryPolicy(
            base_seconds=0.0, factor=2.0, jitter=0.0, max_retries=1
        )
        #: Injectable sleep for the (normally zero) halo backoff.
        self._sleep = None
        # Imported lazily: repro.resilience pulls in the solver stack,
        # which the comm layer must not depend on at import time.
        from repro.resilience.ranks import RankRecovery

        self.rank_policy = rank_policy
        self.recovery = RankRecovery(self, rank_policy, self.spare_pool)

    def attach_fault_plan(self, plan) -> None:
        """Let a resilience ``FaultPlan`` interpose on halo messages."""
        self.fault_plan = plan

    def attach_resilience(self, manager) -> None:
        """Wire a ResilienceManager in: fault plan + exchange event log."""
        self._manager = manager
        self.fault_plan = manager.plan

    # ------------------------------------------------------------------ #
    # residency (forwarded: the chunk ports own the device state)
    # ------------------------------------------------------------------ #
    def enable_residency_tracking(self, enabled: bool = True) -> None:
        super().enable_residency_tracking(enabled)
        for chunk_port in self.ports:
            chunk_port.enable_residency_tracking(enabled)

    def invalidate_residency(self, names) -> None:
        names = tuple(names)
        super().invalidate_residency(names)
        for chunk_port in self.ports:
            chunk_port.invalidate_residency(names)

    # ------------------------------------------------------------------ #
    # rank liveness and recovery
    # ------------------------------------------------------------------ #
    def chunk_alive(self, chunk: int) -> bool:
        return self.world.is_alive(self.rank_of_chunk[chunk])

    def dead_chunks(self) -> tuple[int, ...]:
        """Chunks whose current physical rank is fail-stop dead."""
        return tuple(
            c for c in range(self.nchunks) if not self.chunk_alive(c)
        )

    def _check_ranks(self) -> None:
        """Liveness probe before an exchange: fail fast, not deadlock."""
        dead = tuple(
            c
            for c in range(self.nchunks)
            if not self.world.ping(self.rank_of_chunk[c])
        )
        if dead:
            dead_ranks = tuple(self.rank_of_chunk[c] for c in dead)
            raise RankFailureError(
                f"halo exchange aborted: rank(s) "
                f"{', '.join(map(str, dead_ranks))} "
                f"(chunk(s) {', '.join(map(str, dead))}) are dead",
                dead_ranks=dead_ranks,
            )

    def kill_rank(self, chunk: int) -> int:
        """Fail-stop the physical rank computing ``chunk``; returns it."""
        rank = self.rank_of_chunk[chunk]
        self.world.kill(rank)
        return rank

    def capture_rank_checkpoints(self, iteration: int, step: int) -> int:
        """Buddy-checkpoint every chunk (no-op when rank_policy=none)."""
        return self.recovery.capture(iteration, step)

    def recover_ranks(self) -> list[str]:
        """Repair dead chunks per the configured policy; returns details."""
        return self.recovery.recover()

    def _rebuild(self, nchunks: int, models: list[str]) -> None:
        """Re-decompose over ``nchunks`` fresh ranks (shrink recovery)."""
        self.windows = decompose(self.grid.nx, self.grid.ny, nchunks)
        self.nchunks = nchunks
        self.world = Communicator(nchunks)
        self.rank_of_chunk = list(range(nchunks))
        self.spare_pool = []
        self.subgrids = [
            self.grid.subgrid(w.x0, w.x1, w.y0, w.y1) for w in self.windows
        ]
        self.models = models
        self.model_name = (
            f"{models[0]}+mpi({nchunks})"
            if len(set(models)) == 1
            else f"heterogeneous({','.join(models)})"
        )
        self.ports = [
            make_port(m, sg, self.trace)
            for m, sg in zip(models, self.subgrids)
        ]
        self._schedules = {}

    # ------------------------------------------------------------------ #
    # data interface
    # ------------------------------------------------------------------ #
    def _scatter(self, global_array: np.ndarray, window: ChunkWindow) -> np.ndarray:
        """Local (halo-inclusive) slice of a global array for one window."""
        h = self.h
        return global_array[
            window.y0 : window.y1 + 2 * h, window.x0 : window.x1 + 2 * h
        ].copy()

    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        if density.shape != self.grid.shape:
            raise ModelError(
                f"state shape {density.shape} != grid shape {self.grid.shape}"
            )
        for window, subgrid, port in zip(self.windows, self.subgrids, self.ports):
            chunk = Chunk(
                grid=subgrid,
                x0=window.x0,
                y0=window.y0,
                density=self._scatter(density, window),
                energy0=self._scatter(energy0, window),
            )
            port.set_state(chunk.density, chunk.energy0)

    def read_field(self, name: str) -> np.ndarray:
        out = self.grid.allocate()
        h = self.h
        for window, port in zip(self.windows, self.ports):
            local = port.read_field(name)
            out[h + window.y0 : h + window.y1, h + window.x0 : h + window.x1] = (
                local[h:-h, h:-h]
            )
        return out

    def write_field(self, name: str, values: np.ndarray) -> None:
        for window, port in zip(self.windows, self.ports):
            port.write_field(name, self._scatter(values, window))

    def _device_array(self, name: str) -> np.ndarray:
        raise ModelError("a decomposed port has no single device array")

    def chunks(self):
        return tuple(self.ports)

    def begin_solve(self) -> None:
        for port in self.ports:
            port.begin_solve()

    def end_solve(self) -> None:
        for port in self.ports:
            port.end_solve()

    # ------------------------------------------------------------------ #
    # halo exchange
    # ------------------------------------------------------------------ #
    def update_halo(self, names, depth: int) -> None:
        self._check_ranks()
        axes = self._schedule(depth)
        for name in names:
            for sends, recvs in axes:
                self._retry_exchange(
                    lambda name=name, sends=sends, recvs=recvs: (
                        self._exchange_axis(name, depth, sends, recvs)
                    ),
                    name,
                )

    def _schedule(self, depth: int) -> tuple:
        """Both axes' ``(sends, recvs)`` at ``depth``, built once."""
        axes = self._schedules.get(depth)
        if axes is None:
            axes = self._schedules[depth] = tuple(
                self._axis_schedule(depth, lo, hi) for lo, hi in _AXES
            )
        return axes

    def _axis_schedule(self, depth: int, lo: Side, hi: Side) -> tuple:
        """One axis's messages and sides, in exchange order.

        Sends go chunk by chunk, each chunk's lo side first; then each
        chunk receives, or reflects, its lo and then its hi side.
        """
        h = self.h
        sends: list[_Send] = []
        recvs: list[_Recv] = []
        for window, sg in zip(self.windows, self.subgrids):
            shape = sg.shape
            # x strips span all rows and y strips all columns (pack_edge).
            strip = (shape[0], depth) if lo is Side.LEFT else (depth, shape[1])
            cells = strip[0] * strip[1]
            for side in (lo, hi):
                nbr = self._neighbour(window, side)
                if nbr is not None:
                    edge = edge_slices(shape, h, depth, side, ghost=False)
                    sends.append(_Send(window.rank, nbr, _TAGS[side], edge, cells))
            for side, opposite in ((lo, hi), (hi, lo)):
                nbr = self._neighbour(window, side)
                if nbr is None:
                    wall = depth * max(shape)
                    recvs.append(_Recv(window.rank, None, 0, None, None, side, wall))
                else:
                    ghost = edge_slices(shape, h, depth, side, ghost=True)
                    recvs.append(
                        _Recv(window.rank, nbr, _TAGS[opposite], ghost, strip, side, cells)
                    )
        return tuple(sends), tuple(recvs)

    def _retry_exchange(self, fn, name: str) -> None:
        """Run one exchange leg under the straggler-timeout retry policy."""

        def repair(attempt: int, delay: float, exc: BaseException) -> None:
            # A dead peer is a rank failure (recovery needs a
            # policy); a straggler just needs the axis drained
            # and retried — re-packing is idempotent.
            self._check_ranks()
            dropped = self.world.drain()
            if self._manager is not None:
                self._manager.record(
                    "detect",
                    f"halo exchange of {name} timed out ({exc}); "
                    f"drained {int(dropped)} message(s) "
                    f"{dict(dropped.per_rank)}",
                )
                self._manager.record(
                    "retry",
                    f"halo exchange of {name} retrying after a "
                    f"straggler timeout (attempt {attempt}, "
                    f"backoff {delay:.3f}s)",
                    backoff_seconds=delay,
                )

        call_with_retries(
            fn,
            policy=self.halo_retry_policy,
            retry_on=CommTimeoutError,
            sleep=self._sleep,
            on_retry=repair,
        )

    def halo_wire_traffic(self, names, depth: int) -> tuple[int, int]:
        """Modelled (bytes, messages) for one exchange of ``names``.

        One message per internal chunk edge per field: the sends of the
        exchange schedule, each as many float64 as its strip has cells.
        """
        sends = [send for axis, _ in self._schedule(depth) for send in axis]
        n = len(tuple(names))
        return (sum(s.cells for s in sends) * DOUBLE * n, len(sends) * n)

    def _neighbour(self, window: ChunkWindow, side: Side) -> int | None:
        # Each Side's value names the ChunkWindow field holding that neighbour.
        return getattr(window, side.value)

    def _exchange_axis(self, name: str, depth: int, sends, recvs) -> None:
        """One axis of exchange: post all sends, then receive/unpack."""
        field_tag = _FIELD_TAG[name]
        ports, rank_of_chunk, world = self.ports, self.rank_of_chunk, self.world
        plan = self.fault_plan
        # Post sends (pack kernels).
        for chunk, nbr, tag, edge, cells in sends:
            port = ports[chunk]
            src = rank_of_chunk[chunk]
            dst = rank_of_chunk[nbr]
            tag += field_tag
            # flatten() always copies: a corrupt fault NaN-fills the
            # message in place and must never reach the sender's array.
            buffer = port._device_array(name)[edge].flatten()
            port._launch("halo_pack", cells=cells)
            if plan is not None:
                verdict = plan.halo_verdict(name, buffer)
                if verdict == "drop":
                    continue  # lost on the wire: receiver deadlocks
                if verdict == "delay":
                    # Straggler: the receive will miss its deadline.
                    world.post_late(src, dst, tag)
                    continue
            world.rank(src).Send(buffer, dest=dst, tag=tag)
        # Receive and unpack (or reflect at the physical boundary).
        for chunk, nbr, tag, ghost, strip, side, cells in recvs:
            port = ports[chunk]
            arr = port._device_array(name)
            if nbr is None:
                reflect_side(arr, self.h, depth, side)
                port._launch("halo_update", cells=cells)
            else:
                buffer = world.rank(rank_of_chunk[chunk]).Recv(
                    source=rank_of_chunk[nbr], tag=tag + field_tag
                )
                arr[ghost] = buffer.reshape(strip)
                port._launch("halo_unpack", cells=cells)

    # ------------------------------------------------------------------ #
    # kernels: run on every chunk, allreduce the reductions
    # ------------------------------------------------------------------ #
    def dispatch(self, call: KernelCall):
        """Run one operation on every chunk; allreduce its partials.

        ``tea_leaf_init`` first exchanges the densities its chunk-edge
        coefficients need, and afterwards recomputes the coefficients it
        zeroed as walls on internal edges.  A field summary's four
        components are reduced one by one.
        """
        if call.op == "tea_leaf_init":
            self._dt, self._coefficient = call.args
            self.update_halo((F.DENSITY, F.ENERGY1), depth=1)
        if not call.spec.reduction:
            for port in self.ports:
                port.dispatch(call)
            if call.op == "tea_leaf_init":
                self._fixup_internal_edges()
            return None
        self._check_ranks()
        partials = [port.dispatch(call) for port in self.ports]
        if call.op == "field_summary":
            return tuple(
                self.world.allreduce_sum(
                    [p[component] for p in partials], ranks=self.rank_of_chunk
                )
                for component in range(4)
            )
        return self.world.allreduce_sum(partials, ranks=self.rank_of_chunk)

    def _fixup_internal_edges(self) -> None:
        """Recompute face coefficients zeroed as 'walls' on internal edges."""
        h = self.h
        recip = self._coefficient == "recip_conductivity"
        for window, port, sg in zip(self.windows, self.ports, self.subgrids):
            rx = self._dt / (sg.dx * sg.dx)
            ry = self._dt / (sg.dy * sg.dy)
            density = port._device_array(F.DENSITY)
            w = 1.0 / density if recip else density
            kx = port._device_array(F.KX)
            ky = port._device_array(F.KY)
            rows = slice(h, h + sg.ny)
            cols = slice(h, h + sg.nx)
            if window.left is not None:
                wl, wc = w[rows, h - 1], w[rows, h]
                kx[rows, h] = rx * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.ny)
            if window.right is not None:
                wl, wc = w[rows, h + sg.nx - 1], w[rows, h + sg.nx]
                kx[rows, h + sg.nx] = rx * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.ny)
            if window.down is not None:
                wl, wc = w[h - 1, cols], w[h, cols]
                ky[h, cols] = ry * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.nx)
            if window.up is not None:
                wl, wc = w[h + sg.ny - 1, cols], w[h + sg.ny, cols]
                ky[h + sg.ny, cols] = ry * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.nx)
