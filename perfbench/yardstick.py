"""Machine-speed yardstick: a fixed workload timed next to every request.

The host this benchmark runs on switches between speed regimes that last
seconds to minutes: the same request takes anywhere from 1x to 1.8x its
quiet-machine time, and CPU time tracks wall time, so the slowdown is
the processor's, not the scheduler's.  Different kinds of code slow by
different amounts.

The yardstick is benchmark-owned code the program cannot change, in
three parts shaped like the program's own work: an interpreter-bound
loop like plan dispatch (objects, isinstance, dict lookups), a NumPy
stencil sweep over whole arrays of the workload's mesh (like generated
kernels), and the same sweep in eight-row chunks (like the interpreted
ports' loop-chunk primitives).  :meth:`Yardstick.factor` times all three
and returns how much slower than nominal the machine is right now,
weighting the parts by the workload's mix.  Dividing a request's wall
time by the mean factor measured just before and just after it gives its
time at nominal machine speed.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds each part takes on a quiet machine of the reference type
#: (Intel Xeon vCPU at 2.1 GHz, Python 3.11, NumPy 2.4), by mesh:
#: (dispatch loop, whole-array sweep, row-chunk sweep).
NOMINAL_S = {
    128: (3.84e-3, 3.97e-3, 3.93e-3),
    256: (3.83e-3, 4.06e-3, 3.88e-3),
}
DISPATCH_ROUNDS = 500
SWEEP_ROUNDS = {128: 75, 256: 22}
ROW_ROUNDS = {128: 36, 256: 13}
ROW_CHUNK = 8


class _Step:
    __slots__ = ("op", "args", "out")

    def __init__(self, op: str, args: tuple, out: str | None) -> None:
        self.op = op
        self.args = args
        self.out = out


class Yardstick:
    """Times the fixed workload; ``weights`` mix its three parts."""

    def __init__(self, mesh: int, weights: tuple[float, float, float]) -> None:
        n = mesh + 4
        rng = np.random.default_rng(0)
        self.a = rng.random((n, n))
        self.b = rng.random((n, n))
        self.c = np.zeros((n, n))
        self.mesh = mesh
        self.weights = weights
        self.steps = [
            _Step(f"op{i}", (i, "x", f"s{i - 1}"), f"s{i}" if i % 2 else None)
            for i in range(12)
        ]

    def _dispatch(self) -> None:
        env: dict[str, float] = {}
        for rnd in range(DISPATCH_ROUNDS):
            for step in self.steps:
                if isinstance(step, _Step):
                    args = tuple(
                        env.get(a, 0.0) if isinstance(a, str) else a
                        for a in step.args
                    )
                    if step.out is not None:
                        env[step.out] = float(len(args) + rnd)

    def _sweep(self) -> None:
        a, b, c = self.a, self.b, self.c
        for _ in range(SWEEP_ROUNDS[self.mesh]):
            c[2:-2, 2:-2] = a[2:-2, 2:-2] * 0.5 + b[1:-3, 2:-2] - b[3:-1, 2:-2]
            float(c[2:-2, 2:-2].sum())

    def _rows(self) -> None:
        a, b, c = self.a, self.b, self.c
        n = a.shape[0]
        for _ in range(ROW_ROUNDS[self.mesh]):
            for r0 in range(2, n - 2, ROW_CHUNK):
                rows = slice(r0, min(r0 + ROW_CHUNK, n - 2))
                c[rows, 2:-2] = a[rows, 2:-2] * 0.5 + b[rows, 1:-3]
                float(c[rows, 2:-2].sum())

    def times(self) -> tuple[float, float, float]:
        """Seconds each part takes right now."""
        out = []
        for part in (self._dispatch, self._sweep, self._rows):
            t0 = time.perf_counter()
            part()
            out.append(time.perf_counter() - t0)
        return tuple(out)

    def factor(self) -> float:
        """Weighted slowdown of the machine relative to nominal, now."""
        return sum(
            w * t / t0
            for w, t, t0 in zip(self.weights, self.times(), NOMINAL_S[self.mesh])
        )
