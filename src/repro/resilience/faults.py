"""Deterministic, seeded fault injection for the solve pipeline.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers, each of the
form ``kind:target:n``:

``nan:u:5``
    Write NaN into one seeded interior cell of field ``u`` at global
    solver iteration 5.
``bitflip:p:12``
    Flip one seeded high (exponent) bit of one seeded interior cell of
    field ``p`` at iteration 12 — a classic SDC (silent data corruption)
    model.
``raise:cg_calc_w:3``
    Make the third invocation of the ``cg_calc_w`` kernel raise
    :class:`~repro.util.errors.FaultInjectionError`, simulating a hard
    device failure mid-solve.
``drop:p:3``
    Drop the third halo-exchange *send* of field ``p`` in a decomposed
    (:class:`~repro.comm.multichunk.MultiChunkPort`) run; the paired
    receive then fails like an MPI timeout.
``corrupt:p:3``
    Deliver the third halo message of ``p`` with its payload overwritten
    by NaN.
``eigen:max:1``
    Scale the first Chebyshev/PPCG eigenvalue estimate's ``eigen_max``
    down by a seeded factor, so the Chebyshev interval no longer covers
    the spectrum and the semi-iteration diverges.
``kill:1:3``
    Fail-stop rank 1 at global solver iteration 3: the rank's mailbox is
    purged and every later exchange or collective involving it times out
    (:class:`~repro.util.errors.CommTimeoutError`).  Recovery needs a
    ``tl_rank_policy`` (see :mod:`repro.resilience.ranks`).
``delay:p:3``
    Make the third halo-exchange send of ``p`` a *straggler*: the paired
    receive misses its deadline and raises ``CommTimeoutError``, but the
    sender is alive, so a drained retry of the exchange succeeds.

Every random choice (cell index, bit position, scale factor) comes from a
``random.Random`` seeded per spec from the plan seed, so a plan replays
identically for a given seed — fault injection is fully deterministic.
Each spec fires exactly once; a retried solve does not re-hit a consumed
fault (the transient-fault model the recovery layer is built for).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core import fields as F
from repro.util.errors import FaultInjectionError

if TYPE_CHECKING:  # only for annotations; avoids a solver import at runtime
    from repro.core.solvers.eigenvalue import EigenEstimate

#: Recognised fault kinds and what their ``target`` names.
KINDS = {
    "nan": "field",
    "bitflip": "field",
    "raise": "kernel",
    "drop": "field",
    "corrupt": "field",
    "eigen": "eigen bound (min or max)",
    "kill": "rank",
    "delay": "field",
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault trigger: ``kind:target:at``."""

    kind: str
    target: str
    at: int

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ValueError(
                f"bad fault spec '{text}' (expected kind:target:n, "
                f"e.g. nan:u:5)"
            )
        kind, target, at_text = parts[0].lower(), parts[1].lower(), parts[2]
        if kind not in KINDS:
            raise ValueError(
                f"unknown fault kind '{kind}' "
                f"(expected one of {', '.join(sorted(KINDS))})"
            )
        try:
            at = int(at_text)
        except ValueError:
            raise ValueError(f"bad trigger count '{at_text}' in '{text}'") from None
        if at < 1:
            raise ValueError(f"trigger count must be >= 1 in '{text}'")
        if KINDS[kind] == "field" and not F.is_field(target):
            raise ValueError(
                f"'{target}' is not a TeaLeaf field (in fault spec '{text}')"
            )
        if kind == "eigen" and target not in ("min", "max"):
            raise ValueError(
                f"eigen fault target must be 'min' or 'max', got '{target}'"
            )
        if kind == "kill":
            if not target.isdigit():
                raise ValueError(
                    f"kill fault target must be a rank id, got '{target}'"
                )
        return cls(kind=kind, target=target, at=at)

    def render(self) -> str:
        return f"{self.kind}:{self.target}:{self.at}"


def parse_injections(text: str | Iterable[str]) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated spec string (or iterable of specs)."""
    if isinstance(text, str):
        parts = [p for p in text.split(",") if p.strip()]
    else:
        parts = [p for p in text if p.strip()]
    return tuple(FaultSpec.parse(p) for p in parts)


class FaultPlan:
    """Tracks trigger counters and fires each spec exactly once."""

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        seed: int = 1234,
        on_fire: Callable[[FaultSpec, str], None] | None = None,
    ) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        #: Called with (spec, detail) the moment a fault fires.
        self.on_fire = on_fire
        self._fired = [False] * len(self.specs)
        self._kernel_calls: Counter[str] = Counter()
        self._halo_sends: Counter[str] = Counter()
        self._eigen_estimates = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def fired_count(self) -> int:
        return sum(self._fired)

    def _rng(self, index: int) -> random.Random:
        # One independent, reproducible stream per spec.
        return random.Random((self.seed + 1) * 0x9E3779B1 + index)

    def _fire(self, index: int, detail: str) -> None:
        self._fired[index] = True
        if self.on_fire is not None:
            self.on_fire(self.specs[index], detail)

    def _due(self, kind: str, count_by: Callable[[FaultSpec], bool]):
        for i, spec in enumerate(self.specs):
            if spec.kind == kind and not self._fired[i] and count_by(spec):
                yield i, spec

    # ------------------------------------------------------------------ #
    # trigger points
    # ------------------------------------------------------------------ #
    def field_faults_due(self, iteration: int) -> list[tuple[int, FaultSpec]]:
        """nan/bitflip specs whose trigger iteration has been reached."""
        due = []
        for i, spec in enumerate(self.specs):
            if (
                spec.kind in ("nan", "bitflip")
                and not self._fired[i]
                and iteration >= spec.at
            ):
                due.append((i, spec))
        return due

    def apply_field_fault(
        self, index: int, arr: np.ndarray, halo: int
    ) -> str:
        """Corrupt one seeded interior cell of ``arr`` in place."""
        spec = self.specs[index]
        rng = self._rng(index)
        i = rng.randrange(halo, arr.shape[0] - halo)
        j = rng.randrange(halo, arr.shape[1] - halo)
        if spec.kind == "nan":
            arr[i, j] = np.nan
            detail = f"NaN written to {spec.target}[{i},{j}]"
        else:  # bitflip in the exponent, so the upset is large and visible
            raw = np.array([arr[i, j]], dtype=np.float64).view(np.uint64)
            bit = rng.randrange(52, 63)
            raw ^= np.uint64(1) << np.uint64(bit)
            arr[i, j] = raw.view(np.float64)[0]
            detail = f"bit {bit} flipped in {spec.target}[{i},{j}]"
        self._fire(index, detail)
        return detail

    def kernel_called(self, name: str) -> None:
        """Count a kernel invocation; raise if a ``raise`` spec is due."""
        self._kernel_calls[name] += 1
        calls = self._kernel_calls[name]
        for i, spec in self._due("raise", lambda s: s.target == name):
            if calls >= spec.at:
                detail = f"kernel {name} forced to fail on call {calls}"
                self._fire(i, detail)
                raise FaultInjectionError(f"injected fault: {detail}")

    def rank_kills_due(self, iteration: int) -> list[tuple[int, FaultSpec]]:
        """kill specs whose trigger iteration has been reached."""
        due = []
        for i, spec in enumerate(self.specs):
            if (
                spec.kind == "kill"
                and not self._fired[i]
                and iteration >= spec.at
            ):
                due.append((i, spec))
        return due

    def apply_rank_kill(self, index: int) -> tuple[int, str]:
        """Fire a kill spec; returns (rank, detail)."""
        spec = self.specs[index]
        rank = int(spec.target)
        detail = f"rank {rank} fail-stopped at iteration trigger {spec.at}"
        self._fire(index, detail)
        return rank, detail

    def halo_verdict(self, field_name: str, buffer: np.ndarray) -> str:
        """Count a halo send; returns 'deliver', 'drop' or 'delay'.

        This is the single counter for all message-level fault kinds: a
        ``drop`` spec loses the message outright (receiver deadlocks), a
        ``delay`` spec turns it into a straggler (receiver times out but a
        retry succeeds), and a ``corrupt`` spec delivers it NaN-filled.
        """
        self._halo_sends[field_name] += 1
        sends = self._halo_sends[field_name]
        for i, spec in self._due("drop", lambda s: s.target == field_name):
            if sends >= spec.at:
                self._fire(i, f"halo message {sends} of {field_name} dropped")
                return "drop"
        for i, spec in self._due("delay", lambda s: s.target == field_name):
            if sends >= spec.at:
                self._fire(
                    i,
                    f"halo message {sends} of {field_name} delayed past "
                    "the receive deadline",
                )
                return "delay"
        for i, spec in self._due("corrupt", lambda s: s.target == field_name):
            if sends >= spec.at:
                buffer[...] = np.nan
                self._fire(
                    i, f"halo message {sends} of {field_name} corrupted to NaN"
                )
        return "deliver"

    def filter_eigen_estimate(self, estimate: "EigenEstimate") -> "EigenEstimate":
        """Count an eigenvalue estimate; corrupt it if an eigen spec is due."""
        from repro.core.solvers.eigenvalue import EigenEstimate

        self._eigen_estimates += 1
        for i, spec in self._due("eigen", lambda s: True):
            if self._eigen_estimates >= spec.at:
                rng = self._rng(i)
                factor = rng.uniform(0.02, 0.1)
                if spec.target == "max":
                    # Shrinking eigen_max leaves spectrum outside the
                    # Chebyshev interval: the semi-iteration amplifies it.
                    corrupted = EigenEstimate(
                        eigen_min=estimate.eigen_min,
                        eigen_max=max(
                            estimate.eigen_max * factor,
                            estimate.eigen_min * 1.5,
                        ),
                    )
                else:
                    corrupted = EigenEstimate(
                        eigen_min=estimate.eigen_min * factor,
                        eigen_max=estimate.eigen_max,
                    )
                self._fire(
                    i,
                    f"eigen_{spec.target} scaled by {factor:.4f} on "
                    f"estimate {self._eigen_estimates}",
                )
                return corrupted
        return estimate
