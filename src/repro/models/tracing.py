"""Execution tracing shared by all programming-model emulations.

Every port action that would cost time on a real device is recorded as an
:class:`Event`:

* ``KERNEL`` — one device kernel launch, with streaming byte and flop counts
  derived from the kernel registry (:mod:`repro.core.kernels`);
* ``TRANSFER`` — an explicit host<->device copy (CUDA memcpy, OpenCL
  enqueue, OpenMP ``map``/``update``, Kokkos ``deep_copy``...);
* ``REDUCTION_PASS`` — the extra device pass needed to combine partial
  reduction results (manual tree reductions in CUDA/OpenCL, Kokkos
  ``parallel_reduce`` finalisation);
* ``REGION`` — entry into an offload region (OpenMP ``target``, OpenACC
  ``kernels``) — the per-invocation overhead the paper measures for
  OpenMP 4.0 (§3.1: "a performance overhead dependent upon the number of
  target invocations").

Events carry a tag set so the harness can slice a trace by solver phase.
A decomposed run records a few dozen events per solver iteration, so an
event is a :class:`~typing.NamedTuple`, about three times cheaper to build
than a frozen dataclass, and the trace builds the tag set of the open
sections once per section rather than once per event.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from enum import Enum
from typing import Iterator, NamedTuple


class EventKind(Enum):
    KERNEL = "kernel"
    TRANSFER = "transfer"
    REDUCTION_PASS = "reduction_pass"
    REGION = "region"


class TransferDirection(Enum):
    H2D = "h2d"
    D2H = "d2h"


class Event(NamedTuple):
    """One traced device action."""

    kind: EventKind
    name: str
    bytes_moved: int = 0
    flops: int = 0
    cells: int = 0
    has_reduction: bool = False
    direction: TransferDirection | None = None
    tags: frozenset[str] = frozenset()

    def tagged(self, tag: str) -> bool:
        return tag in self.tags


class Trace:
    """Ordered event log with tag scoping and aggregate queries."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._tag_stack: list[str] = []
        #: ``frozenset(self._tag_stack)``, built when a section opens or
        #: closes rather than for every event.
        self._tags = frozenset()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def section(self, tag: str) -> Iterator[None]:
        """Tag every event recorded inside the block with ``tag``."""
        self._tag_stack.append(tag)
        self._tags = frozenset(self._tag_stack)
        try:
            yield
        finally:
            self._tag_stack.pop()
            self._tags = frozenset(self._tag_stack)

    def kernel(
        self,
        name: str,
        bytes_moved: int,
        flops: int,
        cells: int,
        has_reduction: bool = False,
    ) -> None:
        self.events.append(
            Event(
                EventKind.KERNEL,
                name,
                bytes_moved,
                flops,
                cells,
                has_reduction,
                None,
                self._tags,
            )
        )

    def transfer(self, name: str, nbytes: int, direction: TransferDirection) -> None:
        if nbytes < 0:
            raise ValueError(f"transfer '{name}': negative byte count {nbytes}")
        self.events.append(
            Event(
                EventKind.TRANSFER,
                name,
                bytes_moved=nbytes,
                direction=direction,
                tags=self._tags,
            )
        )

    def reduction_pass(self, name: str, nbytes: int = 0) -> None:
        self.events.append(
            Event(EventKind.REDUCTION_PASS, name, bytes_moved=nbytes, tags=self._tags)
        )

    def region(self, name: str) -> None:
        """Record entry into an offload region (one per directive hit)."""
        self.events.append(Event(EventKind.REGION, name, tags=self._tags))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def filtered(self, tag: str | None = None, kind: EventKind | None = None) -> list[Event]:
        out = self.events
        if tag is not None:
            out = [e for e in out if e.tagged(tag)]
        if kind is not None:
            out = [e for e in out if e.kind is kind]
        return out

    def kernel_launches(self, tag: str | None = None) -> int:
        return len(self.filtered(tag, EventKind.KERNEL))

    def region_entries(self, tag: str | None = None) -> int:
        return len(self.filtered(tag, EventKind.REGION))

    def kernel_bytes(self, tag: str | None = None) -> int:
        """Streaming bytes moved by kernels (the Figure 12 numerator)."""
        return sum(e.bytes_moved for e in self.filtered(tag, EventKind.KERNEL))

    def transfer_bytes(self, tag: str | None = None) -> int:
        return sum(e.bytes_moved for e in self.filtered(tag, EventKind.TRANSFER))

    def flops(self, tag: str | None = None) -> int:
        return sum(e.flops for e in self.filtered(tag, EventKind.KERNEL))

    def reduction_count(self, tag: str | None = None) -> int:
        return sum(
            1 for e in self.filtered(tag, EventKind.KERNEL) if e.has_reduction
        ) + len(self.filtered(tag, EventKind.REDUCTION_PASS))

    def kernel_histogram(self, tag: str | None = None) -> Counter:
        """Launch counts per kernel name."""
        return Counter(e.name for e in self.filtered(tag, EventKind.KERNEL))

    def tags(self) -> set[str]:
        out: set[str] = set()
        for e in self.events:
            out |= e.tags
        return out

    def clear(self) -> None:
        if self._tag_stack:
            raise RuntimeError("cannot clear a trace inside an open section")
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def to_records(self) -> list[dict]:
        """Events as JSON-serialisable dicts (for offline analysis)."""
        out = []
        for e in self.events:
            record = {
                "kind": e.kind.value,
                "name": e.name,
                "bytes": e.bytes_moved,
                "flops": e.flops,
                "cells": e.cells,
                "reduction": e.has_reduction,
                "tags": sorted(e.tags),
            }
            if e.direction is not None:
                record["direction"] = e.direction.value
            out.append(record)
        return out

    def to_json(self, path=None) -> str:
        """Serialise the trace as JSON; optionally write it to ``path``."""
        import json
        from pathlib import Path

        text = json.dumps(
            {"events": self.to_records(), "summary": self.summary()}, indent=1
        )
        if path is not None:
            Path(path).write_text(text)
        return text

    def summary(self) -> str:
        """Short human-readable digest used by the CLI."""
        return (
            f"{self.kernel_launches()} kernel launches, "
            f"{self.kernel_bytes() / 1e9:.3f} GB streamed, "
            f"{self.transfer_bytes() / 1e9:.3f} GB transferred, "
            f"{self.region_entries()} offload regions, "
            f"{self.reduction_count()} reductions"
        )
