"""Comm-level fault injection on the decomposed (MPI-like) port.

A dropped halo message manifests as a deadlock (CommError) in the
in-process communicator; a corrupted one as NaN reaching a reduction.
Both must trigger rollback-and-retry and leave the final physics equal to
the fault-free decomposed run.
"""

import dataclasses

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.tracing import Trace
from repro.resilience import FaultPlan, parse_injections
from repro.util.errors import CommError


def run_decomposed(deck, nranks=4, model="openmp-f90"):
    trace = Trace()
    port = MultiChunkPort(deck.grid(), nranks, model=model, trace=trace)
    return TeaLeaf(deck, port=port, trace=trace).run()


BASE = default_deck(n=32, end_step=2, eps=1e-10)


class TestCommunicatorFaultSupport:
    def test_missing_message_raises_commerror(self):
        world = Communicator(2)
        with pytest.raises(CommError, match="deadlock"):
            world.rank(0).Recv(source=1, tag=0)

    def test_drain_discards_pending_messages(self):
        world = Communicator(2)
        world.rank(0).Send(np.zeros(4), dest=1, tag=0)
        world.rank(0).Send(np.zeros(4), dest=1, tag=1)
        assert world.pending(1) == 2
        assert world.drain() == 2
        assert world.pending(1) == 0
        assert world.drain() == 0


class TestHaloFaultInjection:
    def test_plan_drops_exactly_the_chosen_send(self):
        plan = FaultPlan(parse_injections("drop:p:3"))
        buf = np.ones(8)
        assert plan.halo_verdict("p", buf) == "deliver"
        assert plan.halo_verdict("p", buf) == "deliver"
        assert plan.halo_verdict("p", buf) == "drop"  # third send dropped
        assert plan.halo_verdict("p", buf) == "deliver"  # fires only once

    def test_plan_corrupts_payload_to_nan(self):
        plan = FaultPlan(parse_injections("corrupt:u:1"))
        buf = np.ones(8)
        assert plan.halo_verdict("u", buf) == "deliver"
        assert np.isnan(buf).all()

    @pytest.mark.parametrize("spec", ["drop:p:3", "corrupt:p:3"])
    def test_2x2_run_recovers_exactly(self, spec):
        clean = run_decomposed(BASE)
        faulty = run_decomposed(dataclasses.replace(BASE, tl_inject=spec))
        rep = faulty.resilience
        assert rep.injections == 1
        assert rep.detections >= 1
        assert rep.rollbacks >= 1
        assert faulty.final_summary.temperature == pytest.approx(
            clean.final_summary.temperature, rel=1e-12
        )

    def test_detection_names_the_failure(self):
        faulty = run_decomposed(
            dataclasses.replace(BASE, tl_inject="drop:p:3")
        )
        detections = [
            e.detail for e in faulty.resilience.events if e.kind == "detect"
        ]
        assert any("CommError" in d for d in detections)

    def test_field_fault_on_decomposed_port_recovers(self):
        clean = run_decomposed(BASE)
        faulty = run_decomposed(
            dataclasses.replace(BASE, tl_inject="nan:u:5")
        )
        assert faulty.resilience.recoveries >= 1
        assert faulty.final_summary.temperature == pytest.approx(
            clean.final_summary.temperature, rel=1e-12
        )

    @pytest.mark.parametrize(
        "spec, receiver, strip",
        [
            # The first x-axis message: chunk 0's right edge fills
            # chunk 1's left ghost column.
            ("corrupt:p:1", 1, lambda h: (slice(h, -h), h - 1)),
            # The first y-axis message: chunk 0's top edge fills
            # chunk 2's bottom ghost row, corners included.
            ("corrupt:p:5", 2, lambda h: (h - 1, slice(None))),
        ],
        ids=["first-x-message", "first-y-message"],
    )
    def test_corrupted_message_changes_only_the_message(self, spec, receiver, strip):
        """The NaN reaches the receiver's ghosts (and the ghost corners
        the y exchange forwards them to), never an interior cell, and
        the sender's array is exactly what a clean exchange leaves."""

        def exchange(inject):
            port = MultiChunkPort(default_deck(n=16).grid(), 4)
            rng = np.random.default_rng(11)
            port.write_field(F.P, rng.random(port.grid.shape) + 1.0)
            if inject:
                port.attach_fault_plan(FaultPlan(parse_injections(inject)))
            before = [c._device_array(F.P).copy() for c in port.ports]
            port.update_halo((F.P,), 1)
            return port.h, before, [c._device_array(F.P) for c in port.ports]

        h, before, faulty = exchange(spec)
        _, _, clean = exchange(None)
        inner = (slice(h, -h), slice(h, -h))
        for chunk, (was, got, want) in enumerate(zip(before, faulty, clean)):
            np.testing.assert_array_equal(
                got[inner].view(np.uint64), was[inner].view(np.uint64),
                err_msg=f"chunk {chunk}: interior changed",
            )
            moved = got.view(np.uint64) != want.view(np.uint64)
            assert np.isnan(got[moved]).all(), f"chunk {chunk}: non-NaN change"
        sender = faulty[0]  # chunk 0 sends both messages
        np.testing.assert_array_equal(sender.view(np.uint64), clean[0].view(np.uint64))
        assert np.isnan(faulty[receiver][strip(h)]).all()

    def test_unrecovered_drop_is_fatal_without_resilience_budget(self):
        deck = dataclasses.replace(
            BASE, tl_inject="drop:p:3", tl_max_retries=0
        )
        with pytest.raises(CommError):
            run_decomposed(deck)
