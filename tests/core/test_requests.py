"""The shared request-lifecycle core, driven through a fake codec.

A hypothesis state machine interleaves issue, drop, deliver, tamper,
virtual-time advance and a controller kill against one
:class:`RequestCore`, starting every switch's sequence numbers just
below the 2**32 wrap.  The fake codec stands in for a stack: it composes
a tuple, charges a kind-dependent compose cost (so reads could overtake
writes without the FIFO horizon), and records departures on a "wire"
the rules then drop, deliver or tamper with.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.requests import SEQ_MASK, RequestCore
from repro.net.simulator import EventSimulator
from repro.telemetry import NULL_TELEMETRY

SWITCHES = ("a", "b")
COSTS = {"read": 5e-6, "write": 2e-5}
TIMEOUT_S = 0.01
ATTEMPTS = 3
#: Upper bound on one attempt's issue-to-deadline span: the deadline plus
#: the FIFO backlog of every request the machine can issue to a switch.
ATTEMPT_BOUND_S = TIMEOUT_S + 200 * COSTS["write"]


class FakeCodec:
    def __init__(self, sim):
        self.sim = sim
        self.composed = {switch: [] for switch in SWITCHES}
        self.departures = {switch: [] for switch in SWITCHES}
        self.wire = []  # departed (switch, seq), awaiting their fate
        self.sealed = 0

    def compose(self, switch, kind, reg_name, index, value, seq):
        self.composed[switch].append(seq)
        return (switch, seq, kind), self.sim.now + COSTS[kind]

    def seal(self, switch, requests):
        self.sealed += len(requests)

    def depart(self, switch, request):
        _switch, seq, _kind = request
        self.departures[switch].append(self.sim.now)
        self.wire.append((switch, seq))


class RequestLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = EventSimulator()
        self.codec = FakeCodec(self.sim)
        self.core = RequestCore(
            self.sim, NULL_TELEMETRY, "fake", compose=self.codec.compose,
            depart=self.codec.depart, seal=self.codec.seal,
            timeout_s=TIMEOUT_S, max_attempts=ATTEMPTS)
        for offset, switch in enumerate(SWITCHES):
            self.core.restore_seq(switch, SEQ_MASK - 3 - offset)
        #: logical request id -> outcomes its callback received
        self.outcomes = {}
        #: logical request id -> first issue time (live requests only)
        self.issued_at = {}
        self.next_id = 0

    def _callback(self, request_id):
        return lambda ok, value: self.outcomes[request_id].append((ok, value))

    @rule(switch=st.sampled_from(SWITCHES),
          kinds=st.lists(st.sampled_from(("read", "write")), min_size=1,
                         max_size=3))
    def issue(self, switch, kinds):
        ops = []
        for kind in kinds:
            request_id = self.next_id
            self.next_id += 1
            self.outcomes[request_id] = []
            if not self.core.halted:
                self.issued_at[request_id] = self.sim.now
            ops.append((kind, "reg", 0, request_id,
                        self._callback(request_id)))
        seqs = self.core.issue(switch, ops)
        assert len(seqs) == len(ops)

    def _take(self, data):
        index = data.draw(st.integers(0, len(self.codec.wire) - 1))
        return self.codec.wire.pop(index)

    @precondition(lambda self: self.codec.wire)
    @rule(data=st.data())
    def drop(self, data):
        self._take(data)

    @precondition(lambda self: self.codec.wire)
    @rule(data=st.data(), ok=st.booleans())
    def deliver(self, data, ok):
        switch, seq = self._take(data)
        self.core.resolve(switch, seq, ok, seq)

    @precondition(lambda self: self.codec.wire)
    @rule(data=st.data())
    def tamper(self, data):
        # The stack detects the forgery and records it; the request
        # stays pending for its deadline to retry.
        self._take(data)

    @rule(dt=st.sampled_from((1e-5, 1e-3, 5e-3, TIMEOUT_S, 0.05)))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @precondition(lambda self: not self.core.halted)
    @rule()
    def halt(self):
        self.core.halt()
        # A killed process forgets its in-flight requests.
        self.issued_at = {request_id: at for request_id, at
                          in self.issued_at.items()
                          if self.outcomes[request_id]}

    @invariant()
    def resolves_at_most_once(self):
        assert all(len(seen) <= 1 for seen in self.outcomes.values())

    @invariant()
    def resolves_exactly_once_after_every_deadline(self):
        horizon = ATTEMPTS * ATTEMPT_BOUND_S
        for request_id, at in self.issued_at.items():
            if self.sim.now > at + horizon:
                assert len(self.outcomes[request_id]) == 1, request_id

    @invariant()
    def outstanding_matches_the_pending_table(self):
        live = sum(1 for request_id in self.issued_at
                   if not self.outcomes[request_id])
        assert self.core.outstanding_count() == live
        assert sum(len(self.core.unacknowledged_seqs(switch))
                   for switch in SWITCHES) == live

    @invariant()
    def no_seq_reused_per_switch(self):
        for seqs in self.codec.composed.values():
            assert len(seqs) == len(set(seqs))
            assert all(0 <= seq <= SEQ_MASK for seq in seqs)

    @invariant()
    def departures_never_reorder_per_switch(self):
        for times in self.codec.departures.values():
            assert times == sorted(times)

    @invariant()
    def every_request_is_sealed_before_it_departs(self):
        departed = sum(len(times) for times in self.codec.departures.values())
        assert departed <= self.codec.sealed


RequestLifecycle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None)
TestRequestLifecycle = RequestLifecycle.TestCase


def test_seqs_wrap_at_32_bits_and_fire_the_listener_first():
    sim = EventSimulator()
    codec = FakeCodec(sim)
    core = RequestCore(sim, NULL_TELEMETRY, "fake", compose=codec.compose,
                       depart=codec.depart)
    heard = []
    core.seq_listener = lambda switch, seq: heard.append(
        (switch, seq, core.seqs[switch]))
    core.restore_seq("a", SEQ_MASK)
    assert core.issue("a", [("read", "reg", 0, 0, None)] * 2) == [SEQ_MASK, 0]
    # The listener sees each number before the counter moves past it.
    assert heard == [("a", SEQ_MASK, SEQ_MASK), ("a", 0, 0)]


def test_a_write_composed_first_departs_first():
    sim = EventSimulator()
    codec = FakeCodec(sim)
    core = RequestCore(sim, NULL_TELEMETRY, "fake", compose=codec.compose,
                       depart=codec.depart)
    core.restore_seq("a", 1)
    core.issue("a", [("write", "reg", 0, 0, None)])
    core.issue("a", [("read", "reg", 0, 0, None)])
    sim.run()
    assert [seq for _switch, seq in codec.wire] == [1, 2]
    assert codec.departures["a"] == [COSTS["write"]] * 2


def test_unknown_kind_is_rejected_before_a_seq_is_spent():
    sim = EventSimulator()
    codec = FakeCodec(sim)
    core = RequestCore(sim, NULL_TELEMETRY, "fake", compose=codec.compose,
                       depart=codec.depart)
    core.restore_seq("a", 7)
    with pytest.raises(ValueError):
        core.issue("a", [("erase", "reg", 0, 0, None)])
    assert core.seqs["a"] == 7 and core.outstanding_count() == 0
