"""One request lifecycle for every C-DP register-access stack.

P4Auth's controller, DP-Reg-RW's plain controller and the modeled
P4Runtime stack differ in how a register request is encoded and carried,
not in what happens to it between issue and outcome.  That lifecycle
lives here, once:

- per-switch sequence issue (32-bit, wrapping), with a ``seq_listener``
  hook fired *before* a number is handed out — the durability layer
  journals sequence-horizon reservations through it, so a crash can
  never reuse a sequence number (see :mod:`repro.store`);
- the pending table keyed by ``(switch, seq)``, which the §VIII DoS
  heuristics read (:meth:`RequestCore.outstanding_count`,
  :meth:`RequestCore.unacknowledged_seqs`);
- the FIFO per-switch departure horizon.  Compose costs differ by kind
  (a read is ~6x cheaper to compose than a write), so with overlapping
  composes a later-seq read would depart before an earlier-seq write,
  the data plane's monotonic ``expected_seq`` would jump past the write,
  and the write would be rejected as a replay.  A request never departs
  before one composed earlier for the same switch;
- the optional deadline: a request unanswered ``timeout_s`` after it
  departs is re-issued (freshly composed, under a fresh seq) up to
  ``max_attempts`` times, then abandoned with a terminal
  ``callback(False, 0)``;
- resolution: cancel the deadline, count the outcome, observe
  ``runtime_rct_seconds{stack,kind}``, fire the callback.

A stack plugs in as a codec of callables (the provider-delegation
shape): ``compose(switch, kind, reg_name, index, value, seq)`` returns
``(request, ready_at)`` — the encoded request and the earliest virtual
time it can leave; ``depart(switch, request)`` puts it on its way; the
optional ``seal(switch, requests)`` runs once per issued burst (P4Auth
signs there).  The stack maps each response to ``(seq, ok, value)`` and
calls :meth:`RequestCore.resolve`; a response that maps to no pending
request (a replay, a late answer to an abandoned request) or to a tamper
record is the stack's to count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import RCT_BUCKETS

ResponseCallback = Callable[[bool, int], None]

#: One register op: ``(kind, reg_name, index, value, callback)``, where
#: ``kind`` is ``"read"`` or ``"write"`` and ``value`` is ignored for reads.
Op = Tuple[str, str, int, int, Optional[ResponseCallback]]

SEQ_MASK = 0xFFFFFFFF


@dataclass
class RequestStats:
    acked: int = 0
    nacked: int = 0
    #: Requests re-issued after their deadline passed unanswered.
    retries: int = 0
    #: Requests that exhausted ``max_attempts`` and surfaced a terminal
    #: ``callback(False, 0)`` instead of hanging forever.
    abandoned: int = 0


class _Request:
    __slots__ = ("kind", "reg_name", "index", "value", "callback",
                 "sent_at", "attempt", "deadline")

    def __init__(self, kind: str, reg_name: str, index: int, value: int,
                 callback: Optional[ResponseCallback], sent_at: float,
                 attempt: int):
        self.kind = kind
        self.reg_name = reg_name
        self.index = index
        self.value = value
        self.callback = callback
        self.sent_at = sent_at
        self.attempt = attempt
        self.deadline = None


class RequestCore:
    """Issue -> depart -> outcome for one stack's register requests."""

    def __init__(self, sim, telemetry, stack: str,
                 compose: Callable[..., Tuple[object, float]],
                 depart: Callable[[str, object], None],
                 seal: Optional[Callable[[str, List[object]], None]] = None,
                 timeout_s: Optional[float] = None, max_attempts: int = 3):
        self.sim = sim
        self.telemetry = telemetry
        #: The ``stack`` label on every metric and trace event.
        self.stack = stack
        self._compose = compose
        self._depart = depart
        self._seal = seal
        #: ``None`` keeps fire-and-wait: a lost request stays pending
        #: (visible to :meth:`unacknowledged_seqs`) and never calls back.
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.stats = RequestStats()
        #: Next sequence number per provisioned switch.
        self.seqs: Dict[str, int] = {}
        self.seq_listener: Optional[Callable[[str, int], None]] = None
        #: Set by :meth:`halt`: a crashed process sends nothing more.
        self.halted = False
        self._pending: Dict[Tuple[str, int], _Request] = {}
        self._horizon: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # sequence numbers
    # ------------------------------------------------------------------

    def next_seq(self, switch: str) -> int:
        seq = self.seqs[switch]
        if self.seq_listener is not None:
            self.seq_listener(switch, seq)
        self.seqs[switch] = (seq + 1) & SEQ_MASK
        return seq

    def restore_seq(self, switch: str, next_seq: int) -> None:
        """Resume issuing at ``next_seq`` (warm restart)."""
        self.seqs[switch] = next_seq & SEQ_MASK

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def issue(self, switch: str, ops: Sequence[Op],
              attempt: int = 1) -> List[int]:
        """Compose, seal, and schedule ``ops`` to one switch, in order.

        Returns the assigned sequence numbers.  A burst is identical on
        the wire to issuing each op alone, back to back at the same
        instant: same seqs, same departure times.
        """
        composed = []
        for kind, reg_name, index, value, callback in ops:
            if kind not in ("read", "write"):
                raise ValueError(f"unknown request kind {kind!r}")
            seq = self.next_seq(switch)
            request, ready_at = self._compose(switch, kind, reg_name, index,
                                              value, seq)
            composed.append((seq, request, ready_at, _Request(
                kind, reg_name, index, value, callback, self.sim.now,
                attempt)))
        if self._seal is not None and composed:
            self._seal(switch, [entry[1] for entry in composed])
        for seq, request, ready_at, pending in composed:
            self._open(switch, seq, request, ready_at, pending)
        return [entry[0] for entry in composed]

    def _open(self, switch: str, seq: int, request, ready_at: float,
              pending: _Request) -> None:
        if self.halted:
            # A dead process's frame may still be mid-burst when the
            # kill lands: the request was composed but never reached
            # the NIC.  Dropping it here (no pending entry, no
            # departure) is the crash semantics recovery is built for.
            return
        self._pending[(switch, seq)] = pending
        depart_at = max(ready_at, self._horizon.get(switch, 0.0))
        self._horizon[switch] = depart_at
        self.sim.schedule_at(depart_at, self._depart, switch, request)
        if self.timeout_s is not None:
            pending.deadline = self.sim.schedule_cancellable(
                depart_at - self.sim.now + self.timeout_s,
                self._expired, switch, seq)

    def _expired(self, switch: str, seq: int) -> None:
        pending = self._pending.pop((switch, seq), None)
        if pending is None:
            return  # answered in the meantime (raced the cancellation)
        telemetry = self.telemetry
        if pending.attempt >= self.max_attempts:
            self.stats.abandoned += 1
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "runtime_requests_abandoned_total",
                    stack=self.stack, kind=pending.kind).inc()
                telemetry.tracer.emit(
                    "runtime.request_abandoned", stack=self.stack,
                    switch=switch, kind=pending.kind, reg=pending.reg_name,
                    seq=seq, attempts=pending.attempt)
            if pending.callback is not None:
                pending.callback(False, 0)
            return
        self.stats.retries += 1
        if telemetry.enabled:
            telemetry.metrics.counter(
                "runtime_request_retries_total",
                stack=self.stack, kind=pending.kind).inc()
        self.issue(switch, [(pending.kind, pending.reg_name, pending.index,
                             pending.value, pending.callback)],
                   attempt=pending.attempt + 1)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve(self, switch: str, seq: int, ok: bool, value: int,
                after_s: Optional[float] = None) -> bool:
        """Close the request ``(switch, seq)`` with a response.

        Returns False when no such request is pending.  ``after_s`` is
        controller-side work still owed before the caller learns the
        outcome (P4Auth's response verification): it counts toward the
        RCT and delays the callback.
        """
        pending = self._pending.pop((switch, seq), None)
        if pending is None:
            return False
        if pending.deadline is not None:
            pending.deadline.cancel()
        if ok:
            self.stats.acked += 1
        else:
            self.stats.nacked += 1
        rct = (self.sim.now + (after_s or 0.0)) - pending.sent_at
        if self.telemetry.enabled:
            self.telemetry.metrics.histogram(
                "runtime_rct_seconds", buckets=RCT_BUCKETS,
                stack=self.stack, kind=pending.kind).observe(rct)
        if pending.callback is not None:
            if after_s is None:
                pending.callback(ok, value)
            else:
                self.sim.schedule(after_s, pending.callback, ok, value)
        return True

    # ------------------------------------------------------------------
    # introspection and crash
    # ------------------------------------------------------------------

    def outstanding_count(self) -> int:
        """Requests issued whose outcome is not yet decided."""
        return len(self._pending)

    def unacknowledged_seqs(self, switch: str) -> List[int]:
        """Sequence numbers sent but not yet answered (§VIII DoS defense)."""
        return sorted(seq for (name, seq) in self._pending if name == switch)

    def halt(self) -> None:
        """Crash: cancel every deadline (a dead process has no timers)
        and forget every in-flight request."""
        self.halted = True
        for pending in self._pending.values():
            if pending.deadline is not None:
                pending.deadline.cancel()
        self._pending.clear()


class RequestStack:
    """The register-access API every stack shares, over one
    :class:`RequestCore` at ``self.requests``."""

    requests: RequestCore

    def read_register(self, switch: str, reg_name: str, index: int,
                      callback: Optional[ResponseCallback] = None) -> int:
        """Issue a register read; returns its seq number.

        ``callback(ok, value)`` fires once with the outcome.
        """
        return self._issue(switch, [("read", reg_name, index, 0,
                                     callback)])[0]

    def write_register(self, switch: str, reg_name: str, index: int,
                       value: int,
                       callback: Optional[ResponseCallback] = None) -> int:
        """Issue a register write; returns its seq number."""
        return self._issue(switch, [("write", reg_name, index, value,
                                     callback)])[0]

    def _issue(self, switch: str, ops: Sequence[Op]) -> List[int]:
        return self.requests.issue(switch, ops)

    @property
    def _seq(self) -> Dict[str, int]:
        """Per-switch next sequence number (the core's live dict)."""
        return self.requests.seqs

    def next_seq(self, switch: str) -> int:
        return self.requests.next_seq(switch)

    def restore_seq(self, switch: str, next_seq: int) -> None:
        """Warm-restart entry point: resume issuing at ``next_seq``.

        Recovery sets this to the last *journaled horizon* — at or past
        any number the dead controller could have used — so the data
        plane's monotonic ``expected_seq`` defense never sees a reuse.
        """
        self.requests.restore_seq(switch, next_seq)

    @property
    def seq_listener(self) -> Optional[Callable[[str, int], None]]:
        """Observer ``seq_listener(switch, seq)`` fired before a seq is
        used (the store journals sequence horizons here)."""
        return self.requests.seq_listener

    @seq_listener.setter
    def seq_listener(self, listener) -> None:
        self.requests.seq_listener = listener

    @property
    def halted(self) -> bool:
        return self.requests.halted

    def halt(self) -> None:
        self.requests.halt()

    def outstanding_count(self) -> int:
        return self.requests.outstanding_count()

    def unacknowledged_seqs(self, switch: str) -> List[int]:
        return self.requests.unacknowledged_seqs(switch)


__all__ = ["Op", "RequestCore", "RequestStack", "RequestStats",
           "ResponseCallback", "SEQ_MASK"]
