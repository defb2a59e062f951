"""One controller shard: a deterministic deployment behind an asyncio queue.

A :class:`ShardWorker` owns the switches its shard was assigned: its own
:class:`~repro.net.simulator.EventSimulator`, network, register-access
stack (any of the three runtime stacks), and a
:class:`~repro.runtime.batch.BatchController` issue engine.  Client
requests arrive through :meth:`submit` (synchronous, called from the
service's dispatch path) and are resolved as asyncio futures when the
wrapped stack decides an outcome.

Concurrency model
-----------------
Everything runs on one asyncio event loop.  The worker task alternates
between (a) topping the issue engine up from the FIFO intake queue and
(b) advancing the shard's *virtual* clock in small steps so in-flight
requests complete.  The simulator only advances while the shard has
work, so idle shards cost nothing and per-request latency is measured
in honest busy-time virtual seconds.

Ordering: the intake queue is FIFO and the BatchController never
reorders one switch's requests, so interleaved clients can never make a
switch's ``expected_seq`` replay defense observe out-of-order sequence
numbers.

Backpressure: the intake queue is bounded (``queue_depth``); a full
shard raises :class:`ShardOverload`, which the daemon maps to HTTP 503.
The issue engine itself is capped at ``issue_window`` total in-flight
requests — the shard's share of the §IV outstanding-request DoS budget
(kept far below the controller's ``outstanding_threshold`` so a shard
can never trip its own defense).  Fleet throughput therefore scales
with the number of shards, which is the point of the service.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.batch import BatchController
from repro.runtime.comparison import deploy_stack
from repro.store.recovery import (
    restore_dataplane,
    store_exists,
    warm_restart,
)

#: Buckets for per-request service latency (virtual seconds): window
#: queueing stacks a few RTTs on top of the Fig 18 ~1 ms round trip.
SERVICE_LATENCY_BUCKETS: Tuple[float, ...] = (
    5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
)

#: Virtual-time window for the parallel key bootstrap at build time.
BOOTSTRAP_DEADLINE_S = 10.0

#: Every service request's deadline (virtual seconds after it departs):
#: an unanswered request is retried, then abandoned, so one dropped or
#: tampered response can never pin an issue-window slot forever.
REQUEST_DEADLINE_S = 0.05

OP_KINDS = ("read", "write", "rollover")


class ShardOverload(RuntimeError):
    """The shard's bounded intake queue is full (or the shard is
    draining); the daemon maps this to HTTP 503."""

    def __init__(self, shard_id: str, reason: str):
        super().__init__(f"shard {shard_id}: {reason}")
        self.shard_id = shard_id
        self.reason = reason


@dataclass
class ShardOp:
    """One queued operation and the future its caller awaits."""

    kind: str  # "read" | "write" | "rollover"
    switch: str
    reg_name: str = ""
    index: int = 0
    value: int = 0
    future: Optional[asyncio.Future] = None
    #: Shard virtual time at submission (clock only moves while busy).
    submitted_at: float = 0.0


@dataclass
class ShardStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    rollovers: int = 0
    #: Virtual time of the first issue / most recent terminal outcome.
    first_issue_at: Optional[float] = None
    last_done_at: Optional[float] = None
    #: Per-request busy-time latency samples (virtual seconds).
    latency_samples: List[float] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Virtual seconds between first issue and last outcome."""
        if self.first_issue_at is None or self.last_done_at is None:
            return 0.0
        return self.last_done_at - self.first_issue_at

    def percentile_s(self, pct: float) -> float:
        if not self.latency_samples:
            return math.nan
        ordered = sorted(self.latency_samples)
        rank = min(len(ordered) - 1,
                   max(0, int(pct / 100.0 * len(ordered))))
        return ordered[rank]


def build_shard_stack(stack_name: str, switches: Sequence[str], seed: int,
                      registers: Sequence[Tuple[str, int, int]],
                      issue_window: int, telemetry=None,
                      bootstrap: bool = True):
    """A fresh deployment of ``stack_name`` over the shard's switches.

    Returns ``(sim, net, stack, dataplanes)``.  Switches get the fleet's
    register schema; P4Auth switches additionally run the full local-key
    bootstrap (in parallel, inside the shard's virtual clock) before the
    shard accepts traffic.  C-DP traffic flows controller<->switch over
    per-switch control channels, so no inter-switch links are needed.

    ``bootstrap=False`` skips the P4Auth key negotiation: the caller is
    warm-restarting from a state directory and will reinstall journaled
    key material into both the controller and the (hardware-stand-in)
    dataplanes instead of negotiating fresh keys.
    """
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    for offset, name in enumerate(switches):
        switch = DataplaneSwitch(name, num_ports=2, seed=seed + offset)
        net.add_switch(switch)
        for reg_name, width, size in registers:
            switch.registers.define(reg_name, width, size)
    p4auth_kwargs = {"seed": 0xC0FFEE ^ seed} if stack_name == "P4Auth" \
        else {}
    stack, dataplanes = deploy_stack(
        stack_name, net, switches,
        [reg_name for reg_name, _w, _s in registers],
        k_seeds={name: 0x1000 + seed + offset
                 for offset, name in enumerate(switches)},
        bootstrap_s=BOOTSTRAP_DEADLINE_S if bootstrap else None,
        request_timeout_s=REQUEST_DEADLINE_S, **p4auth_kwargs)
    # The shard's issue window must stay far below the DoS heuristic's
    # budget — tripping our own defense would be a self-inflicted
    # outage.  Keep the default threshold and check the window fits
    # under it with room for KMP chatter.
    if stack_name == "P4Auth" \
            and issue_window * 2 > stack.outstanding_threshold:
        raise ValueError(
            f"issue_window={issue_window} would crowd the "
            f"outstanding-request DoS budget "
            f"({stack.outstanding_threshold}); add shards instead")
    return sim, net, stack, dataplanes


class ShardWorker:
    """One shard: bounded FIFO intake -> windowed issue -> futures."""

    def __init__(self, shard_id: str, switches: Sequence[str], *,
                 stack_name: str = "P4Auth", seed: int = 1,
                 registers: Sequence[Tuple[str, int, int]] =
                 (("target", 64, 16),),
                 max_in_flight: int = 8, issue_window: int = 32,
                 queue_depth: int = 1024, step_s: float = 0.002,
                 state_dir: Optional[str] = None, fsync: str = "batch",
                 snapshot_every: Optional[int] = 256,
                 metrics=None, telemetry=None):
        if issue_window < 1:
            raise ValueError("issue_window must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.shard_id = shard_id
        self.switches = tuple(switches)
        self.stack_name = stack_name
        self.seed = seed
        self.registers = tuple(registers)
        self.max_in_flight = max_in_flight
        self.issue_window = issue_window
        self.queue_depth = queue_depth
        self.step_s = step_s
        #: Durable-state directory (P4Auth only; None: in-memory shard).
        self.state_dir = state_dir
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        #: Instruments this shard's simulator (None: un-instrumented).
        self.telemetry = telemetry
        self.recorder = None
        self.recovery_report = None
        self.recovered = False
        self.stats = ShardStats()
        self.sim = None
        self.net = None
        self.stack = None
        self.batch: Optional[BatchController] = None
        self.dataplanes: Dict[str, object] = {}
        self._pending: Deque[ShardOp] = deque()
        self._rollover_waiting: Dict[str, Deque[ShardOp]] = {}
        self._outstanding = 0
        self._draining = False
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        # Per-shard service metrics live in the *service* registry (at
        # most one shard sim is instrumented, so N virtual clocks never
        # fight over one tracer).  The journal/snapshot
        # stores share that registry: their metrics are wall-clock
        # host-side observations, not simulated time.
        self._metrics = metrics if metrics is not None and metrics.enabled \
            else None
        if metrics is not None and metrics.enabled:
            self._gauge_in_flight = metrics.gauge(
                "service_shard_in_flight", shard=shard_id)
            self._gauge_queue = metrics.gauge(
                "service_shard_queue_depth", shard=shard_id)
            self._gauge_switches = metrics.gauge(
                "service_shard_switches", shard=shard_id)
            self._counters = {
                kind: metrics.counter("service_requests_total",
                                      shard=shard_id, op=kind)
                for kind in OP_KINDS
            }
            self._counter_rejected = metrics.counter(
                "service_requests_rejected_total", shard=shard_id)
            self._counter_failed = metrics.counter(
                "service_request_failures_total", shard=shard_id)
            self._hists = {
                kind: metrics.histogram(
                    "service_request_seconds",
                    buckets=SERVICE_LATENCY_BUCKETS,
                    shard=shard_id, op=kind)
                for kind in OP_KINDS
            }
        else:
            self._gauge_in_flight = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Build the deployment (bootstrap included) and start serving.

        With a ``state_dir`` (P4Auth only), the shard is durable: a
        fresh directory journals the bootstrap as it happens; one that
        already holds a journal triggers a warm restart — key material
        and sequence horizons are replayed into the new controller, the
        simulated switches (stand-ins for hardware whose registers
        survived the crash) are re-seeded from the same journaled state,
        and any batch window open at crash time is reconciled with an
        authenticated register read before traffic resumes.
        """
        if self._task is not None:
            raise RuntimeError(f"shard {self.shard_id} already started")
        durable = self.state_dir is not None and self.stack_name == "P4Auth"
        warm = durable and store_exists(self.state_dir)
        self.sim, self.net, self.stack, self.dataplanes = build_shard_stack(
            self.stack_name, self.switches, self.seed, self.registers,
            self.issue_window, telemetry=self.telemetry,
            bootstrap=not warm)
        self.batch = BatchController(self.stack,
                                     max_in_flight=self.max_in_flight)
        if self.stack_name == "P4Auth":
            self.stack.kmp.on_abandoned.append(self._on_kmp_abandoned)
        if durable:
            self.recorder, self.recovery_report = warm_restart(
                self.state_dir, self.stack, batch=self.batch,
                shard_id=self.shard_id, fsync=self.fsync,
                snapshot_every=self.snapshot_every,
                metrics=self._metrics, shard=self.shard_id)
            self.recovered = warm
            if warm:
                self._settle_recovery()
        if self._gauge_in_flight is not None:
            self._gauge_switches.set(len(self.switches))
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"shard-{self.shard_id}")

    def _settle_recovery(self) -> None:
        """Finish a warm restart before the shard accepts traffic.

        The journaled state was already poured into the controller; this
        re-seeds the hardware stand-ins, lets the reconciliation reads
        resolve in virtual time, and falls back to a fresh KMP bootstrap
        for any switch whose keys never became durable (a crash between
        provisioning and the journal's first fsync).
        """
        state = self.recovery_report.state
        for dataplane in self.dataplanes.values():
            restore_dataplane(dataplane, state)
        # Reconciliation reads were issued by warm_restart but deliver
        # only as the virtual clock advances (after the registers above
        # were restored — no packet outruns the restore).
        self.sim.run(until=self.sim.now + BOOTSTRAP_DEADLINE_S)
        missing = [name for name in self.switches
                   if not self.stack.keys.has_local_key(name)]
        if missing:
            done: List[object] = []
            for name in missing:
                self.stack.kmp.local_key_init(name, on_done=done.append)
            self.sim.run(until=self.sim.now + BOOTSTRAP_DEADLINE_S)
            if len(done) != len(missing):
                raise RuntimeError(
                    f"post-recovery bootstrap incomplete: "
                    f"{len(done)}/{len(missing)}")

    async def stop(self) -> None:
        """Graceful drain: stop intake, finish queued work, exit."""
        if self._task is None:
            return
        self._draining = True
        self._wake.set()
        await self._task
        self._task = None
        if self.recorder is not None:
            # Drained: snapshot the final state so the next start
            # replays (almost) nothing, then seal the journal.
            self.recorder.snapshot()
            self.recorder.detach()
            self.recorder.journal.close()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def idle(self) -> bool:
        return not self._pending and self._outstanding == 0

    # ------------------------------------------------------------------
    # intake (synchronous: the daemon calls this from dispatch)
    # ------------------------------------------------------------------

    def submit(self, op: ShardOp) -> asyncio.Future:
        """Enqueue one op; returns the future its caller awaits.

        Raises :class:`ShardOverload` when the bounded queue is full or
        the shard is draining — callers must not retry blindly.
        """
        if self._task is None or self._draining:
            self.stats.rejected += 1
            if self._gauge_in_flight is not None:
                self._counter_rejected.inc()
            raise ShardOverload(self.shard_id, "draining")
        if len(self._pending) + self._outstanding >= self.queue_depth:
            self.stats.rejected += 1
            if self._gauge_in_flight is not None:
                self._counter_rejected.inc()
            raise ShardOverload(
                self.shard_id,
                f"queue full ({self.queue_depth} ops)")
        op.future = asyncio.get_running_loop().create_future()
        op.submitted_at = self.sim.now
        self.stats.submitted += 1
        self._pending.append(op)
        if self._gauge_in_flight is not None:
            self._counters[op.kind].inc()
            self._gauge_queue.set(len(self._pending))
        self._wake.set()
        return op.future

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            if self.idle:
                if self._draining:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            self._top_up()
            if self._outstanding:
                # Advance the shard's virtual clock one step; completion
                # callbacks fire inside run() and refill the window.
                self.sim.run(until=self.sim.now + self.step_s)
            # Yield so clients observe resolved futures and enqueue
            # follow-up work before the next step.
            await asyncio.sleep(0)
        if self._gauge_in_flight is not None:
            self._gauge_in_flight.set(0)
            self._gauge_queue.set(0)

    def _top_up(self) -> None:
        """Issue from the FIFO head while the window has room.

        Register ops drain through :meth:`BatchController.submit_many`
        so a refill becomes per-switch bursts the stack can sign with
        one ``sign_many`` call (the vectorized digest lane at scale).
        A rollover op flushes the accumulated run first — everything
        submitted before it still issues before it, preserving the FIFO
        guarantee interleaved clients rely on.
        """
        reg_ops: List[ShardOp] = []
        while self._pending and self._outstanding < self.issue_window:
            op = self._pending.popleft()
            self._outstanding += 1
            if self.stats.first_issue_at is None:
                self.stats.first_issue_at = self.sim.now
            if op.kind == "rollover":
                self._flush_reg_ops(reg_ops)
                reg_ops = []
                self._issue_rollover(op)
            else:
                reg_ops.append(op)
        self._flush_reg_ops(reg_ops)
        if self._gauge_in_flight is not None:
            self._gauge_in_flight.set(self._outstanding)
            self._gauge_queue.set(len(self._pending))

    def _flush_reg_ops(self, reg_ops: List[ShardOp]) -> None:
        if not reg_ops:
            return
        self.batch.submit_many([
            (op.kind, op.switch, op.reg_name, op.index, op.value,
             lambda ok, value, op=op: self._op_done(op, ok, value))
            for op in reg_ops])

    def _issue_rollover(self, op: ShardOp) -> None:
        waiting = self._rollover_waiting.setdefault(op.switch, deque())
        waiting.append(op)
        self.stack.kmp.local_key_update(
            op.switch,
            on_done=lambda _record, sw=op.switch:
                self._rollover_done(sw, True))

    def _rollover_done(self, switch: str, ok: bool) -> None:
        waiting = self._rollover_waiting.get(switch)
        if not waiting:
            return
        op = waiting.popleft()
        if ok:
            self.stats.rollovers += 1
        version = (self.stack.keys.local_key_version(switch)
                   if ok else 0)
        self._op_done(op, ok, version)

    def _on_kmp_abandoned(self, failure) -> None:
        """A rollover exchange hit its retry cap: fail the waiting op
        instead of leaving its future pending forever."""
        if failure.op == "local_update":
            self._rollover_done(failure.switch, False)

    def _op_done(self, op: ShardOp, ok: bool, value: int) -> None:
        self._outstanding -= 1
        self.stats.completed += 1 if ok else 0
        self.stats.failed += 0 if ok else 1
        self.stats.last_done_at = self.sim.now
        latency = self.sim.now - op.submitted_at
        self.stats.latency_samples.append(latency)
        if self._gauge_in_flight is not None:
            self._hists[op.kind].observe(latency)
            self._gauge_in_flight.set(self._outstanding)
            if not ok:
                self._counter_failed.inc()
        if op.future is not None and not op.future.done():
            op.future.set_result((ok, value))
        # Refill immediately so the window stays full mid-step.
        self._top_up()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        status = {
            "shard": self.shard_id,
            "stack": self.stack_name,
            "switches": len(self.switches),
            "queued": len(self._pending),
            "in_flight": self._outstanding,
            "issue_window": self.issue_window,
            "queue_depth": self.queue_depth,
            "submitted": self.stats.submitted,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "rejected": self.stats.rejected,
            "rollovers": self.stats.rollovers,
            "busy_virtual_s": self.stats.busy_s,
            "draining": self._draining,
        }
        if self.recorder is not None:
            report = self.recovery_report
            status["store"] = {
                "state_dir": self.state_dir,
                "fsync": self.fsync,
                "journal_records": self.recorder.journal.next_lsn,
                "journal_lag": self.recorder.journal.lag,
                "torn_records": self.recorder.journal.torn_records,
                "recovered": self.recovered,
                "recovery_s": report.duration_s,
                "replayed_records": report.replayed_records,
                "snapshot_used": report.snapshot_used,
                "windows_reconciled": report.windows_reconciled,
            }
        return status


__all__ = [
    "BOOTSTRAP_DEADLINE_S",
    "OP_KINDS",
    "REQUEST_DEADLINE_S",
    "SERVICE_LATENCY_BUCKETS",
    "ShardOp",
    "ShardOverload",
    "ShardStats",
    "ShardWorker",
    "build_shard_stack",
]
