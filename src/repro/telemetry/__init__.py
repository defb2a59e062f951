"""Structured tracing, metrics, and profiling for the whole reproduction.

One :class:`Telemetry` object bundles the three observability surfaces:

- :attr:`Telemetry.metrics` — a :class:`~repro.telemetry.metrics.MetricRegistry`
  of counters/gauges/histograms (Prometheus-style text export);
- :attr:`Telemetry.tracer` — a :class:`~repro.telemetry.tracer.Tracer` of
  virtual-time-stamped structured events (JSONL export, ring-buffer
  retention);
- :meth:`Telemetry.span` — wall-clock profiling into the
  ``profile_seconds`` histogram.

Pass a ``Telemetry(enabled=True)`` instance into
:class:`~repro.net.simulator.EventSimulator` (directly or through the
topology builders / experiment drivers); the network, switches,
controller, KMP, and runtime stacks all discover it from there.  When no
instance is supplied, everything shares :data:`NULL_TELEMETRY`, whose
mutators are no-ops — the fast path the overhead benchmark bounds.

Trace-event vocabulary (see DESIGN.md "Observability"):
``packet.drop``, ``link.up``, ``link.down``, ``digest.verify_fail``,
``replay.reject``, ``alert.raised``, ``kmp.exchange``,
``kmp.exchange_abandoned``, ``controller.packet_in``,
``controller.tamper``, ``runtime.request_abandoned``,
``sim.budget_exhausted``, and the
``fault.*`` family emitted by :mod:`repro.faults` (``fault.armed``,
``fault.disarmed``, ``fault.injected``, ``fault.node_crash``,
``fault.node_restart``, ``fault.blackout``, ``fault.clock_skew``).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.telemetry.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
)
from repro.telemetry.exporters import (
    render_prometheus,
    write_jsonl,
    write_prometheus,
)

#: Buckets for wall-clock profiling spans (seconds of host time).
PROFILE_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Buckets for per-request completion times (virtual seconds) — the
#: Fig 18/19 RCT scale: C-DP round trips land around a millisecond.
RCT_BUCKETS: Tuple[float, ...] = (
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2,
)

#: Buckets for KMP operation round-trip times (virtual seconds).
KMP_RTT_BUCKETS: Tuple[float, ...] = (
    5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 5e-3, 1e-2,
)


class Telemetry:
    """The bundle a run threads through every instrumented layer."""

    __slots__ = ("enabled", "metrics", "tracer")

    def __init__(self, enabled: bool = True, trace_capacity: int = 65536,
                 clock: Optional[Callable[[], float]] = None):
        self.enabled = enabled
        self.metrics = MetricRegistry(enabled=enabled)
        self.tracer = (Tracer(clock=clock, capacity=trace_capacity)
                       if enabled else NullTracer())

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Stamp future trace events with this time source."""
        self.tracer.bind_clock(clock)

    def span(self, name: str):
        """Wall-clock profile a code region into ``profile_seconds``."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self.metrics.histogram(
            "profile_seconds", buckets=PROFILE_BUCKETS, span=name))

    def render_prometheus(self) -> str:
        return render_prometheus(self.metrics)

    def __repr__(self) -> str:
        return (f"Telemetry(enabled={self.enabled}, "
                f"metrics={len(self.metrics)}, events={len(self.tracer)})")


#: The shared disabled instance every component defaults to.
NULL_TELEMETRY = Telemetry(enabled=False)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "KMP_RTT_BUCKETS",
    "MetricRegistry",
    "NULL_TELEMETRY",
    "RCT_BUCKETS",
    "NullTracer",
    "PROFILE_BUCKETS",
    "Span",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "render_prometheus",
    "write_jsonl",
    "write_prometheus",
]
