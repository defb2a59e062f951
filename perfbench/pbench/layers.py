"""Per-layer attribution: what the traced run wraps and what it reports.

Layers are the ``repro`` packages on the hot path.  Each wrapped public
function becomes a span named ``<layer>.<function>``; each installed
pipeline stage becomes a ``<layer>.stage`` span, its layer taken from
the module that defines the stage.  Self time is reported as a share of
the traced episode's wall time (set-up plus timed phase), so the numbers
compare across hosts and the layer shares add up to one with
``layer.other`` (the benchmark's own code, asyncio and anything outside
every span).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from pbench.common import Episode, span_in
from pbench.spans import Tracer

LAYERS = ("service", "runtime", "core", "crypto", "dataplane", "systems",
          "net", "store")

#: (module, attribute path, span name, items argument index, async)
TARGETS: List[Tuple[str, str, str, object, bool]] = [
    ("repro.service.daemon", "ControllerService.dispatch",
     "service.dispatch", None, True),
    ("repro.service.auth", "RequestAuthenticator.verify",
     "service.auth.verify", None, False),
    ("repro.runtime.batch", "BatchController.submit_many",
     "runtime.submit_many", 1, False),
    ("repro.core.controller", "P4AuthController.request_many",
     "core.request_many", 2, False),
    ("repro.core.controller", "P4AuthController.handle_packet_in",
     "core.handle_packet_in", None, False),
    ("repro.core.kmp", "KeyManagementProtocol.handle_message",
     "core.kmp.handle_message", None, False),
    ("repro.crypto.halfsiphash", "HalfSipHash.digest", "crypto.scalar",
     None, False),
    ("repro.crypto.halfsiphash", "HalfSipHash.digest_from_state",
     "crypto.scalar", None, False),
    ("repro.crypto.halfsiphash", "HalfSipHash.digest_words",
     "crypto.scalar", None, False),
    ("repro.crypto.vectorized", "digest_many", "crypto.vector", 1, False),
    ("repro.crypto.vectorized", "digest_many_from_state", "crypto.vector",
     1, False),
    ("repro.crypto.vectorized", "crc32_many", "crypto.vector", 0, False),
    ("repro.crypto.vectorized", "crc32_many_keyed", "crypto.vector", 1,
     False),
    # The key exchange imported the DH functions by name: patch both.
    ("repro.crypto.modified_dh", "dh_public", "crypto.dh", None, False),
    ("repro.crypto.modified_dh", "dh_shared", "crypto.dh", None, False),
    ("repro.core.exchange", "dh_public", "crypto.dh", None, False),
    ("repro.core.exchange", "dh_shared", "crypto.dh", None, False),
    ("repro.crypto.kdf", "Kdf.derive", "crypto.kdf", None, False),
    ("repro.dataplane.switch", "DataplaneSwitch.process",
     "dataplane.process", None, False),
    ("repro.dataplane.switch", "DataplaneSwitch.process_many",
     "dataplane.process_many", 1, False),
    ("repro.net.simulator", "EventSimulator.run", "net.sim_run", None,
     False),
    ("repro.net.network", "Network.transmit", "net.transmit", None, False),
    ("repro.net.network", "Network.neighbor_ports", "net.neighbor_ports",
     None, False),
    ("repro.store.journal", "Journal.append", "store.append", None, False),
    ("repro.store.journal", "Journal.sync", "store.sync", None, False),
    ("repro.store.snapshot", "SnapshotStore.save", "store.snapshot", None,
     False),
]


def layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def install(tracer: Tracer) -> None:
    """Wrap every target, and every pipeline stage installed from now on."""
    from repro.dataplane.pipeline import Pipeline

    for module, path, name, items_arg, is_async in TARGETS:
        tracer.patch_callable(module, path, name, name.split(".")[0],
                              items_arg=items_arg, is_async=is_async)

    def traced_stage(fn):
        layer = layer_of_module(getattr(fn, "__module__", "") or "")
        return tracer.wrap(fn, f"{layer}.stage", layer)

    add_stage, insert_stage = Pipeline.add_stage, Pipeline.insert_stage
    tracer.patch(Pipeline, "add_stage",
                 lambda self, name, fn: add_stage(self, name,
                                                  traced_stage(fn)))
    tracer.patch(Pipeline, "insert_stage",
                 lambda self, index, name, fn: insert_stage(
                     self, index, name, traced_stage(fn)))


#: Every per-layer metric: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("service.dispatch.calls", "count", "lower"),
    ("service.dispatch.residence_share", "frac", "lower"),
    ("service.auth.verify.calls", "count", "lower"),
    ("service.auth.verify.self_share", "frac", "lower"),
    ("service.rejected_503", "count", "lower"),
    ("runtime.submit_many.calls", "count", "lower"),
    ("runtime.submit_many.ops", "count", "higher"),
    ("runtime.submit_many.self_share", "frac", "lower"),
    ("runtime.burst_mean", "ops", "higher"),
    ("runtime.in_flight_high_water", "count", "higher"),
    ("core.request_many.calls", "count", "lower"),
    ("core.request_many.ops", "count", "higher"),
    ("core.request_many.self_share", "frac", "lower"),
    ("core.handle_packet_in.calls", "count", "lower"),
    ("core.handle_packet_in.self_share", "frac", "lower"),
    ("core.stage.calls", "count", "lower"),
    ("core.stage.self_share", "frac", "lower"),
    ("core.kmp.handle_message.calls", "count", "lower"),
    ("core.kmp.handle_message.self_share", "frac", "lower"),
    ("core.kmp.retries", "count", "lower"),
    ("core.kmp.abandoned", "count", "lower"),
    ("crypto.scalar.calls", "count", "lower"),
    ("crypto.scalar.self_share", "frac", "lower"),
    ("crypto.vector.batches", "count", "higher"),
    ("crypto.vector.msgs", "count", "higher"),
    ("crypto.vector.self_share", "frac", "lower"),
    ("crypto.vector_share", "frac", "higher"),
    ("crypto.key_cache.hit_ratio", "frac", "higher"),
    ("crypto.dh.calls", "count", "lower"),
    ("crypto.dh.self_share", "frac", "lower"),
    ("crypto.kdf.calls", "count", "lower"),
    ("crypto.kdf.self_share", "frac", "lower"),
    ("dataplane.process.calls", "count", "lower"),
    ("dataplane.process.self_share", "frac", "lower"),
    ("dataplane.process_many.calls", "count", "higher"),
    ("dataplane.process_many.pkts", "count", "higher"),
    ("dataplane.drops", "count", "lower"),
    ("systems.stage.calls", "count", "lower"),
    ("systems.stage.self_share", "frac", "lower"),
    ("net.events", "count", "lower"),
    ("net.heap_high_water", "count", "lower"),
    ("net.sim_run.self_share", "frac", "lower"),
    ("net.transmit.calls", "count", "lower"),
    ("net.transmit.self_share", "frac", "lower"),
    ("net.neighbor_ports.calls", "count", "lower"),
    ("net.neighbor_ports.self_share", "frac", "lower"),
    ("store.append.calls", "count", "lower"),
    ("store.append.self_share", "frac", "lower"),
    ("store.sync.calls", "count", "lower"),
    ("store.sync.self_share", "frac", "lower"),
    ("store.snapshot.calls", "count", "lower"),
    ("store.snapshot.self_share", "frac", "lower"),
    ("store.journal_bytes", "bytes", "lower"),
] + [(f"layer.{layer}.self_share", "frac", "lower")
     for layer in LAYERS + ("other",)] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
]

#: Which end-to-end metric each layer's numbers should move, on which
#: workload, and where they should not move.
MOVES: Dict[str, Tuple[str, str]] = {
    "service": ("ops_per_s and point_p50_ms on cdp-service",
                "absent on dpdp-hula and kmp-fleet"),
    "runtime": ("ops_per_s and bulk_p95_ms on cdp-service",
                "absent on dpdp-hula and kmp-fleet"),
    "core": ("ops_per_s on cdp-service; ops_per_s (kmp_bootstrap_s, "
             "kmp_rollover_s) on kmp-fleet; dp_pkts_per_s on dpdp-hula "
             "through core.stage only",
             "request_many absent on dpdp-hula and kmp-fleet"),
    "crypto": ("ops_per_s and bulk_p50_ms on cdp-service; ops_per_s on "
               "kmp-fleet; dp_pkts_per_s on dpdp-hula",
               "a controller-side batch-lane change: no change on "
               "dpdp-hula or point_p50_ms"),
    "dataplane": ("dp_pkts_per_s on dpdp-hula",
                  "present everywhere, dominant only on dpdp-hula"),
    "systems": ("dp_pkts_per_s on dpdp-hula",
                "absent on cdp-service and kmp-fleet"),
    "net": ("dp_pkts_per_s on dpdp-hula; ops_per_s on kmp-fleet",
            "neighbor_ports has 0 calls on cdp-service"),
    "store": ("setup_s and ops_per_s on cdp-service",
              "absent on dpdp-hula and kmp-fleet"),
}


def _share(value: float, wall: float) -> float:
    return value / wall if wall > 0 else 0.0


def per_layer(tracer: Tracer, traced: Episode,
              reference: Episode) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced episode.

    Only spans that start inside the traced episode's set-up or timed
    phase count; the reference is the same episode run without tracing.
    """
    spans = [s for s in tracer.spans if span_in(traced.windows, s.start)]
    names = {s.id: s.name for s in spans}
    self_time = tracer.self_times()
    # Spans are raw host time; the overhead compares the two episodes
    # scaled to the nominal host, so a change of host speed cancels.
    wall = traced.raw_setup_s + traced.raw_phase_s
    traced_wall = traced.setup_s + traced.phase_s
    untraced = reference.setup_s + reference.phase_s

    calls: Dict[str, int] = defaultdict(int)
    items: Dict[str, int] = defaultdict(int)
    selfs: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    residence = 0.0
    for span in spans:
        if span.is_async:
            residence += span.end - span.start
        else:
            selfs[span.name] += self_time[span.id]
            layer_self[span.layer] += self_time[span.id]
        # Nested calls of one function (digest -> digest_from_state)
        # count once, as the outermost call.
        if names.get(span.parent) != span.name:
            calls[span.name] += 1
            items[span.name] += span.items

    c = traced.counters
    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = float(calls[base])
        elif field in ("ops", "pkts", "msgs"):
            out[name] = float(items[base])
        elif field == "self_share" and base.startswith("layer."):
            out[name] = _share(layer_self[base[len("layer."):]], wall)
        elif field == "self_share":
            out[name] = _share(selfs[base], wall)
        elif name in c:
            out[name] = float(c[name])
    out["layer.other.self_share"] = 1.0 - sum(
        out[f"layer.{layer}.self_share"] for layer in LAYERS)
    out["service.dispatch.residence_share"] = _share(residence, wall)
    out["runtime.burst_mean"] = (items["runtime.submit_many"]
                                 / calls["runtime.submit_many"]
                                 if calls["runtime.submit_many"] else 0.0)
    out["crypto.vector.batches"] = float(calls["crypto.vector"])
    out["crypto.vector_share"] = _share(c.get("digests_vector", 0.0),
                                        c.get("digests", 0.0))
    lookups = c.get("key_cache_hits", 0.0) + c.get("key_cache_misses", 0.0)
    out["crypto.key_cache.hit_ratio"] = _share(c.get("key_cache_hits", 0.0),
                                               lookups)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced_wall - untraced
    out["trace.overhead_frac"] = _share(traced_wall - untraced, untraced)
    out["trace.spans"] = float(len(spans))
    for name, _unit, _better in PER_LAYER:
        out.setdefault(name, 0.0)
    return out
