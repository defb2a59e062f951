"""Workload ``dpdp-hula``: the Fig 17 ``p4auth`` scenario, packet by packet.

Five HULA switches (Fig 3) with P4Auth on every switch protecting the
``hula_probe`` header, a :class:`~repro.attacks.link.ProbeFieldTamperer`
rewriting ``path_util`` on the S1-S4 link, probes from H5 every 5 ms and
data from H1 every 0.2 ms.  It is built from the same public pieces
``run_hula`` uses, so that set-up (topology, program install, key
bootstrap) is timed apart from the packet phase.  No service, runtime,
batching or store code runs here.
"""

from __future__ import annotations

import random
from typing import Dict, List

from pbench.calibrate import Stopwatch
from pbench.common import Episode, fingerprint, raise_if, require

NAME = "dpdp-hula"

SIZES: Dict[str, Dict[str, float]] = {
    "full": {"duration_s": 1.0, "warmup_s": 0.5},
    "tiny": {"duration_s": 0.2, "warmup_s": 0.1},
}

PROBE_PERIOD_S = 0.005
DATA_PERIOD_S = 0.0002
DATA_START_S = 0.05
#: Virtual time left after the last send for in-flight packets to land.
DRAIN_S = 0.05
BOOTSTRAP_S = 0.1
#: Virtual time per timed section, so the host-speed scaling follows a
#: phase that lasts about a second of host time.
SECTION_S = 0.35
DST_TOR = 5


def _build(seed: int):
    from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
    from repro.core.controller import P4AuthController
    from repro.net.topology import hula_fig3_topology
    from repro.systems.hula import HulaDataplane, fig3_hula_configs

    net, extras = hula_fig3_topology()
    sim = extras["sim"]
    configs = fig3_hula_configs()
    hulas = {name: HulaDataplane(net.switch(name), config).install()
             for name, config in configs.items()}
    dataplanes = {}
    for index, name in enumerate(sorted(configs)):
        dataplanes[name] = P4AuthDataplane(
            net.switch(name), k_seed=0xAB00 + 16 * seed + index,
            config=P4AuthConfig(protected_headers={"hula_probe"}),
        ).install()
    controller = P4AuthController(net)
    for dataplane in dataplanes.values():
        controller.provision(dataplane)
    controller.kmp.bootstrap_all()
    sim.run(until=BOOTSTRAP_S)
    return net, extras, hulas, dataplanes, controller


def _inputs(seed: int, size: Dict[str, float]):
    """Data inter-arrival gaps (mean ``DATA_PERIOD_S``), flow ids, the
    probe phase and the value the adversary forges."""
    rng = random.Random(f"dpdp-hula/{seed}")
    gaps: List[float] = []
    while sum(gaps) < size["duration_s"]:
        gaps.append(DATA_PERIOD_S * (0.5 + rng.random()))
    return {"gaps": gaps, "flows": [rng.getrandbits(32) for _ in gaps],
            "probe_start": rng.uniform(0.0, PROBE_PERIOD_S),
            "probe_base": rng.getrandbits(16),
            # Honest probes on the idle S4 path carry 0: forge anything
            # else, so every rewrite changes the probe.
            "forged_util": rng.randrange(1, 5)}


def run_episode(seed: int, size: Dict[str, float], workdir: str) -> Episode:
    """Set up the fabric, then run ``duration_s`` of probes and data."""
    from repro.attacks.link import ProbeFieldTamperer
    from repro.systems.hula import make_data_packet, make_probe

    inputs = _inputs(seed, size)
    setup = Stopwatch()
    setup.start()
    net, extras, hulas, dataplanes, controller = _build(seed)
    setup.stop()

    sim = extras["sim"]
    adversary = ProbeFieldTamperer("hula_probe", "path_util",
                                   inputs["forged_util"],
                                   direction_filter="b->a")
    adversary.attach(net.link_between("s1", "s4"))
    h1, h5 = extras["h1"], extras["h5"]
    start = sim.now
    stop_at = start + size["duration_s"]
    flows, gaps = inputs["flows"], inputs["gaps"]

    def send_probe(probe_id: int) -> None:
        if sim.now >= stop_at:
            return
        h5.send(make_probe(DST_TOR, probe_id & 0xFFFFFFFF))
        sim.schedule(PROBE_PERIOD_S, send_probe, probe_id + 1)

    def send_data(seq: int) -> None:
        if sim.now >= stop_at:
            return
        h1.send(make_data_packet(DST_TOR, flow_id=flows[seq],
                                 seq=seq & 0xFFFF))
        if seq + 1 < len(gaps):
            sim.schedule(gaps[seq], send_data, seq + 1)

    s1 = hulas["s1"]
    after_warmup: Dict[int, int] = {}

    def take_snapshot() -> None:
        after_warmup.update(s1.data_tx_per_port)

    sim.schedule(inputs["probe_start"], send_probe, inputs["probe_base"])
    sim.schedule(DATA_START_S, send_data, 0)
    sim.schedule(size["warmup_s"], take_snapshot)
    switches = [net.switch(name) for name in sorted(hulas)]
    passes_before = sum(s.pipeline_passes for s in switches)
    phase = Stopwatch()
    while sim.now < stop_at + DRAIN_S:
        phase.start()
        sim.run(until=min(sim.now + SECTION_S, stop_at + DRAIN_S))
        phase.stop()
    passes = sum(s.pipeline_passes for s in switches) - passes_before

    sent, delivered = h1.sent_count, len(h5.received)
    counts = {name: s1.data_tx_per_port.get(port, 0)
              - after_warmup.get(port, 0)
              for name, port in extras["paths"].items()}
    tampered = adversary.stats.modified
    s1_auth = dataplanes["s1"].stats
    failures: List[str] = []
    require(failures, delivered == sent,
            f"{sent - delivered} of {sent} data packets not delivered")
    require(failures, sum(counts.values()) > 0,
            "no data forwarded after warmup")
    require(failures, counts["s4"] == 0,
            f"s4 carried {counts['s4']} data packets after warmup")
    require(failures, tampered > 0, "the adversary tampered no probe")
    require(failures, s1_auth.digest_fail_dpdp == tampered,
            f"s1 rejected {s1_auth.digest_fail_dpdp} probes, "
            f"{tampered} were tampered")
    require(failures, net.switch("s1").packets_dropped == tampered,
            f"s1 dropped {net.switch('s1').packets_dropped} packets, "
            f"{tampered} probes were tampered")
    require(failures, len(controller.alerts) > 0, "no alert raised")
    for name, dataplane in dataplanes.items():
        if name != "s1":
            require(failures, dataplane.stats.digest_fail_dpdp == 0,
                    f"{name}: {dataplane.stats.digest_fail_dpdp} "
                    f"honest probes rejected")
    raise_if(failures, sent, sent - delivered)

    engines = [controller.digest] + [dp.digest
                                     for dp in dataplanes.values()]
    stats = {
        "counts_after_warmup": counts,
        "tx_per_port": sorted(s1.data_tx_per_port.items()),
        "sent": sent, "delivered": delivered, "tampered": tampered,
        "alerts": len(controller.alerts),
        "switches": {s.name: [s.pipeline_passes, s.packets_dropped,
                              sorted(s.drop_reasons.items())]
                     for s in switches},
        "auth": {name: [dp.stats.feedback_signed, dp.stats.feedback_verified,
                        dp.stats.digest_fail_dpdp, dp.stats.alerts_raised]
                 for name, dp in dataplanes.items()},
        "digests": [e.computed for e in engines],
        "best_hop": [s1.best_hop.read(DST_TOR), s1.min_util.read(DST_TOR)],
        "events": sim.events_executed, "now": sim.now,
    }
    counters = {
        "core.kmp.retries": float(controller.kmp.stats.retries),
        "core.kmp.abandoned": float(len(controller.kmp.stats.failures)),
        "digests": float(sum(e.computed for e in engines)),
        "digests_vector": float(sum(e.vector_messages for e in engines)),
        "key_cache_hits": float(sum(e.key_state_hits for e in engines)),
        "key_cache_misses": float(sum(e.key_state_misses for e in engines)),
        "dataplane.drops": float(sum(s.packets_dropped for s in switches)),
        "net.events": float(sim.events_executed),
        "net.heap_high_water": float(sim.heap_depth_high_water),
    }
    return Episode(
        setup_s=setup.scaled, phase_s=phase.scaled,
        raw_setup_s=setup.raw, raw_phase_s=phase.raw, ops=delivered, attempted=sent, failed=sent - delivered,
        passes=passes, fingerprint=fingerprint(stats),
        windows=setup.windows + phase.windows,
        counters=counters)


def setup_only(seed: int, size: Dict[str, float],
               workdir: str) -> Stopwatch:
    setup = Stopwatch()
    setup.start()
    _build(seed)
    setup.stop()
    return setup
