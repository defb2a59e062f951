"""Fig 16: P4Auth prevents traffic imbalance in RouteScout.

Three runs over the same synthetic CAIDA-like trace:

1. ``baseline`` — no adversary (DP-Reg-RW stack): the controller splits
   traffic by measured per-path latency (~64% on the lower-latency path).
2. ``attack`` — a compromised-OS adversary inflates path-1's latency in
   read responses from ``attack_start_s`` on: the controller shifts ~70%
   of traffic onto path 2.
3. ``p4auth`` — same adversary against the authenticated stack: tampered
   responses fail verification, the controller retains the pre-attack
   split, and alerts are raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.attacks.control_plane import RegisterResponseTamperer
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.net.trace import TraceGenerator
from repro.runtime.plain import PlainController, PlainRegOpDataplane
from repro.systems.routescout import (
    RouteScoutController,
    RouteScoutDataplane,
    make_rs_packet,
)

MODES = ("baseline", "attack", "p4auth")

#: How much the adversary inflates the reported path-1 latency aggregate.
TAMPER_FACTOR = 6


@dataclass
class RouteScoutResult:
    mode: str
    #: Traffic shares measured over the attack window
    #: [attack_start_s, duration_s] — the steady state Fig 16 plots.
    share_path1: float
    share_path2: float
    #: Shares over the whole run, including the pre-attack phase.
    overall_share_path1: float = 0.0
    overall_share_path2: float = 0.0
    split_history: List[int] = field(default_factory=list)
    epochs_skipped: int = 0
    tamper_events: int = 0
    alerts: int = 0
    packets_forwarded: int = 0


def run_routescout(mode: str, duration_s: float = 60.0, seed: int = 42,
                   flow_rate_hz: float = 40.0,
                   attack_start_s: float = 10.0,
                   max_packets_per_flow: int = 60,
                   packet_spacing_s: float = 0.002,
                   telemetry=None) -> RouteScoutResult:
    """Run one Fig 16 scenario and report the per-path traffic shares."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("edge", num_ports=3, seed=seed)
    net.add_switch(switch)
    routescout = RouteScoutDataplane(switch).install()

    # Control stack: authenticated or plain, per mode.
    if mode == "p4auth":
        dataplane = P4AuthDataplane(switch, k_seed=0x5EC11E7).install()
        dataplane.map_all_registers()
        client = P4AuthController(net)
        client.provision(dataplane)
        client.kmp.local_key_init("edge")
        sim.run(until=0.05)
    else:
        dataplane = None
        plain_dp = PlainRegOpDataplane(switch).install()
        plain_dp.map_all_registers()
        client = PlainController(net)
        client.provision(switch)

    controller = RouteScoutController(client, sim, "edge", epoch_s=1.0)
    controller.start()

    # All experiment times are relative to "base": key initialization (in
    # p4auth mode) has already consumed some simulated time.
    base = sim.now

    # The adversary arrives mid-experiment (the paper's "retains the
    # original ratio" needs an established pre-attack ratio).
    if mode in ("attack", "p4auth"):
        lat_sum_id = switch.registers.id_of("rs_lat_sum")
        adversary = RegisterResponseTamperer(
            targets=[(lat_sum_id, 0)],
            transform=lambda value: value * TAMPER_FACTOR,
        )
        channel = net.control_channels["edge"]
        sim.schedule(attack_start_s, adversary.attach, channel)

    # Snapshot the per-path counters when the attack begins, so shares
    # can be reported for the attack window (the steady state Fig 16
    # plots) as well as overall.
    snapshot = {}
    sim.schedule(attack_start_s,
                 lambda: snapshot.update(routescout.tx_per_path))

    # Synthetic CAIDA-like traffic: heavy-tailed flows, Poisson arrivals.
    generator = TraceGenerator(seed=seed, arrival_rate_hz=flow_rate_hz)
    node = net.nodes["edge"]
    for flow in generator.flows(duration_s):
        packets = min(flow.packet_count(), max_packets_per_flow)
        for index in range(packets):
            at = flow.start_time + index * packet_spacing_s
            if at >= duration_s:
                break
            sim.schedule_at(base + at, node.receive,
                            make_rs_packet(flow.dst_ip, flow.flow_id), 1)

    sim.run(until=base + duration_s)
    controller.stop()

    total = sum(routescout.tx_per_path.values()) or 1
    window = {
        path: routescout.tx_per_path[path] - snapshot.get(path, 0)
        for path in (0, 1)
    }
    window_total = sum(window.values()) or 1
    result = RouteScoutResult(
        mode=mode,
        share_path1=window[0] / window_total,
        share_path2=window[1] / window_total,
        overall_share_path1=routescout.tx_per_path[0] / total,
        overall_share_path2=routescout.tx_per_path[1] / total,
        split_history=list(controller.split_history),
        epochs_skipped=controller.epochs_skipped,
        packets_forwarded=routescout.forwarded,
    )
    if mode == "p4auth":
        result.tamper_events = len(client.tamper_events)
        result.alerts = len(client.alerts)
    return result


def run_all(duration_s: float = 60.0, seed: int = 42) -> Dict[str, RouteScoutResult]:
    return {mode: run_routescout(mode, duration_s, seed) for mode in MODES}


def _trial(ctx: TrialContext) -> RouteScoutResult:
    p = ctx.params
    return run_routescout(
        p["mode"], duration_s=p["duration_s"], seed=p["seed"],
        flow_rate_hz=p["flow_rate_hz"], attack_start_s=p["attack_start_s"],
        max_packets_per_flow=p["max_packets_per_flow"],
        packet_spacing_s=p["packet_spacing_s"], telemetry=ctx.telemetry)


def paper_table(trials):
    """Fig 16 as a table: per-path traffic share in the attack window."""
    rows = [[t["params"]["mode"], f"{t['result']['share_path1'] * 100:.1f}%",
             f"{t['result']['share_path2'] * 100:.1f}%",
             t["result"]["epochs_skipped"], t["result"]["tamper_events"]]
            for t in trials]
    return ["mode", "path1", "path2", "epochs skipped", "tamper events"], rows


SPEC = register(ExperimentSpec(
    name="fig16",
    title="RouteScout traffic distribution",
    source="Fig 16",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"duration_s": 60.0, "seed": 42, "flow_rate_hz": 40.0,
              "attack_start_s": 10.0, "max_packets_per_flow": 60,
              "packet_spacing_s": 0.002},
    short={"duration_s": 8.0, "attack_start_s": 2.0},
    seed_param="seed",
    paper_table=paper_table,
    tags=("figure", "defense"),
))
