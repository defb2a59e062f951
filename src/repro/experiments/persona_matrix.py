"""Persona × system × load matrix: every attacker against every system.

ROADMAP item 5: sweep the first-class attacker personas
(:mod:`repro.attacks.personas`) against each protected in-network
control system under heavy-tailed trace load, and report two operating
curves per (persona, system):

- **detection latency** — virtual seconds from persona arm to the first
  defense signal (C-DP/DP-DP digest failure, replay rejection, tampered
  response, alert) observed by the polled detector;
- **DoS threshold** — whether the §VIII alert rate limiter engaged
  (``alerts_suppressed``/``dos_suspected``) at the persona's injection
  rate, tracing out the rate at which mitigation kicks in.

Every trial builds the same two-switch world: ``s1`` runs the system
under test plus P4Auth, ``s2`` is an authenticated neighbor so the
s1-s2 link carries port-key-signed DP-DP traffic (HULA probes).  A
seeded heavy-tailed :class:`~repro.net.trace.TraceGenerator` drives the
data plane; the controller's C-DP loop issues batched authenticated
reads/writes of a dedicated ``persona_reg`` via the windowed
:class:`~repro.runtime.batch.BatchController`; KMP rolls keys over
mid-run (the rollover-racer's trigger).  Ground truth reuses the chaos
suite's register-sampling invariant: **zero forged writes must land**
under every persona.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.attacks.personas import (
    PERSONA_KINDS,
    GroundTruthSampler,
    PersonaSpec,
    PersonaWorld,
    build_persona,
)
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.faults.plan import FaultPlan
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.net.trace import TraceGenerator
from repro.runtime.batch import BatchController
from repro.systems.blink import BLINK_DATA_HEADER, BlinkDataplane
from repro.systems.hula import (
    HulaConfig,
    HulaDataplane,
    make_data_packet,
    make_probe,
)
from repro.systems.netcache import (
    NC_QUERY_HEADER,
    NetCacheDataplane,
    zipf_key,
)
from repro.systems.routescout import RouteScoutDataplane, make_rs_packet

SYSTEMS = ("hula", "routescout", "netcache", "blink")

#: Detection signals, polled in this (deterministic) precedence order.
WATCHED_SIGNALS = (
    "digest_fail_cdp",
    "digest_fail_dpdp",
    "replays_detected",
    "tampered_responses",
    "unsolicited_nacks",
    "alerts_received",
)

#: Destination ToR the HULA world delivers to at s1.
_HULA_TOR = 5
#: Detector poll period (bounds detection-latency resolution).
_POLL_S = 0.01
#: Post-run grace window: clean write + residual detection.
_GRACE_S = 0.3


def _fault_plan(params: Dict[str, Any], seed: int) -> FaultPlan:
    """One persona per trial, declared as plan data next to the faults."""
    return FaultPlan(seed=seed, personas=[PersonaSpec(
        kind=params["persona"], rate_hz=float(params["attack_rate_hz"]),
        seed=seed)])


def run_persona_trial(persona_kind: str, system: str,
                      attack_rate_hz: float = 200.0,
                      duration_s: float = 3.0, load_hz: float = 120.0,
                      seed: int = 7, spec: PersonaSpec = None,
                      telemetry=None) -> Dict[str, Any]:
    """One matrix cell: arm one persona against one system under load."""
    if system not in SYSTEMS:
        raise ValueError(f"system must be one of {SYSTEMS}")
    if spec is None:
        spec = PersonaSpec(kind=persona_kind, rate_hz=attack_rate_hz,
                           seed=seed)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    s1 = DataplaneSwitch("s1", num_ports=4, seed=seed)
    s2 = DataplaneSwitch("s2", num_ports=4, seed=seed + 1)
    net.add_switch(s1)
    net.add_switch(s2)
    net.connect("s1", 1, "s2", 1)

    # System under test on s1 (s2 relays HULA probes so they cross the
    # port-key-signed link — the DP-DP MitM's only real surface here).
    if system == "hula":
        HulaDataplane(s1, HulaConfig(
            probe_routes={1: []}, edge_delivery={_HULA_TOR: 2},
            uplink_ports=[1], max_tors=8)).install()
        HulaDataplane(s2, HulaConfig(probe_routes={2: [1]},
                                     max_tors=8)).install()
    elif system == "routescout":
        RouteScoutDataplane(s1).install()
    elif system == "netcache":
        NetCacheDataplane(s1).install()
    else:
        blink = BlinkDataplane(s1, num_prefixes=8).install()
        blink.set_prefix(0, active=2, backup=3)

    # The C-DP loop's target register, defined before provisioning so the
    # controller's p4info covers it.
    s1.registers.define("persona_reg", 64, 8)

    protected = {"hula_probe"} if system == "hula" else set()
    dp1 = P4AuthDataplane(s1, k_seed=0xAD0001 + seed % 997,
                          config=P4AuthConfig(
                              protected_headers=set(protected))).install()
    dp1.map_all_registers()
    dp2 = P4AuthDataplane(s2, k_seed=0xAD1001 + seed % 997,
                          config=P4AuthConfig(
                              protected_headers=set(protected))).install()
    controller = P4AuthController(net, request_timeout_s=0.05)
    controller.provision(dp1)
    controller.provision(dp2)
    controller.kmp.bootstrap_all()
    sim.run(until=0.3)
    base = sim.now
    attack_start_s = duration_s * 0.25

    # --- C-DP loop: batched authenticated reads/writes of persona_reg --
    batch = BatchController(controller, max_in_flight=8)
    issued = [0x1000 + k for k in range(32)]
    allowed = {0} | set(issued)

    def cdp_tick(k: int = 0) -> None:
        if sim.now >= base + duration_s:
            return
        ops: List[tuple] = []
        for j in range(4):
            slot = (k * 4 + j) % 8
            ops.append(("write", "s1", "persona_reg", slot,
                        issued[(k * 4 + j) % 32], None))
        ops.append(("read", "s1", "persona_reg", k % 8, 0, None))
        batch.submit_many(ops)
        sim.schedule(0.05, cdp_tick, k + 1)

    sim.schedule(0.05, cdp_tick)

    # --- data-plane workload: seeded heavy-tailed trace ----------------
    node1 = net.nodes["s1"]
    node2 = net.nodes["s2"]
    prng = XorShiftPrng(seed or 1)
    generator = TraceGenerator(seed=seed, arrival_rate_hz=load_hz)
    injected = 0
    for flow in generator.flows(duration_s):
        packets = min(flow.packet_count(), 20)
        for index in range(packets):
            at = flow.start_time + index * 0.002
            if at >= duration_s:
                break
            if system == "hula":
                packet = make_data_packet(_HULA_TOR, flow.flow_id,
                                          seq=index)
            elif system == "routescout":
                packet = make_rs_packet(flow.dst_ip, flow.flow_id)
            elif system == "netcache":
                packet = Packet()
                packet.push("nc_query", NC_QUERY_HEADER.instantiate(
                    key=zipf_key(prng)))
            else:
                packet = Packet()
                packet.push("blink_data", BLINK_DATA_HEADER.instantiate(
                    prefix_id=0, seq=injected & 0xFFFFFFFF))
            sim.schedule_at(base + at, node1.receive, packet, 3)
            injected += 1

    if system == "hula":
        def send_probe(probe_id: int = 0) -> None:
            if sim.now >= base + duration_s:
                return
            node2.receive(make_probe(_HULA_TOR, probe_id), 2)
            sim.schedule(0.005, send_probe, probe_id + 1)
        sim.schedule(0.0, send_probe)

    # KMP churn: periodic rollover (the rollover-racer's trigger).
    controller.kmp.schedule_rollover(max(0.4, duration_s / 3))

    # --- ground truth: forged writes must never land -------------------
    sampler = GroundTruthSampler(sim, s1, "persona_reg", allowed)
    sim.schedule(0.05, sampler.start, base + duration_s + _GRACE_S)

    # --- the persona ---------------------------------------------------
    world = PersonaWorld(
        sim=sim, net=net, controller=controller, switch_name="s1",
        dataplane=dp1, target_register="persona_reg",
        control_channel=net.control_channels["s1"],
        duration_s=duration_s - attack_start_s,
        dp_link=net.link_between("s1", "s2"),
        probe_header="hula_probe" if system == "hula" else None,
        probe_field="path_util")
    persona = build_persona(spec)
    sim.schedule_at(base + attack_start_s, persona.arm, world)

    # --- detector: poll defense counters against an armed-at snapshot --
    def counters() -> Dict[str, int]:
        return {
            "digest_fail_cdp": (dp1.stats.digest_fail_cdp
                                + dp2.stats.digest_fail_cdp),
            "digest_fail_dpdp": (dp1.stats.digest_fail_dpdp
                                 + dp2.stats.digest_fail_dpdp),
            "replays_detected": (dp1.stats.replays_detected
                                 + dp2.stats.replays_detected),
            "tampered_responses": controller.stats.tampered_responses,
            "unsolicited_nacks": controller.stats.unsolicited_nacks,
            "alerts_received": controller.stats.alerts_received,
        }

    snapshot: Dict[str, int] = {}
    detect: Dict[str, Any] = {"latency_s": None, "signal": None}

    def poll() -> None:
        if detect["signal"] is not None:
            return
        now_counters = counters()
        for name in WATCHED_SIGNALS:
            if now_counters[name] > snapshot[name]:
                detect["latency_s"] = sim.now - (base + attack_start_s)
                detect["signal"] = name
                return
        if sim.now < base + duration_s + _GRACE_S:
            sim.schedule(_POLL_S, poll)

    def arm_detector() -> None:
        snapshot.update(counters())
        sim.schedule(_POLL_S, poll)

    sim.schedule_at(base + attack_start_s, arm_detector)

    sim.run(until=base + duration_s, max_events=2_000_000)
    persona.disarm()

    # Post-attack: a clean authenticated write must still succeed.
    clean: List[bool] = []
    controller.write_register("s1", "persona_reg", 0, 0x600D,
                              callback=lambda ok, _v: clean.append(ok))
    allowed.add(0x600D)
    sim.run(until=base + duration_s + _GRACE_S, max_events=500_000)

    outcome = persona.outcome()
    forged = sampler.forged()
    alerts_suppressed = dp1.stats.alerts_suppressed
    mitigated = bool(alerts_suppressed > 0 or controller.stats.dos_suspected)
    return {
        "persona": spec.kind,
        "system": system,
        "attack_rate_hz": spec.rate_hz,
        "detected": detect["signal"] is not None,
        "detection_latency_s": detect["latency_s"],
        "detection_signal": detect["signal"],
        "forged_writes": len(forged),
        "ground_truth_samples": len(sampler.samples),
        "alerts_raised": dp1.stats.alerts_raised,
        "alerts_suppressed": alerts_suppressed,
        "dos_suspected": bool(controller.stats.dos_suspected),
        "mitigation_engaged": mitigated,
        "clean_write_ok": bool(clean and clean[0]),
        "workload_packets": injected,
        "persona_outcome": outcome.as_dict(),
    }


def _trial(ctx: TrialContext) -> Dict[str, Any]:
    p = ctx.params
    plan = ctx.fault_plan or _fault_plan(p, ctx.seed)
    plan.validate()
    return run_persona_trial(
        p["persona"], p["system"],
        attack_rate_hz=p["attack_rate_hz"], duration_s=p["duration_s"],
        load_hz=p["load_hz"], seed=p["seed"], spec=plan.personas[0],
        telemetry=ctx.telemetry)


SPEC = register(ExperimentSpec(
    name="persona_matrix",
    title="Attacker personas vs protected systems: operating curves",
    source="§II-A/§VIII matrix",
    trial=_trial,
    grid={"persona": list(PERSONA_KINDS),
          "system": list(SYSTEMS),
          "attack_rate_hz": [50.0, 200.0, 800.0]},
    defaults={"duration_s": 3.0, "load_hz": 120.0, "seed": 7},
    short={"attack_rate_hz": [40.0, 400.0], "duration_s": 1.2,
           "load_hz": 60.0},
    seed_param="seed",
    fault_plan=_fault_plan,
    tags=("matrix", "attack", "defense"),
))
