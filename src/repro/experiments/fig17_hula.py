"""Fig 17: P4Auth prevents congestion of the compromised path in HULA.

The Fig 3 topology: S1 reaches S5 via S2, S3, and S4.  Probes flow
S5 -> {S2,S3,S4} -> S1; data flows S1 -> best hop -> S5.

1. ``baseline`` — HULA's utilization feedback spreads traffic roughly
   equally across the three paths.
2. ``attack`` — a MitM on the S1-S4 link rewrites ``path_util`` in
   probes to a tiny value: S1 believes the S4 path is idle and reroutes
   >70% of traffic through the compromised link.
3. ``p4auth`` — probes carry per-link digests; S1 detects the tampering,
   drops the probes, alerts the controller, and traffic stays off the
   compromised link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.attacks.link import ProbeFieldTamperer
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.net.topology import hula_fig3_topology
from repro.systems.hula import (
    HulaDataplane,
    fig3_hula_configs,
    make_data_packet,
    make_probe,
)

MODES = ("baseline", "attack", "p4auth")

#: ToR id of the destination (S5) in the Fig 3 scenario.
DST_TOR = 5


@dataclass
class HulaResult:
    mode: str
    #: Traffic share of each S1 uplink: {"s2": f, "s3": f, "s4": f}.
    shares: Dict[str, float] = field(default_factory=dict)
    data_sent: int = 0
    data_delivered: int = 0
    probes_tampered: int = 0
    probes_dropped_at_s1: int = 0
    alerts: int = 0


def run_hula(mode: str, duration_s: float = 5.0, seed: int = 7,
             probe_period_s: float = 0.005, data_period_s: float = 0.0002,
             warmup_s: float = 0.5, telemetry=None) -> HulaResult:
    """Run one Fig 17 scenario; shares measured after ``warmup_s``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    net, extras = hula_fig3_topology(telemetry=telemetry)
    sim = extras["sim"]
    configs = fig3_hula_configs()
    hulas: Dict[str, HulaDataplane] = {}
    for name, config in configs.items():
        hulas[name] = HulaDataplane(net.switch(name), config).install()

    controller = None
    if mode == "p4auth":
        # P4Auth wraps each switch's pipeline (verify first, sign last).
        dataplanes = {}
        for index, name in enumerate(sorted(configs)):
            dataplane = P4AuthDataplane(
                net.switch(name), k_seed=0xAB00 + index,
                config=P4AuthConfig(protected_headers={"hula_probe"}),
            ).install()
            dataplanes[name] = dataplane
        controller = P4AuthController(net)
        for dataplane in dataplanes.values():
            controller.provision(dataplane)
        controller.kmp.bootstrap_all()
        sim.run(until=0.1)

    if mode in ("attack", "p4auth"):
        link = net.link_between("s1", "s4")
        # Probes travel S4 -> S1.  hula_fig3_topology connects
        # ("s1", 4) <-> ("s4", 1), so that flow is direction "b->a".
        adversary = ProbeFieldTamperer("hula_probe", "path_util", 2,
                                       direction_filter="b->a")
        adversary.attach(link)
    else:
        adversary = None

    h1, h5 = extras["h1"], extras["h5"]

    def send_probe(probe_id: int = 0) -> None:
        if sim.now >= duration_s:
            return
        h5.send(make_probe(DST_TOR, probe_id))
        sim.schedule(probe_period_s, send_probe, probe_id + 1)

    def send_data(seq: int = 0) -> None:
        if sim.now >= duration_s:
            return
        h1.send(make_data_packet(DST_TOR, flow_id=seq, seq=seq & 0xFFFF))
        sim.schedule(data_period_s, send_data, seq + 1)

    sim.schedule(0.0, send_probe)
    sim.schedule(0.05, send_data)

    # Snapshot S1's per-port counters at the end of warmup, then measure.
    s1 = hulas["s1"]
    snapshot: Dict[int, int] = {}

    def take_snapshot() -> None:
        snapshot.update({port: count
                         for port, count in s1.data_tx_per_port.items()})

    sim.schedule(warmup_s, take_snapshot)
    sim.run(until=duration_s)

    port_to_path = {port: name for name, port in extras["paths"].items()}
    counts = {
        name: s1.data_tx_per_port.get(port, 0) - snapshot.get(port, 0)
        for port, name in port_to_path.items()
    }
    total = sum(counts.values()) or 1
    result = HulaResult(
        mode=mode,
        shares={name: count / total for name, count in counts.items()},
        data_sent=h1.sent_count,
        data_delivered=len(h5.received),
        probes_tampered=adversary.stats.modified if adversary else 0,
        probes_dropped_at_s1=(
            net.nodes["s1"].switch.packets_dropped if mode == "p4auth" else 0
        ),
        alerts=len(controller.alerts) if controller is not None else 0,
    )
    return result


def run_all(duration_s: float = 5.0) -> Dict[str, HulaResult]:
    return {mode: run_hula(mode, duration_s) for mode in MODES}


def _trial(ctx: TrialContext) -> HulaResult:
    p = ctx.params
    return run_hula(
        p["mode"], duration_s=p["duration_s"], seed=p["seed"],
        probe_period_s=p["probe_period_s"],
        data_period_s=p["data_period_s"], warmup_s=p["warmup_s"],
        telemetry=ctx.telemetry)


def paper_table(trials):
    """Fig 17 as a table: S1's traffic share per uplink, after warmup."""
    rows = [[t["params"]["mode"]]
            + [f"{t['result']['shares'][hop] * 100:.1f}%"
               for hop in ("s2", "s3", "s4")]
            + [t["result"]["alerts"]]
            for t in trials]
    return ["mode", "via S2", "via S3", "via S4", "alerts"], rows


SPEC = register(ExperimentSpec(
    name="fig17",
    title="HULA traffic distribution",
    source="Fig 17",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"duration_s": 5.0, "seed": 7, "probe_period_s": 0.005,
              "data_period_s": 0.0002, "warmup_s": 0.5},
    short={"duration_s": 1.5},
    seed_param="seed",
    paper_table=paper_table,
    tags=("figure", "defense"),
))
