"""Fig 21: P4Auth's per-hop overhead on in-network control messages.

HULA probes traverse a linear chain of 2..10 switches; P4Auth verifies
each probe on ingress and re-signs it on egress at every keyed hop.  The
paper measures probe traversal time (host to host) with and without
P4Auth: overhead grows near-linearly with hop count — +0.95% at 2 hops,
+5.9% at 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.net.topology import linear_chain
from repro.systems.hula import HulaDataplane, chain_hula_configs, make_probe

#: ToR id used for chain probes (any value works; nothing routes on it).
CHAIN_TOR = 9


@dataclass
class MultihopResult:
    num_switches: int
    with_p4auth: bool
    traversal_times_s: List[float] = field(default_factory=list)

    @property
    def mean_traversal_s(self) -> float:
        return sum(self.traversal_times_s) / len(self.traversal_times_s)


def run_multihop(num_switches: int, with_p4auth: bool,
                 num_probes: int = 50, spacing_s: float = 0.005,
                 telemetry=None) -> MultihopResult:
    """Send probes down an ``num_switches``-hop chain; time each traversal."""
    if num_switches < 2:
        raise ValueError("the chain experiment needs at least 2 switches")
    net, extras = linear_chain(num_switches, telemetry=telemetry)
    sim = extras["sim"]
    for name, config in chain_hula_configs(num_switches).items():
        HulaDataplane(net.switch(name), config).install()

    if with_p4auth:
        dataplanes = []
        for index, name in enumerate(extras["switches"]):
            dataplanes.append(P4AuthDataplane(
                net.switch(name), k_seed=0xC0DE00 + index,
                config=P4AuthConfig(protected_headers={"hula_probe"}),
            ).install())
        controller = P4AuthController(net)
        for dataplane in dataplanes:
            controller.provision(dataplane)
        controller.kmp.bootstrap_all()
        sim.run(until=1.0)

    src, dst = extras["src"], extras["dst"]
    send_times: Dict[int, float] = {}
    result = MultihopResult(num_switches, with_p4auth)

    def on_arrival(packet, now: float) -> None:
        if not packet.has("hula_probe"):
            return
        probe_id = packet.get("hula_probe")["probe_id"]
        if probe_id in send_times:
            result.traversal_times_s.append(now - send_times[probe_id])

    dst.on_packet = on_arrival

    start = sim.now
    for index in range(num_probes):
        at = start + index * spacing_s

        def send(probe_id: int = index, when: float = at) -> None:
            send_times[probe_id] = when
            src.send(make_probe(CHAIN_TOR, probe_id))

        sim.schedule_at(at, send)
    sim.run(until=start + num_probes * spacing_s + 1.0)
    if not result.traversal_times_s:
        raise RuntimeError("no probes arrived — chain misconfigured")
    return result


def curve_from_trials(results) -> List[dict]:
    """The Fig 21 series (per-hop traversal times and P4Auth overhead %)
    from per-(hops, with_p4auth) trial results.  A hop count that lacks
    either side of the pair is left out."""
    by_key = {(r["num_switches"], r["with_p4auth"]): r for r in results}
    rows = []
    for hops in sorted({k for k, _ in by_key}):
        if (hops, False) not in by_key or (hops, True) not in by_key:
            continue
        base = by_key[(hops, False)]
        auth = by_key[(hops, True)]
        overhead = (auth["mean_traversal_s"] / base["mean_traversal_s"]
                    - 1.0) * 100
        rows.append({
            "hops": hops,
            "base_us": base["mean_traversal_s"] * 1e6,
            "p4auth_us": auth["mean_traversal_s"] * 1e6,
            "overhead_pct": overhead,
        })
    return rows


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    result = run_multihop(p["hops"], p["with_p4auth"],
                          num_probes=p["num_probes"],
                          spacing_s=p["spacing_s"], telemetry=ctx.telemetry)
    return {
        "num_switches": result.num_switches,
        "with_p4auth": result.with_p4auth,
        "mean_traversal_s": result.mean_traversal_s,
        "traversal_times_s": result.traversal_times_s,
    }


def paper_table(trials):
    """Fig 21 as a table: probe traversal time and overhead per hop count."""
    rows = [[r["hops"], f"{r['base_us']:.1f}", f"{r['p4auth_us']:.1f}",
             f"{r['overhead_pct']:.2f}%"]
            for r in curve_from_trials([t["result"] for t in trials])]
    return ["hops", "base (us)", "P4Auth (us)", "overhead"], rows


SPEC = register(ExperimentSpec(
    name="fig21",
    title="Probe traversal overhead vs hop count",
    source="Fig 21",
    trial=_trial,
    grid={"hops": list(range(2, 11)), "with_p4auth": [False, True]},
    defaults={"num_probes": 50, "spacing_s": 0.005},
    short={"hops": [2, 4], "num_probes": 10},
    paper_table=paper_table,
    tags=("figure", "overhead"),
))
