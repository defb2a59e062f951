"""Table III: P4Auth scalability with simultaneous key operations.

Two complementary reproductions:

1. **Live count** — build an actual m-switch, n-link network (a random
   4-regular graph gives m=25, n=50 exactly), bootstrap every key, roll
   every key once, and count the controller's real message/byte load.
2. **Analytic formulas** — 4m+5n / 2m+3n messages and 104m+138n /
   60m+78n bytes, evaluated at the paper's (m=25, n=50) point.

Known paper inconsistency (documented in DESIGN.md): Table III states 125
messages for key update at m=25, n=50, but its own formula 2m+3n gives
200.  The byte figure (5.4 KB) does follow from 60m+78n; our live count
confirms 200 messages and 5.4 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.net.topology import random_regular_fabric


@dataclass
class ScalabilityResult:
    m_switches: int
    n_links: int
    init_messages: int
    init_bytes: int
    update_messages: int
    update_bytes: int
    formula_init_messages: int
    formula_init_bytes: int
    formula_update_messages: int
    formula_update_bytes: int
    #: Wall(simulated)-clock the parallel bootstrap actually took, vs the
    #: serial lower bound (sum of individual operation RTTs).  Quantifies
    #: §XI's "150 ms ... improves significantly when done in parallel".
    parallel_init_time_s: float = 0.0
    serial_init_time_s: float = 0.0


def formulas(m: int, n: int) -> Dict[str, int]:
    """The paper's Table III scaling formulas."""
    return {
        "init_messages": 4 * m + 5 * n,
        "init_bytes": 104 * m + 138 * n,
        "update_messages": 2 * m + 3 * n,
        "update_bytes": 60 * m + 78 * n,
    }


def build_regular_network(m: int = 25, degree: int = 4,
                          seed: int = 1, telemetry=None) -> tuple:
    """An m-switch P4Auth deployment on the shared random-regular fabric
    (m=25, d=4 gives exactly the paper's n=50 links)."""

    def factory(name: str, num_ports: int) -> DataplaneSwitch:
        node = int(name[2:])  # fabric names switches "sw<i>"
        return DataplaneSwitch(name, num_ports=num_ports, seed=seed + node)

    net, extras = random_regular_fabric(m, degree, seed, factory=factory,
                                        telemetry=telemetry)
    sim, graph = extras["sim"], extras["graph"]
    controller = P4AuthController(net)
    for name in extras["switches"]:
        node = int(name[2:])
        dataplane = P4AuthDataplane(net.switch(name),
                                    k_seed=0x1000 + node).install()
        controller.provision(dataplane)
    return sim, net, controller, graph


def run_table3(m: int = 25, degree: int = 4, seed: int = 1,
               telemetry=None) -> ScalabilityResult:
    """Bootstrap and roll every key on a live m-switch network; count."""
    sim, net, controller, graph = build_regular_network(m, degree, seed,
                                                        telemetry)
    n = graph.number_of_edges()
    kmp = controller.kmp

    bootstrap_started = sim.now
    done = []
    kmp.bootstrap_all(on_done=lambda: done.append(sim.now))
    sim.run(until=30.0)
    if not done:
        raise RuntimeError("bootstrap did not complete")
    parallel_init_time = done[0] - bootstrap_started
    init_records = list(kmp.stats.records)
    init_messages = sum(r.messages for r in init_records)
    init_bytes = sum(r.bytes for r in init_records)

    # One full rollover: update every local key and every port key.
    before = len(kmp.stats.records)
    for switch in sorted(controller.dataplanes):
        kmp.local_key_update(switch)
    for sw_a, port_a, _sw_b, _port_b in kmp.switch_links():
        kmp.port_key_update(sw_a, port_a)
    sim.run(until=sim.now + 30.0)
    update_records = kmp.stats.records[before:]
    update_messages = sum(r.messages for r in update_records)
    update_bytes = sum(r.bytes for r in update_records)

    expected = formulas(m, n)
    return ScalabilityResult(
        m_switches=m,
        n_links=n,
        init_messages=init_messages,
        init_bytes=init_bytes,
        update_messages=update_messages,
        update_bytes=update_bytes,
        formula_init_messages=expected["init_messages"],
        formula_init_bytes=expected["init_bytes"],
        formula_update_messages=expected["update_messages"],
        formula_update_bytes=expected["update_bytes"],
        parallel_init_time_s=parallel_init_time,
        serial_init_time_s=sum(r.rtt_s for r in init_records),
    )


@dataclass
class MultiDomainResult:
    """The §XI multi-controller analysis (e.g., 8 ONOS instances)."""

    total_switches: int
    total_links: int
    domains: int
    per_domain: ScalabilityResult

    @property
    def per_controller_init_messages(self) -> int:
        return self.per_domain.init_messages

    @property
    def fleet_init_messages(self) -> int:
        return self.per_domain.init_messages * self.domains


def run_multidomain(total_switches: int = 200, domains: int = 8,
                    degree: int = 4, seed: int = 1) -> MultiDomainResult:
    """§XI: a physically distributed controller splits the network into
    per-controller domains; each domain's load is one Table III run.

    The paper's example (205 switches, 414 links, 8 ONOS controllers ->
    ~25 switches / ~50 links per controller) rounds to exactly the
    m=25/degree-4 domain we can build live.
    """
    per_domain_switches = total_switches // domains
    domain = run_table3(m=per_domain_switches, degree=degree, seed=seed)
    return MultiDomainResult(
        total_switches=total_switches,
        total_links=domain.n_links * domains,
        domains=domains,
        per_domain=domain,
    )


def run_table3_regional(m: int, regions: int, degree: int = 4,
                        seed: int = 1, telemetry=None) -> Dict[str, object]:
    """Table III counts on a region-sharded fleet (the ROADMAP-3 shape).

    Each region is its own controller + KMP subtree under a
    :class:`~repro.core.kmp.HierarchicalKMP`; boundary links cross
    administrative domains and carry no port keys, so the paper's
    formulas apply per region with that region's (m, n).  The result
    carries a ``regions_detail`` axis (one Table III row per region)
    plus fleet totals.
    """
    # Local import: the flat regions=1 path must not drag in the whole
    # fleet/batch machinery.
    from repro.experiments.fleet_scale import build_fleet_deployment

    world, extras, hier, controllers = build_fleet_deployment(
        m, regions, degree=degree, seed=seed, telemetry=telemetry)
    bootstrap = hier.bootstrap_fleet(deadline_s=30.0)
    if not bootstrap["converged"] or bootstrap["failed"]:
        raise RuntimeError(f"regional bootstrap failed: {bootstrap}")
    init_counts = {region.id: len(controllers[region.id].kmp.stats.records)
                   for region in world.regions}
    rollover = hier.rollover_fleet(deadline_s=30.0)
    if not rollover["converged"] or rollover["failed"]:
        raise RuntimeError(f"regional rollover failed: {rollover}")
    if rollover["boundary_violations"]:
        raise RuntimeError(
            f"two-version invariant violated: {hier.boundary_violations}")

    detail = []
    for region in world.regions:
        kmp = controllers[region.id].kmp
        init_records = kmp.stats.records[:init_counts[region.id]]
        update_records = kmp.stats.records[init_counts[region.id]:]
        n = extras["graphs"][region.id].number_of_edges()
        expected = formulas(len(region.switches), n)
        detail.append({
            "region": region.id,
            "m_switches": len(region.switches),
            "n_links": n,
            "init_messages": sum(r.messages for r in init_records),
            "init_bytes": sum(r.bytes for r in init_records),
            "update_messages": sum(r.messages for r in update_records),
            "update_bytes": sum(r.bytes for r in update_records),
            "formula_init_messages": expected["init_messages"],
            "formula_update_messages": expected["update_messages"],
        })
    totals = {
        key: sum(row[key] for row in detail)
        for key in ("m_switches", "n_links", "init_messages", "init_bytes",
                    "update_messages", "update_bytes",
                    "formula_init_messages", "formula_update_messages")
    }
    return {
        "m_switches": m,
        "regions": regions,
        "boundary_links": len(world.boundary_links),
        "regions_detail": detail,
        "totals": totals,
        "bootstrap_convergence_s": bootstrap["duration_s"],
        "rollover_convergence_s": rollover["duration_s"],
        "boundary_violations": rollover["boundary_violations"],
    }


def _trial(ctx: TrialContext):
    p = ctx.params
    if p.get("regions", 1) > 1:
        return run_table3_regional(m=p["m"], regions=p["regions"],
                                   degree=p["degree"], seed=p["seed"],
                                   telemetry=ctx.telemetry)
    return run_table3(m=p["m"], degree=p["degree"], seed=p["seed"],
                      telemetry=ctx.telemetry)


def paper_table(trials):
    """Table III: live KMP message/byte counts beside the paper formulas.

    A regional trial reports fleet totals; the formulas are linear in
    (m, n), so the fleet's formula figures are the per-region sums.
    """
    rows = []
    for trial in trials:
        counts = trial["result"].get("totals", trial["result"])
        m, n = counts["m_switches"], counts["n_links"]
        expected = formulas(m, n)
        for op in ("init", "update"):
            rows.append([m, n, op, counts[f"{op}_messages"],
                         expected[f"{op}_messages"], counts[f"{op}_bytes"],
                         expected[f"{op}_bytes"]])
    return (["m", "n", "op", "measured msgs", "formula msgs", "measured B",
             "formula B"], rows)


SPEC = register(ExperimentSpec(
    name="table3",
    title="KMP scalability on a live network",
    source="Table III",
    trial=_trial,
    defaults={"m": 25, "degree": 4, "seed": 1, "regions": 1},
    short={"m": 9},
    seed_param="seed",
    spec_version=2,
    paper_table=paper_table,
    tags=("table", "kmp", "scalability"),
))
