"""Fleet scale: 10k-switch fabrics with hierarchical KMP (ROADMAP 3).

Table III stops at m=400 because the whole fabric is one event heap and
one flat KMP.  This experiment is the "production fleet" headline: the
fleet is split into regions (:func:`repro.net.topology.regional_fabric`),
each with its own simulator, network, controller, and
:class:`~repro.core.kmp.RegionalKeyAuthority`, measured two ways —

**Phase A — region-parallel measurement.**  Every region is an
independent world (same graph seed as its slice of the lockstep fabric)
and runs the full production lifecycle: key bootstrap, a fleet rollover,
and a batched C-DP write workload with ground-truth verification (final
register state must equal the last controller-issued value — the
zero-forged-writes check — and controller/DP sequence counters must
agree).  Regions are sharded across OS workers by
:func:`repro.engine.runner.run_region_tasks`, so the *deterministic*
per-region results are byte-identical at any worker count while the wall
clock drops near-linearly — this is the >= 3x bootstrap-speedup
acceptance number.

**Phase B — lockstep boundary consistency.**  The same fleet is built as
one :class:`~repro.net.region.RegionalWorld` with live boundary links,
a :class:`~repro.core.kmp.HierarchicalKMP` bootstraps all regions and
runs one coordinated rollover while (a) boundary probes cross the
inter-region mailbox and (b) authenticated writes land *during* the
rollover window (the two-version key slots must keep them verifiable).
The trial raises — rather than report a good-looking number — if the
cross-region two-version invariant is violated, any forged-write
indicator trips, or sequence counters diverge across a boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.core.kmp import HierarchicalKMP, RegionalKeyAuthority
from repro.dataplane.packet import Packet
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.runner import run_region_tasks
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.net.region import RegionalWorld
from repro.net.topology import (
    random_regular_fabric,
    region_seed,
    region_sizes,
    regional_fabric,
)
from repro.runtime.batch import BatchController

#: Virtual-time budget for one region-wide bootstrap (parallel
#: handshakes: a few C-DP RTTs regardless of m).
BOOTSTRAP_DEADLINE_S = 30.0
ROLLOVER_DEADLINE_S = 30.0
WORKLOAD_DEADLINE_S = 600.0
#: Probe packets pushed across each boundary link per direction.
BOUNDARY_PROBES = 4


def _switch_index(name: str) -> int:
    """Node index from ``sw<i>`` or ``r<k>sw<i>``."""
    return int(name.rsplit("sw", 1)[1])


def _make_factory(seed: int):
    def factory(name: str, num_ports: int) -> DataplaneSwitch:
        node = _switch_index(name)
        switch = DataplaneSwitch(name, num_ports=num_ports,
                                 seed=seed + node)
        switch.registers.define("target", 64, 16)
        return switch

    return factory


def _provision_p4auth(net, switches: List[str], seed: int,
                      region_index: int, m_for_threshold: int,
                      max_in_flight: int) -> P4AuthController:
    """One region controller with every switch provisioned (keys pending)."""
    controller = P4AuthController(
        net,
        outstanding_threshold=max(1000,
                                  2 * m_for_threshold * max_in_flight))
    for name in switches:
        node = _switch_index(name)
        dataplane = P4AuthDataplane(
            net.switch(name),
            k_seed=0x1000 + (region_index << 20) + node).install()
        dataplane.map_register("target")
        controller.provision(dataplane)
    return controller


def build_fleet_deployment(m: int, regions: int, degree: int = 4,
                           seed: int = 1, max_in_flight: int = 8,
                           boundary_links_per_pair: int = 2,
                           telemetry=None,
                           ) -> Tuple[RegionalWorld, Dict[str, object],
                                      HierarchicalKMP,
                                      Dict[str, P4AuthController]]:
    """The lockstep multi-region P4Auth fleet (Phase B / chaos tests).

    ``telemetry`` instruments region 0's simulator.
    """
    world, extras = regional_fabric(
        m, regions=regions, degree=degree, seed=seed,
        factory=_make_factory(seed), telemetry=telemetry,
        boundary_links_per_pair=boundary_links_per_pair)
    controllers: Dict[str, P4AuthController] = {}
    authorities: Dict[str, RegionalKeyAuthority] = {}
    for region in world.regions:
        controller = _provision_p4auth(
            region.net, region.switches, seed, region.index,
            m_for_threshold=m, max_in_flight=max_in_flight)
        controllers[region.id] = controller
        authorities[region.id] = RegionalKeyAuthority(region.id, controller)
    hier = HierarchicalKMP(world, authorities)
    return world, extras, hier, controllers


def _drive_batched_writes(sim, controller, switches: List[str],
                          requests_per_switch: int,
                          max_in_flight: int) -> Dict[str, object]:
    """The cdp_batch write schedule + ground-truth end-state check."""
    requests = [
        (sw, i % 16, (0xAB00 + round_idx) & 0xFFFF)
        for round_idx in range(requests_per_switch)
        for i, sw in enumerate(switches)
    ]
    start = sim.now
    state = {"ok": 0, "failed": 0, "last_done": start}

    def on_done(ok: bool, _value: int) -> None:
        state["ok" if ok else "failed"] += 1
        state["last_done"] = sim.now

    batch = BatchController(controller, max_in_flight=max_in_flight)
    batch.submit_many([("write", sw, "target", index, value, on_done)
                       for sw, index, value in requests])
    sim.run(until=start + WORKLOAD_DEADLINE_S)

    # Ground truth: every register cell must hold the *last* value the
    # controller issued for it (per-switch FIFO ordering guarantees the
    # last submitted write lands last).  Anything else is a forged or
    # lost write.
    expected: Dict[Tuple[str, int], int] = {}
    for sw, index, value in requests:
        expected[(sw, index)] = value
    forged = 0
    for (sw, index), value in expected.items():
        actual = controller.network.switch(sw).registers.get(
            "target").read(index)
        if actual != value:
            forged += 1
    duration = state["last_done"] - start
    return {
        "submitted": len(requests),
        "completed": state["ok"],
        "failed": state["failed"],
        "duration_s": duration,
        "throughput_rps": (state["ok"] / duration) if duration > 0 else 0.0,
        "in_flight_high_water": batch.stats.in_flight_high_water,
        "bad_end_states": forged,
    }


def _region_task(region_id: str, m: int, regions: int, degree: int,
                 seed: int, requests_per_switch: int,
                 max_in_flight: int) -> Dict[str, object]:
    """Phase A: one region's full lifecycle as a standalone world.

    The region's graph is the same slice (size + seed) it gets in the
    lockstep fabric; only the cross-region links are absent, so the
    deterministic outputs are a pure function of the region id and the
    returned ``wall_s`` block is the only nondeterministic part.
    """
    index = int(region_id[1:])
    size = region_sizes(m, regions)[index]
    rseed = region_seed(seed, index)
    net, extras = random_regular_fabric(size, degree, rseed,
                                        factory=_make_factory(rseed))
    sim, switches = extras["sim"], extras["switches"]
    controller = _provision_p4auth(net, switches, rseed, index,
                                   m_for_threshold=size,
                                   max_in_flight=max_in_flight)
    authority = RegionalKeyAuthority(region_id, controller)

    wall: Dict[str, float] = {}
    convergences: List[object] = []

    wall_start = time.perf_counter()
    authority.bootstrap(on_done=convergences.append)
    sim.run(until=sim.now + BOOTSTRAP_DEADLINE_S)
    wall["bootstrap_s"] = time.perf_counter() - wall_start
    if len(convergences) != 1:
        raise RuntimeError(f"{region_id}: bootstrap did not converge")
    bootstrap = convergences[0]

    wall_start = time.perf_counter()
    authority.rollover(on_done=convergences.append)
    sim.run(until=sim.now + ROLLOVER_DEADLINE_S)
    wall["rollover_s"] = time.perf_counter() - wall_start
    if len(convergences) != 2:
        raise RuntimeError(f"{region_id}: rollover did not converge")
    rollover = convergences[1]

    wall_start = time.perf_counter()
    workload = _drive_batched_writes(sim, controller, switches,
                                     requests_per_switch, max_in_flight)
    wall["workload_s"] = time.perf_counter() - wall_start

    divergence = authority.seq_divergence()
    tampering = authority.tamper_indicators()
    return {
        "region": region_id,
        "switches": size,
        "links": size * degree // 2,
        "bootstrap": bootstrap.as_dict(),
        "rollover": rollover.as_dict(),
        "workload": workload,
        "rollover_epochs_ok": all(
            authority.rollover_epoch(sw) == 1 for sw in switches),
        "forged_writes": workload["bad_end_states"],
        "seq_divergence_max": max(divergence.values()),
        "seq_divergence_min": min(divergence.values()),
        "tamper_indicators": tampering,
        "wall_s": wall,
    }


def _run_boundary_phase(p: Dict[str, object],
                        telemetry=None) -> Dict[str, object]:
    """Phase B: lockstep world, coordinated rollover, invariants."""
    world, extras, hier, controllers = build_fleet_deployment(
        p["m"], p["regions"], degree=p["degree"], seed=p["seed"],
        max_in_flight=p["max_in_flight"], telemetry=telemetry)
    bootstrap = hier.bootstrap_fleet(deadline_s=BOOTSTRAP_DEADLINE_S)
    if not bootstrap["converged"] or bootstrap["failed"]:
        raise RuntimeError(f"fleet bootstrap failed: {bootstrap}")

    # Push probe packets across every boundary link, both directions, to
    # exercise the inter-region mailbox under the rollover.
    probes = 0
    for link in world.boundary_links:
        for region_id, switch, port in (
                (link.region_a, link.switch_a, link.port_a),
                (link.region_b, link.switch_b, link.port_b)):
            net = world.region(region_id).net
            for _ in range(BOUNDARY_PROBES):
                net.transmit(switch, port, Packet())
                probes += 1

    # Authenticated writes issued *into* the rollover window: the
    # two-version key slots must keep every one verifiable.
    write_state = {"ok": 0, "failed": 0}

    def on_write(ok: bool, _value: int) -> None:
        write_state["ok" if ok else "failed"] += 1

    writes = 0
    for link in world.boundary_links:
        for region_id, switch, _port in (
                (link.region_a, link.switch_a, link.port_a),
                (link.region_b, link.switch_b, link.port_b)):
            controllers[region_id].write_register(switch, "target", 0,
                                                  0xFEED, on_write)
            writes += 1

    rollover = hier.rollover_fleet(deadline_s=ROLLOVER_DEADLINE_S)
    if not rollover["converged"] or rollover["failed"]:
        raise RuntimeError(f"fleet rollover failed: {rollover}")
    world.run_until(lambda: world.pending() == 0,
                    deadline=world.now + 1.0)

    # Post-rollover probe writes on every boundary switch: the reg-op
    # replay counters must agree exactly under the *new* keys — this is
    # the "no permanent seq divergence across region boundaries" check
    # (KMP control messages legitimately consume controller sequence
    # numbers without touching the DP's reg-op replay register, so
    # fleet-wide equality is asserted on the reg-op path, where the
    # paper's §VIII replay defense lives).
    post_state = {"ok": 0, "failed": 0}

    def on_post(ok: bool, _value: int) -> None:
        post_state["ok" if ok else "failed"] += 1

    boundary_switches = sorted({(link.region_a, link.switch_a)
                                for link in world.boundary_links}
                               | {(link.region_b, link.switch_b)
                                  for link in world.boundary_links})
    for region_id, switch in boundary_switches:
        controllers[region_id].write_register(switch, "target", 1,
                                              0xD00D, on_post)
    world.run_until(lambda: world.pending() == 0,
                    deadline=world.now + 1.0)

    report = hier.consistency_report()
    divergence = hier.seq_divergence()
    boundary_diverged = [switch for _region, switch in boundary_switches
                         if divergence[switch] != 0]
    epochs_ok = all(
        hier.authorities[region.id].rollover_epoch(sw) == 1
        for region in world.regions for sw in region.switches)
    failures = []
    if rollover["boundary_violations"]:
        failures.append(
            f"two-version invariant violated at "
            f"{rollover['boundary_violations']} barriers: "
            f"{hier.boundary_violations[:3]}")
    if not epochs_ok:
        failures.append("a switch did not advance exactly one rollover "
                        "epoch")
    if report["seq_divergence_min"] < 0:
        failures.append(f"data plane ahead of controller (forged write): "
                        f"{report}")
    if boundary_diverged:
        failures.append(f"permanent seq divergence across boundaries: "
                        f"{boundary_diverged}")
    if any(report["tamper_indicators"].values()):
        failures.append(f"tamper indicators tripped: "
                        f"{report['tamper_indicators']}")
    if write_state["ok"] != writes or write_state["failed"]:
        failures.append(f"writes during rollover window: {write_state} "
                        f"of {writes}")
    if post_state["ok"] != len(boundary_switches) or post_state["failed"]:
        failures.append(f"post-rollover writes: {post_state} of "
                        f"{len(boundary_switches)}")
    if world.mailbox.delivered != world.mailbox.posted:
        failures.append(f"mailbox leak: posted={world.mailbox.posted} "
                        f"delivered={world.mailbox.delivered}")
    if failures:
        raise RuntimeError("boundary consistency failed: "
                           + "; ".join(failures))
    return {
        "bootstrap": bootstrap,
        "rollover": rollover,
        "probes_sent": probes,
        "writes_in_window": writes,
        "writes_ok": write_state["ok"],
        "post_rollover_writes_ok": post_state["ok"],
        "consistency": report,
        "world": world.stats(),
    }


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    region_ids = [f"r{index}" for index in range(p["regions"])]
    task = partial(_region_task, m=p["m"], regions=p["regions"],
                   degree=p["degree"], seed=p["seed"],
                   requests_per_switch=p["requests_per_switch"],
                   max_in_flight=p["max_in_flight"])
    wall_start = time.perf_counter()
    per_region = run_region_tasks(task, region_ids, workers=p["workers"])
    region_phase_wall_s = time.perf_counter() - wall_start

    detail = []
    wall_by_region = {}
    for region_id in region_ids:
        entry = dict(per_region[region_id])
        wall_by_region[region_id] = entry.pop("wall_s")
        detail.append(entry)

    boundary: Optional[Dict[str, object]] = None
    if p["regions"] > 1 and p["boundary"]:
        # Only the in-process boundary phase is instrumented: Phase A
        # regions may run in worker processes.
        boundary = _run_boundary_phase(p, ctx.telemetry)

    totals = {
        "switches": sum(entry["switches"] for entry in detail),
        "links": sum(entry["links"] for entry in detail),
        "bootstrap_ops": sum(entry["bootstrap"]["completed"]
                             for entry in detail),
        "bootstrap_failed": sum(entry["bootstrap"]["failed"]
                                for entry in detail),
        "bootstrap_convergence_s": max(entry["bootstrap"]["duration_s"]
                                       for entry in detail),
        "rollover_convergence_s": max(entry["rollover"]["duration_s"]
                                      for entry in detail),
        "workload_completed": sum(entry["workload"]["completed"]
                                  for entry in detail),
        "workload_rps": sum(entry["workload"]["throughput_rps"]
                            for entry in detail),
        "forged_writes": sum(entry["forged_writes"] for entry in detail),
        "seq_divergence_max": max(entry["seq_divergence_max"]
                                  for entry in detail),
        "seq_divergence_min": min(entry["seq_divergence_min"]
                                  for entry in detail),
    }
    if totals["forged_writes"] or totals["seq_divergence_min"] < 0 \
            or totals["seq_divergence_max"] > 0:
        raise RuntimeError(f"region-phase consistency failed: {totals}")

    # Everything above is deterministic (identical at any worker count);
    # the wall block is the only measured-on-this-host part.
    return {
        "m": p["m"],
        "regions": p["regions"],
        "regions_detail": detail,
        "totals": totals,
        "boundary": boundary,
        "wall": {
            "region_phase_s": round(region_phase_wall_s, 6),
            "workers_effective": _effective_workers(p["workers"],
                                                    len(region_ids)),
            # Honest context for the wall numbers: a 1-core host runs
            # the worker pool but cannot show a measured speedup.
            "cpu_count": os.cpu_count(),
            "by_region": wall_by_region,
        },
    }


def _effective_workers(workers: int, num_regions: int) -> int:
    if (workers <= 1 or num_regions <= 1
            or multiprocessing.current_process().daemon):
        return 1
    return min(workers, num_regions)


SPEC = register(ExperimentSpec(
    name="fleet_scale",
    title="Region-sharded fleet: bootstrap, rollover, batched C-DP",
    source="ROADMAP 3",
    trial=_trial,
    grid={"workers": [1, 4]},
    defaults={"m": 1000, "regions": 4, "degree": 4,
              "requests_per_switch": 2, "max_in_flight": 8,
              "boundary": True, "seed": 1},
    short={"m": 1000, "regions": 2, "workers": [1, 2]},
    seed_param="seed",
    spec_version=1,
    tags=("fleet", "kmp", "scalability", "sharding"),
))
