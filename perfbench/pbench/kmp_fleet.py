"""Workload ``kmp-fleet``: key management over a real link topology.

``random_regular_fabric(m, degree=4)`` with P4Auth on every switch and
one in-process :class:`~repro.core.kmp.RegionalKeyAuthority`, timed
through ``bootstrap()`` and then ``rollover()``.  This is the workload
where ``Network.neighbor_ports``, the modified DH / KDF and the
redirected port-key exchanges do the work; the C-DP service shards have
no inter-switch links and never reach that code.
"""

from __future__ import annotations

from typing import Dict, List

from pbench.calibrate import Stopwatch
from pbench.common import Episode, fingerprint, raise_if, require

NAME = "kmp-fleet"

SIZES: Dict[str, Dict[str, int]] = {
    "full": {"m": 1000, "degree": 4},
    "tiny": {"m": 20, "degree": 4},
}

REGISTER = "target"
#: Virtual-time budget per KMP round (rounds converge in a few ms).
ROUND_DEADLINE_S = 30.0
WRITE_DEADLINE_S = 1.0
MAX_IN_FLIGHT = 8
#: Virtual time per timed section of a round.  A round takes seconds of
#: host time in bursts of simultaneous messages; short sections let the
#: host-speed scaling follow it (empty ones cost nothing).
SECTION_S = 0.0001


def _build(seed: int, size: Dict[str, int]):
    from repro.core.auth_dataplane import P4AuthDataplane
    from repro.core.controller import P4AuthController
    from repro.core.kmp import RegionalKeyAuthority
    from repro.dataplane.switch import DataplaneSwitch
    from repro.net.topology import random_regular_fabric

    def factory(name: str, num_ports: int) -> DataplaneSwitch:
        switch = DataplaneSwitch(name, num_ports=num_ports,
                                 seed=seed + int(name[2:]))
        switch.registers.define(REGISTER, 64, 16)
        return switch

    m = size["m"]
    net, extras = random_regular_fabric(m, size["degree"], seed,
                                        factory=factory)
    # Every switch bootstraps at once; keep the controller's DoS
    # heuristic above the fleet's legitimate concurrency.
    controller = P4AuthController(
        net, outstanding_threshold=max(1000, 2 * m * MAX_IN_FLIGHT))
    for name in extras["switches"]:
        dataplane = P4AuthDataplane(
            net.switch(name),
            k_seed=0x1000 + (seed << 20) + int(name[2:])).install()
        dataplane.map_register(REGISTER)
        controller.provision(dataplane)
    authority = RegionalKeyAuthority("r0", controller)
    return net, extras, controller, authority


def run_episode(seed: int, size: Dict[str, int], workdir: str) -> Episode:
    """Build and provision the fabric, then bootstrap and roll every key."""
    setup = Stopwatch()
    setup.start()
    net, extras, controller, authority = _build(seed, size)
    setup.stop()
    sim, switches = extras["sim"], extras["switches"]

    rounds: List[object] = []
    round_s: Dict[str, float] = {}
    phase = Stopwatch()

    def play(name: str, start_round) -> None:
        """One round: time until convergence, then drain its timers."""
        before = phase.scaled
        deadline = sim.now + ROUND_DEADLINE_S
        converged = len(rounds) + 1
        phase.start()
        start_round(on_done=rounds.append)
        phase.stop()
        while len(rounds) < converged and sim.pending() \
                and sim.now < deadline:
            phase.start()
            sim.run(until=min(sim.now + SECTION_S, deadline))
            phase.stop()
        round_s[name] = phase.scaled - before
        phase.start()
        sim.run(until=deadline)
        phase.stop()

    switch_objs = [net.switch(name) for name in switches]
    passes_before = sum(s.pipeline_passes for s in switch_objs)
    records_before = len(controller.kmp.stats.records)
    play("kmp_bootstrap_s", authority.bootstrap)
    play("kmp_rollover_s", authority.rollover)
    passes = sum(s.pipeline_passes for s in switch_objs) - passes_before
    exchanges = len(controller.kmp.stats.records) - records_before
    links = controller.kmp.switch_links()
    expected_round = len(switches) + len(links)
    engines = [controller.digest] + [dp.digest for dp in
                                     controller.dataplanes.values()]
    counters = {
        "core.kmp.retries": float(controller.kmp.stats.retries),
        "core.kmp.abandoned": float(len(controller.kmp.stats.failures)),
        "digests": float(sum(e.computed for e in engines)),
        "digests_vector": float(sum(e.vector_messages for e in engines)),
        "key_cache_hits": float(sum(e.key_state_hits for e in engines)),
        "key_cache_misses": float(sum(e.key_state_misses for e in engines)),
        "dataplane.drops": float(sum(s.packets_dropped
                                     for s in switch_objs)),
        "net.events": float(sim.events_executed),
        "net.heap_high_water": float(sim.heap_depth_high_water),
    }

    failures: List[str] = []
    require(failures, len(rounds) == 2,
            f"{len(rounds)} of 2 KMP rounds converged")
    for convergence in rounds:
        require(failures, convergence.failed == 0,
                f"{convergence.op}: {convergence.failed} exchanges "
                f"abandoned")
        require(failures, convergence.completed == expected_round,
                f"{convergence.op}: {convergence.completed} of "
                f"{expected_round} exchanges completed")
    missing_local = [name for name in switches
                     if not controller.keys.has_local_key(name)]
    require(failures, not missing_local,
            f"{len(missing_local)} switches without a local key")
    missing_port = [(sw_a, port_a) for sw_a, port_a, sw_b, port_b in links
                    for sw, port in ((sw_a, port_a), (sw_b, port_b))
                    if not controller.dataplanes[sw].keys.has_port_key(port)]
    require(failures, not missing_port,
            f"{len(missing_port)} port ends without a port key")

    # Untimed: one authenticated write per switch must land.
    writes: Dict[str, bool] = {}
    for index, name in enumerate(switches):
        controller.write_register(
            name, REGISTER, 0, (seed << 16) | index,
            lambda ok, _value, name=name: writes.__setitem__(name, ok))
    sim.run(until=sim.now + WRITE_DEADLINE_S)
    landed = sum(1 for index, name in enumerate(switches)
                 if writes.get(name)
                 and net.switch(name).registers.get(REGISTER).read(0)
                 == (seed << 16) | index)
    require(failures, landed == len(switches),
            f"{len(switches) - landed} authenticated writes did not land")
    tamper = authority.tamper_indicators()
    require(failures, not any(tamper.values()),
            f"tamper indicators tripped: {tamper}")
    divergence = authority.seq_divergence()
    require(failures, not any(divergence.values()),
            f"{sum(1 for v in divergence.values() if v)} switches with "
            f"seq divergence")
    attempted = 2 * expected_round
    failed = attempted - sum(c.completed for c in rounds)
    raise_if(failures, attempted, failed)

    kmp_stats = controller.kmp.stats
    stats = {
        "rounds": [c.as_dict() for c in rounds],
        "records": fingerprint([[r.op, r.switch, r.rtt_s, r.messages,
                                 r.bytes] for r in kmp_stats.records]),
        "retries": kmp_stats.retries, "failures": len(kmp_stats.failures),
        "passes": [s.pipeline_passes for s in switch_objs],
        "links": len(links), "events": sim.events_executed,
        "now": sim.now, "writes": landed,
    }
    return Episode(
        setup_s=setup.scaled, phase_s=phase.scaled,
        raw_setup_s=setup.raw, raw_phase_s=phase.raw,
        ops=exchanges, attempted=attempted, failed=failed, passes=passes,
        fingerprint=fingerprint(stats),
        windows=setup.windows + phase.windows,
        samples={name: [value] for name, value in round_s.items()},
        counters=counters)


def setup_only(seed: int, size: Dict[str, int], workdir: str) -> Stopwatch:
    setup = Stopwatch()
    setup.start()
    _build(seed, size)
    setup.stop()
    return setup
