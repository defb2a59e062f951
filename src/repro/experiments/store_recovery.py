"""Controller crash + warm restart under the repro.store journal.

The recovery story, end to end: a batched P4Auth deployment journals
its durable state (``repro.store``), the controller process is
SIGKILLed mid-burst at a chosen journal record type
(:class:`~repro.faults.controller.ControllerKillSwitch`), and a fresh
controller warm-restarts from snapshot + journal tail.  The trial then
proves recovery **re-authenticated rather than bypassed** the paper's
defenses:

- *zero forged writes* — no switch's ``expected_seq`` ever ran ahead of
  the controller's view (negative divergence would mean an unsigned
  write advanced the data plane);
- *zero self-inflicted replay/DoS flags* — the skip-ahead sequence rule
  means the restarted controller's first messages are accepted, with no
  replay alerts, digest failures, or DoS heuristics tripped by its own
  recovery;
- *sequence agreement* — after a post-recovery burst touches every
  switch and quiesces, controller and data-plane counters agree
  exactly (divergence 0 everywhere).

Two specs: ``controller_crash_recovery`` (the chaos trial above,
sweeping fleet size and kill point; wall-clock ``recovery_s`` is the
BENCH number) and ``store_journal_overhead`` (paired same-deployment
bursts with the recorder detached vs attached, host wall-clock — the
journal adds no *virtual* time, so only a wall measurement can price
it).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from repro.core.controller import P4AuthController
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.experiments.cdp_batch import (
    build_batch_deployment,
    run_batch_workload,
)
from repro.faults.controller import ControllerKillSwitch
from repro.runtime.batch import BatchController
from repro.store import open_store, warm_restart
from repro.store.journal import RECORD_TYPES
from repro.store.recorder import StateRecorder

#: Virtual seconds the dead controller's in-flight packets get to land
#: before the replacement process comes up.  A real restart takes
#: orders of magnitude longer than a packet RTT; modeling that gap is
#: what keeps late phase-1 traffic from racing the reconciliation reads.
RESTART_GAP_S = 0.05
#: Virtual-time ceiling for each workload phase.
PHASE_DEADLINE_S = 600.0

#: Kill points the crash trial understands: any journal record type,
#: or "time" (a virtual-time trigger mid-burst).
KILL_POINTS = RECORD_TYPES + ("time",)


def _seq_divergence(controller) -> Dict[str, int]:
    """controller next-seq minus data-plane expected, per switch."""
    divergence: Dict[str, int] = {}
    for name, dataplane in controller.dataplanes.items():
        expected = dataplane.switch.registers.get(
            "p4auth_expected_seq").read(0)
        divergence[name] = controller._seq[name] - expected
    return divergence


def _defense_counters(dataplanes) -> Dict[str, int]:
    totals = {"replays_detected": 0, "digest_fail_cdp": 0,
              "digest_fail_dpdp": 0, "alerts_raised": 0}
    for dataplane in dataplanes:
        stats = dataplane.stats
        totals["replays_detected"] += stats.replays_detected
        totals["digest_fail_cdp"] += stats.digest_fail_cdp
        totals["digest_fail_dpdp"] += stats.digest_fail_dpdp
        totals["alerts_raised"] += stats.alerts_raised
    return totals


def _submit_rounds(sim, batch, switches: List[str], rounds: int,
                   counts: Dict[str, int]) -> None:
    """Round-robin write workload through the batch facade."""
    def on_done(ok: bool, _value: int) -> None:
        counts["ok" if ok else "failed"] += 1

    batch.submit_many([
        ("write", sw, "target", i % 16, (0xAB00 + r) & 0xFFFF, on_done)
        for r in range(rounds)
        for i, sw in enumerate(switches)
    ])


def run_crash_trial(params: Dict[str, object],
                    telemetry=None) -> Dict[str, object]:
    """One kill→recover cycle; returns the invariants and timings.

    Importable directly (the crash-point matrix test drives it per
    record type) as well as through the registered spec.
    """
    m = int(params["m"])
    kill_on = str(params["kill_on"])
    if kill_on not in KILL_POINTS:
        raise ValueError(f"kill_on must be one of {KILL_POINTS}")
    fsync = str(params.get("fsync", "batch"))
    max_in_flight = int(params.get("max_in_flight", 8))
    rounds = int(params.get("requests_per_switch", 4))
    rollover = bool(params.get("rollover", kill_on in
                               ("key_rollover", "epoch_advance")))
    state_dir = params.get("state_dir")
    own_state_dir = state_dir is None
    if own_state_dir:
        state_dir = tempfile.mkdtemp(prefix="repro-store-")
    try:
        return _crash_trial(params, str(state_dir), m, kill_on, fsync,
                            max_in_flight, rounds, rollover, telemetry)
    finally:
        if own_state_dir:
            shutil.rmtree(state_dir, ignore_errors=True)


def _crash_trial(params, state_dir: str, m: int, kill_on: str, fsync: str,
                 max_in_flight: int, rounds: int, rollover: bool,
                 telemetry) -> Dict[str, object]:
    sim, net, controller, switches = build_batch_deployment(
        "P4Auth", m=m, degree=int(params.get("degree", 4)),
        seed=int(params.get("seed", 1)), telemetry=telemetry,
        max_in_flight=max_in_flight)
    metrics = telemetry.metrics if telemetry is not None \
        and telemetry.enabled else None

    # Arm the durability layer on the bootstrapped controller.  A small
    # sequence stride makes horizon crossings (seq_advance records)
    # frequent enough that a "seq_advance" kill lands mid-burst.
    journal, snapshots, _records = open_store(state_dir, fsync=fsync,
                                              metrics=metrics)
    batch = BatchController(controller, max_in_flight=max_in_flight)
    recorder = StateRecorder(
        journal, snapshots,
        seq_stride=int(params.get("seq_stride", 2)),
        snapshot_every=params.get("snapshot_every"))
    authority = None
    if rollover:
        from repro.core.kmp import RegionalKeyAuthority
        authority = RegionalKeyAuthority("r0", controller)

    kill = ControllerKillSwitch(net, recorder)
    # key_install and shard_map records only occur while attach()
    # journals the bootstrapped state, so those kill points arm before
    # attach (crash during durability bring-up); the rest arm after, so
    # the kill lands mid-workload.
    if kill_on in ("key_install", "shard_map"):
        kill.arm_on_record(kill_on,
                           occurrence=int(params.get("occurrence", 1)))
    recorder.attach(controller, batch=batch, authority=authority,
                    shard_id="shard-0")
    if kill_on == "time":
        kill.arm_at(float(params.get("kill_delay_s", 0.002)))
    elif kill_on not in ("key_install", "shard_map"):
        kill.arm_on_record(kill_on,
                           occurrence=int(params.get("occurrence", 1)))

    # ---- phase 1: burst until the kill fires -------------------------
    phase1 = {"ok": 0, "failed": 0}
    if kill.kills == 0:
        _submit_rounds(sim, batch, switches, rounds, phase1)
        if authority is not None and kill.kills == 0:
            authority.rollover()
        sim.run(until=sim.now + PHASE_DEADLINE_S)
    if kill.kills == 0:
        # The workload drained before the trigger matched (e.g. a
        # record type this workload never emits): kill now, mid-idle.
        kill.kill()
    # The restart gap: in-flight phase-1 packets land and drop.
    sim.run(until=sim.now + RESTART_GAP_S)
    lost_in_flight = batch.in_flight() + batch.queued()
    defenses_before = _defense_counters(controller.dataplanes.values())

    # ---- recovery ----------------------------------------------------
    dataplanes = list(controller.dataplanes.values())
    wall_start = time.perf_counter()
    controller2 = P4AuthController(
        net, outstanding_threshold=max(1000, 2 * m * max_in_flight))
    for dataplane in dataplanes:
        controller2.provision(dataplane)
    batch2 = BatchController(controller2, max_in_flight=max_in_flight)
    recorder2, report = warm_restart(
        state_dir, controller2, batch=batch2, shard_id="shard-0",
        fsync=fsync, seq_stride=int(params.get("seq_stride", 2)),
        metrics=metrics)
    recovery_s = time.perf_counter() - wall_start
    # Reconciliation reads complete in virtual time.
    sim.run(until=sim.now + RESTART_GAP_S)

    # Switches whose key material did not survive (crash during
    # durability bring-up) fall back to a fresh KMP bootstrap — the
    # cold path warm restart exists to avoid, but always available.
    rebootstrapped = [sw for sw in switches
                      if not controller2.keys.has_local_key(sw)]
    if rebootstrapped:
        done: List[object] = []
        for sw in rebootstrapped:
            controller2.kmp.local_key_init(sw, on_done=done.append)
        sim.run(until=sim.now + 10.0)
        if len(done) != len(rebootstrapped):
            raise RuntimeError(
                f"re-bootstrap incomplete: {len(done)}/"
                f"{len(rebootstrapped)}")

    # ---- phase 2: prove the fleet is fully usable --------------------
    phase2 = {"ok": 0, "failed": 0}
    _submit_rounds(sim, batch2, switches, rounds, phase2)
    sim.run(until=sim.now + PHASE_DEADLINE_S)

    divergence = _seq_divergence(controller2)
    defenses_after = _defense_counters(dataplanes)
    defense_trips = {key: defenses_after[key] - defenses_before[key]
                     for key in defenses_after}
    result = {
        "m": m,
        "kill_on": kill_on,
        "fsync": fsync,
        "killed_at_record": (kill.kill_record.type
                             if kill.kill_record is not None else None),
        "phase1_completed": phase1["ok"],
        "lost_in_flight": lost_in_flight,
        "recovery_s": recovery_s,
        "snapshot_used": report.snapshot_used,
        "replayed_records": report.replayed_records,
        "torn_records": report.torn_records,
        "switches_restored": report.switches_restored,
        "windows_open_at_crash": len(report.windows),
        "windows_reconciled": report.windows_reconciled,
        "rebootstrapped": len(rebootstrapped),
        "phase2_completed": phase2["ok"],
        "phase2_failed": phase2["failed"],
        "forged_writes": sum(1 for v in divergence.values() if v < 0),
        "seq_divergence_max": max(divergence.values(), default=0),
        "seq_divergence_min": min(divergence.values(), default=0),
        "replay_trips": defense_trips["replays_detected"],
        "digest_fail_trips": (defense_trips["digest_fail_cdp"]
                              + defense_trips["digest_fail_dpdp"]),
        "alert_trips": defense_trips["alerts_raised"],
        "dos_suspected": controller2.stats.dos_suspected,
        "unsolicited_nacks": controller2.stats.unsolicited_nacks,
    }
    recorder2.detach()
    # The acceptance invariants live in the trial so a regression fails
    # loudly in any harness (bench, smoke CI, pytest) rather than
    # shipping a green artifact with a broken recovery.
    if result["forged_writes"]:
        raise RuntimeError(f"forged writes detected: {divergence}")
    if result["replay_trips"] or result["alert_trips"] \
            or result["digest_fail_trips"]:
        raise RuntimeError(
            f"recovery tripped data-plane defenses: {defense_trips}")
    if result["dos_suspected"]:
        raise RuntimeError("recovery tripped the DoS heuristic")
    if result["seq_divergence_max"] != 0 or result["seq_divergence_min"] != 0:
        raise RuntimeError(
            f"permanent seq divergence after recovery: {divergence}")
    if result["phase2_completed"] != m * rounds:
        raise RuntimeError(
            f"post-recovery workload incomplete: {phase2['ok']}/{m * rounds}")
    return result


def run_overhead_trial(params: Dict[str, object],
                       telemetry=None) -> Dict[str, object]:
    """Journal-off vs journal-on wall clock over the same deployment.

    The two arms run interleaved bursts over one fleet (identical
    virtual behaviour — the journal consumes no virtual time) and the
    per-arm minimum over ``rounds`` repetitions is compared, which
    cancels host noise the way the paired design in bench_cdp_batch
    does.
    """
    m = int(params["m"])
    fsync = str(params.get("fsync", "batch"))
    max_in_flight = int(params.get("max_in_flight", 8))
    per_switch = int(params.get("requests_per_switch", 8))
    repeats = int(params.get("repeats", 3))
    sim, _net, controller, switches = build_batch_deployment(
        "P4Auth", m=m, degree=int(params.get("degree", 4)),
        seed=int(params.get("seed", 1)), telemetry=telemetry,
        max_in_flight=max_in_flight)
    state_dir = tempfile.mkdtemp(prefix="repro-store-")
    try:
        journal, snapshots, _ = open_store(state_dir, fsync=fsync)
        recorder = StateRecorder(journal, snapshots)

        def burst() -> float:
            started = time.perf_counter()
            result = run_batch_workload(
                sim, controller, switches, mode="batched",
                requests_per_switch=per_switch,
                max_in_flight=max_in_flight)
            wall = time.perf_counter() - started
            if result["completed"] != result["submitted"]:
                raise RuntimeError("overhead burst did not drain")
            return wall

        burst()  # warm-up: JIT-less, but caches/allocators settle
        off_walls: List[float] = []
        on_walls: List[float] = []
        for _ in range(repeats):
            off_walls.append(burst())
            recorder.attach(controller)
            on_walls.append(burst())
            recorder.detach()
        journal.close()
        off = min(off_walls)
        on = min(on_walls)
        return {
            "m": m,
            "fsync": fsync,
            "requests": m * per_switch,
            "wall_off_s": off,
            "wall_on_s": on,
            "overhead_pct": ((on - off) / off * 100.0) if off > 0 else 0.0,
            "journal_records": journal.next_lsn,
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def _crash_ctx_trial(ctx: TrialContext) -> dict:
    return run_crash_trial(dict(ctx.params), telemetry=ctx.telemetry)


def _overhead_ctx_trial(ctx: TrialContext) -> dict:
    return run_overhead_trial(dict(ctx.params), telemetry=ctx.telemetry)


SPEC = register(ExperimentSpec(
    name="controller_crash_recovery",
    title="Controller crash + warm restart from the write-ahead journal",
    source="ROADMAP 4",
    trial=_crash_ctx_trial,
    grid={"kill_on": ["seq_advance", "batch_open", "key_rollover"],
          "m": [25, 100]},
    defaults={"degree": 4, "requests_per_switch": 4, "max_in_flight": 8,
              "fsync": "batch", "occurrence": 1, "kill_delay_s": 0.002,
              "snapshot_every": None, "seed": 1},
    short={"kill_on": ["seq_advance"], "m": [9]},
    seed_param="seed",
    tags=("chaos", "store", "recovery"),
))

OVERHEAD_SPEC = register(ExperimentSpec(
    name="store_journal_overhead",
    title="Steady-state journal overhead vs no-journal baseline",
    source="ROADMAP 4",
    trial=_overhead_ctx_trial,
    grid={"fsync": ["batch", "always"]},
    defaults={"m": 25, "degree": 4, "requests_per_switch": 8,
              "max_in_flight": 8, "repeats": 3, "seed": 1},
    short={"fsync": ["batch"], "m": 9, "repeats": 2},
    seed_param="seed",
    tags=("store", "perf"),
))
