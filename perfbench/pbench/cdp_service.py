"""Workload ``cdp-service``: the authenticated C-DP service, in-process.

A durable P4Auth :class:`~repro.service.ControllerService` (journal
under a fresh state directory, ``fsync="batch"``) serves two closed-loop
clients through :class:`~repro.service.ServiceClient`, with no sockets:

- ``bulk`` sends ``/v1/batch`` requests of 32 ops (75% writes) and a
  fleet-wide ``/v1/rollover`` after every ``rollover_every`` batches;
- ``point`` sends single-op ``/v1/read`` / ``/v1/write`` requests.

Both clients have fixed op lists generated from the seed before the
service starts, so the asyncio interleaving, and with it every simulated
statistic, depends on the seed alone.  Latency is host time per
HTTP-level request.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
from typing import Dict, List, Optional, Set, Tuple

from pbench.calibrate import Stopwatch
from pbench.common import (
    CheckFailed,
    Episode,
    clock,
    fingerprint,
    raise_if,
    require,
)

NAME = "cdp-service"

SIZES: Dict[str, Dict[str, int]] = {
    "full": {"m": 100, "shards": 2, "bulk_batches": 80, "batch_ops": 32,
             "rollover_every": 20, "point_ops": 400, "segments": 8},
    "tiny": {"m": 8, "shards": 2, "bulk_batches": 4, "batch_ops": 32,
             "rollover_every": 2, "point_ops": 12, "segments": 2},
}

REGISTER = "target"
REGISTER_SIZE = 16
BULK_READ_FRACTION = 0.25
POINT_READ_FRACTION = 0.5
#: A shard with ops in flight whose virtual clock advances this far with
#: no op resolving is stalled (a dropped or tampered response is never
#: answered); the run fails instead of hanging.
STALL_VIRTUAL_S = 1.0
WATCHDOG_PERIOD_S = 0.25

#: Value tags, so the end-state check can tell who wrote a cell.
_BULK_TAG = 1 << 24
_POINT_TAG = 2 << 24


Plan = List[Tuple[List[Tuple[str, list]], List[dict]]]


def make_plans(seed: int, size: Dict[str, int]) -> Plan:
    """The two clients' request lists, a pure function of the seed, cut
    into ``segments`` consecutive ``(bulk, point)`` parts."""
    switches = [f"sw{i}" for i in range(size["m"])]
    segments = size["segments"]
    plan: Plan = [([], []) for _ in range(segments)]
    rng = random.Random(f"cdp-service/{seed}/bulk")
    counter = 0
    for batch in range(size["bulk_batches"]):
        ops = []
        for _ in range(size["batch_ops"]):
            op = {"kind": "read", "switch": rng.choice(switches),
                  "register": REGISTER,
                  "index": rng.randrange(REGISTER_SIZE)}
            if rng.random() >= BULK_READ_FRACTION:
                op["kind"] = "write"
                op["value"] = _BULK_TAG | counter
            counter += 1
            ops.append(op)
        bulk = plan[batch * segments // size["bulk_batches"]][0]
        bulk.append(("batch", ops))
        if (batch + 1) % size["rollover_every"] == 0:
            bulk.append(("rollover", []))
    rng = random.Random(f"cdp-service/{seed}/point")
    for counter in range(size["point_ops"]):
        op = {"kind": "read", "switch": rng.choice(switches),
              "register": REGISTER, "index": rng.randrange(REGISTER_SIZE)}
        if rng.random() >= POINT_READ_FRACTION:
            op["kind"] = "write"
            op["value"] = _POINT_TAG | counter
        plan[counter * segments // size["point_ops"]][1].append(op)
    return plan


class _Tally:
    def __init__(self) -> None:
        self.ok = 0
        self.failed = 0
        self.rejected_503 = 0
        self.errors: List[str] = []
        #: (switch, index) -> values acknowledged as written.
        self.written: Dict[Tuple[str, int], Set[int]] = {}
        #: Values each client observed, in its own order.
        self.observed: Dict[str, list] = {"bulk": [], "point": []}

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 8:
            self.errors.append(message)

    def record(self, client: str, op: dict, result: dict) -> None:
        if not result.get("ok"):
            self.fail(1, f"{client}: {op['kind']} {op['switch']}"
                         f"[{op['index']}] answered not ok: {result}")
            return
        self.ok += 1
        if op["kind"] == "write":
            self.written.setdefault((op["switch"], op["index"]),
                                    set()).add(op["value"])
        else:
            self.observed.setdefault(client, []).append(result.get("value"))


async def _bulk_client(client, plan, tally: _Tally,
                       samples: Dict[str, List[float]]) -> None:
    from repro.service import ServiceError

    for kind, ops in plan:
        started = clock()
        try:
            if kind == "batch":
                document = await client.batch(ops)
            else:
                document = await client.rollover()
        except ServiceError as exc:
            tally.rejected_503 += exc.status == 503
            tally.fail(len(ops) or 1, f"bulk {kind}: {exc}")
            continue
        elapsed = clock() - started
        if kind == "rollover":
            samples["rollover_ms"].append(elapsed * 1e3)
            if not document["ok"]:
                tally.fail(1, "fleet rollover answered not ok")
            tally.observed["bulk"].append(sorted(
                (name, entry["key_version"])
                for name, entry in document["rolled"].items()))
            continue
        samples["bulk_ms"].append(elapsed * 1e3)
        for op, result in zip(ops, document["results"]):
            tally.record("bulk", op, result)


async def _point_client(client, plan, tally: _Tally,
                        samples: Dict[str, List[float]]) -> None:
    from repro.service import ServiceError

    for op in plan:
        started = clock()
        try:
            if op["kind"] == "read":
                result = await client.read(op["switch"], op["register"],
                                           op["index"])
            else:
                result = await client.write(op["switch"], op["register"],
                                            op["index"], op["value"])
        except ServiceError as exc:
            tally.rejected_503 += exc.status == 503
            tally.fail(1, f"point {op['kind']}: {exc}")
            continue
        samples["point_ms"].append((clock() - started) * 1e3)
        tally.record("point", op, result)


async def _watchdog(service) -> List[str]:
    """Return the shards that stopped making progress (never on success)."""
    marks: Dict[str, Tuple[int, float]] = {}
    while True:
        await asyncio.sleep(WATCHDOG_PERIOD_S)
        stalled = []
        for shard_id, worker in service.workers.items():
            resolved = worker.stats.completed + worker.stats.failed
            mark = marks.get(shard_id)
            if mark is None or mark[0] != resolved or worker.idle:
                marks[shard_id] = (resolved, worker.sim.now)
            elif worker.sim.now - mark[1] > STALL_VIRTUAL_S:
                stalled.append(shard_id)
        if stalled:
            return stalled


def _counters(service, tally: _Tally) -> Dict[str, float]:
    workers = list(service.workers.values())
    engines = []
    for worker in workers:
        engines.append(worker.stack.digest)
        engines.extend(dp.digest for dp in worker.dataplanes.values())
    switches = [worker.net.switch(name) for worker in workers
                for name in worker.switches]
    return {
        "service.rejected_503": float(
            sum(w.stats.rejected for w in workers) + tally.rejected_503),
        "runtime.in_flight_high_water": float(
            max(w.batch.stats.in_flight_high_water for w in workers)),
        "core.kmp.retries": float(
            sum(w.stack.kmp.stats.retries for w in workers)),
        "core.kmp.abandoned": float(
            sum(len(w.stack.kmp.stats.failures) for w in workers)),
        "digests": float(sum(e.computed for e in engines)),
        "digests_vector": float(sum(e.vector_messages for e in engines)),
        "key_cache_hits": float(sum(e.key_state_hits for e in engines)),
        "key_cache_misses": float(sum(e.key_state_misses for e in engines)),
        "dataplane.drops": float(sum(s.packets_dropped for s in switches)),
        "net.events": float(sum(w.sim.events_executed for w in workers)),
        "net.heap_high_water": float(
            max(w.sim.heap_depth_high_water for w in workers)),
        "store.journal_bytes": float(sum(
            metric.value for metric in
            service.telemetry.metrics.with_name("store_journal_bytes_total"))),
    }


def _passes(service) -> int:
    return sum(worker.net.switch(name).pipeline_passes
               for worker in service.workers.values()
               for name in worker.switches)


def _check(service, tally: _Tally, stalled: List[str]) -> List[str]:
    failures: List[str] = list(tally.errors)
    require(failures, not stalled,
            f"shards {stalled} stalled with requests never answered")
    require(failures, tally.failed == 0, f"{tally.failed} ops failed")
    for worker in service.workers.values():
        stack = worker.stack
        require(failures, not stack.tamper_events,
                f"{worker.shard_id}: {len(stack.tamper_events)} tamper "
                f"events under honest load")
        for name in worker.switches:
            dataplane = worker.dataplanes[name]
            require(failures, dataplane.stats.digest_fail_cdp == 0,
                    f"{name}: {dataplane.stats.digest_fail_cdp} C-DP "
                    f"digest failures")
            require(failures, dataplane.stats.replays_detected == 0,
                    f"{name}: {dataplane.stats.replays_detected} replays "
                    f"detected")
            registers = worker.net.switch(name).registers
            dp_seq = registers.get("p4auth_expected_seq").read(0)
            ctrl_seq = stack._seq.get(name, 0)
            require(failures, ctrl_seq == dp_seq,
                    f"{name}: seq divergence controller={ctrl_seq} "
                    f"dataplane={dp_seq}")
            cells = registers.get(REGISTER)
            for index in range(REGISTER_SIZE):
                value = cells.read(index)
                allowed = tally.written.get((name, index), {0})
                require(failures, value in allowed,
                        f"{name}[{index}] ended at {value:#x}, which no "
                        f"client wrote")
    return failures


def _stats(service, tally: _Tally) -> dict:
    shards = {}
    for shard_id, worker in service.workers.items():
        stats = worker.stats
        shards[shard_id] = {
            "submitted": stats.submitted, "completed": stats.completed,
            "failed": stats.failed, "rejected": stats.rejected,
            "rollovers": stats.rollovers, "busy_s": stats.busy_s,
            "latency_sha": fingerprint(stats.latency_samples),
            "sim_now": worker.sim.now,
            "events": worker.sim.events_executed,
            "lanes": [worker.stack.digest.vector_messages,
                      worker.stack.digest.scalar_messages],
        }
    switches = {}
    for worker in service.workers.values():
        for name in worker.switches:
            registers = worker.net.switch(name).registers
            switches[name] = {
                "cells": [registers.get(REGISTER).read(i)
                          for i in range(REGISTER_SIZE)],
                "seq": registers.get("p4auth_expected_seq").read(0),
                "key_version": worker.stack.keys.local_key_version(name),
                "passes": worker.net.switch(name).pipeline_passes,
            }
    return {"shards": shards, "switches": switches,
            "observed": tally.observed}


async def _episode(seed: int, size: Dict[str, int], state_dir: str,
                   arm=None) -> Episode:
    from repro.service import ControllerService, FleetConfig, ServiceClient

    plan = make_plans(seed, size)
    shutil.rmtree(state_dir, ignore_errors=True)
    config = FleetConfig(
        stack="P4Auth", m=size["m"], shards=size["shards"],
        registers=((REGISTER, 64, REGISTER_SIZE),), state_dir=state_dir,
        fsync="batch", seed=seed)

    setup = Stopwatch()
    setup.start()
    service = ControllerService(config)
    await service.start()
    setup.stop()
    if arm is not None:
        arm(service)

    tally = _Tally()
    samples: Dict[str, List[float]] = {"bulk_ms": [], "point_ms": [],
                                       "rollover_ms": []}
    passes_before = _passes(service)
    bulk_api, point_api = ServiceClient(service), ServiceClient(service)
    phase = Stopwatch()
    stalled: List[str] = []
    for bulk, point in plan:
        # Each segment is one timed section; both clients start it
        # together, so the interleaving still depends on the seed alone.
        phase.start()
        clients = asyncio.ensure_future(asyncio.gather(
            _bulk_client(bulk_api, bulk, tally, samples),
            _point_client(point_api, point, tally, samples)))
        watchdog = asyncio.ensure_future(_watchdog(service))
        await asyncio.wait({clients, watchdog},
                           return_when=asyncio.FIRST_COMPLETED)
        phase.stop()
        if watchdog.done():
            stalled = watchdog.result()
            clients.cancel()
        else:
            watchdog.cancel()
        await asyncio.gather(clients, watchdog, return_exceptions=True)
        if stalled:
            break
        clients.result()
    passes = _passes(service) - passes_before
    counters = _counters(service, tally)
    # Request latencies are host time: scale them like the phase.
    scale = phase.scaled / phase.raw
    samples = {name: [value * scale for value in values]
               for name, values in samples.items()}

    attempted = sum(len(ops) or 1 for bulk, _point in plan
                    for _kind, ops in bulk) + sum(len(point)
                                                  for _bulk, point in plan)
    if stalled:
        for worker in service.workers.values():
            if worker.recorder is not None:
                worker.recorder.journal.close()
        failures = _check(service, tally, stalled)
        raise CheckFailed(failures, attempted,
                          max(tally.failed, attempted - tally.ok))

    # Untimed: every switch's last message is a register read, so the
    # controller and data-plane replay counters must now agree exactly.
    sweep = _Tally()
    sweep_client = ServiceClient(service)
    for name in config.switch_names:
        op = {"kind": "read", "switch": name, "register": REGISTER,
              "index": 0}
        sweep.record("sweep", op, await sweep_client.read(name, REGISTER, 0))
    await service.stop()
    failures = _check(service, tally, [])
    require(failures, service.idle, "service did not drain")
    require(failures, sweep.failed == 0, "final read sweep failed")
    raise_if(failures, attempted, tally.failed)
    shutil.rmtree(state_dir, ignore_errors=True)

    return Episode(
        setup_s=setup.scaled, phase_s=phase.scaled,
        raw_setup_s=setup.raw, raw_phase_s=phase.raw,
        ops=tally.ok,
        attempted=attempted, failed=tally.failed, passes=passes,
        fingerprint=fingerprint(_stats(service, tally)),
        windows=setup.windows + phase.windows,
        samples=samples, counters=counters)


def run_episode(seed: int, size: Dict[str, int], workdir: str,
                arm=None) -> Episode:
    """One cold service start plus the two clients' fixed op lists.

    ``arm(service)`` runs between set-up and the timed phase; the
    benchmark's own tests use it to attach an adversary.
    """
    return asyncio.run(_episode(seed, size,
                                os.path.join(workdir, "state"), arm))


async def _setup_only(size: Dict[str, int], state_dir: str,
                      seed: int) -> Stopwatch:
    from repro.service import ControllerService, FleetConfig

    shutil.rmtree(state_dir, ignore_errors=True)
    config = FleetConfig(
        stack="P4Auth", m=size["m"], shards=size["shards"],
        registers=((REGISTER, 64, REGISTER_SIZE),), state_dir=state_dir,
        fsync="batch", seed=seed)
    setup = Stopwatch()
    setup.start()
    service = ControllerService(config)
    await service.start()
    setup.stop()
    await service.stop()
    shutil.rmtree(state_dir, ignore_errors=True)
    return setup


def setup_only(seed: int, size: Dict[str, int], workdir: str) -> Stopwatch:
    """One more cold start, timed (extra ``setup_s`` samples)."""
    return asyncio.run(_setup_only(size, os.path.join(workdir, "state"),
                                   seed))


def arm_injector(shard: Optional[str] = None):
    """An ``arm`` hook: a switch-os-injector persona on one switch's C-DP
    channel (used by the benchmark's negative tests)."""
    def arm(service) -> None:
        from repro.attacks.personas import (
            PersonaSpec,
            PersonaWorld,
            build_persona,
        )

        worker = service.workers[shard or service.config.shard_ids[0]]
        name = worker.switches[0]
        persona = build_persona(PersonaSpec(kind="switch-os-injector"))
        persona.arm(PersonaWorld(
            sim=worker.sim, net=worker.net, controller=worker.stack,
            switch_name=name, dataplane=worker.dataplanes[name],
            target_register=REGISTER,
            control_channel=worker.net.control_channels[name]))
    return arm
