"""Sharded controller-service load: req/s by shard count (ROADMAP item 1).

``cdp_batch_throughput`` showed windowed pipelining beats the paper's
one-request-at-a-time shape inside *one* controller.  This experiment
measures the next layer: the :mod:`repro.service` daemon sharding a
fleet across N controller workers, each with its own deployment and its
own share of the §IV outstanding-request DoS budget
(``issue_window``).  Concurrent authenticated clients drive mixed
read/write batches through the real dispatch surface (token auth,
routing, backpressure included), and fleet throughput is completed
requests over the *busiest shard's* busy virtual time — the honest
scaling number: if sharding didn't help, the busiest shard would be
doing all the work.

Every trial self-checks the security invariants that concurrency could
plausibly break (P4Auth stacks):

- zero C-DP digest failures and zero replay rejections — interleaved
  clients never present out-of-order sequence numbers (the per-switch
  FIFO guarantee);
- no tamper events — nothing a defense flagged as forged;
- every register slot ends at a value some client actually wrote —
  no forged or corrupted write landed;
- controller and data-plane sequence state agree on every switch —
  no divergence that would poison the next request.

A violated invariant raises; it never degrades into a worse number.
"""

from __future__ import annotations

import asyncio
import math
from typing import Dict, List, Set, Tuple

from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.runtime.comparison import STACKS

#: Per-op retry budget when a shard answers 503 (backpressure is a
#: contract: callers back off and retry, they don't lose the op).
MAX_RETRIES = 8

REG_NAME = "target"
REG_SIZE = 16


def _plan_rounds(client: int, rounds: int, batch_size: int,
                 switches: List[str], read_fraction: float,
                 ) -> List[List[Dict[str, object]]]:
    """A client's deterministic op schedule: round-robin over the fleet,
    reads interleaved at ``read_fraction``, values encoding their origin
    so the end-state check can attribute every register slot."""
    plans: List[List[Dict[str, object]]] = []
    counter = 0
    for round_idx in range(rounds):
        ops: List[Dict[str, object]] = []
        for k in range(batch_size):
            # Stagger clients so one round touches many shards at once.
            switch = switches[(client * 7 + counter) % len(switches)]
            index = counter % REG_SIZE
            is_read = (counter % 100) < int(read_fraction * 100)
            if is_read:
                ops.append({"kind": "read", "switch": switch,
                            "register": REG_NAME, "index": index})
            else:
                value = ((client & 0xFF) << 24) | ((round_idx & 0xFF) << 16) \
                    | (counter & 0xFFFF)
                ops.append({"kind": "write", "switch": switch,
                            "register": REG_NAME, "index": index,
                            "value": value})
            counter += 1
        plans.append(ops)
    return plans


async def _client_task(client_api, plans, written: Dict[Tuple[str, int],
                                                        Set[int]],
                       tally: Dict[str, int]) -> None:
    from repro.service.client import ServiceError

    for ops in plans:
        pending = ops
        attempt = 0
        while pending:
            try:
                outcome = await client_api.batch(pending)
            except ServiceError as exc:
                if exc.status != 503 or attempt >= MAX_RETRIES:
                    raise
                tally["retries"] += len(pending)
                attempt += 1
                await asyncio.sleep(0)
                continue
            retry: List[Dict[str, object]] = []
            for op, result in zip(pending, outcome["results"]):
                if result.get("rejected"):
                    retry.append(op)
                    continue
                tally["ok" if result["ok"] else "failed"] += 1
                if result["ok"] and op["kind"] == "write":
                    written.setdefault(
                        (op["switch"], op["index"]), set()).add(op["value"])
            if retry:
                if attempt >= MAX_RETRIES:
                    raise RuntimeError(
                        f"{len(retry)} ops still rejected after "
                        f"{MAX_RETRIES} retries")
                tally["retries"] += len(retry)
                attempt += 1
                await asyncio.sleep(0)
            pending = retry


def _check_invariants(service, written: Dict[Tuple[str, int], Set[int]]
                      ) -> None:
    """Raise if any security invariant was violated during the run."""
    for worker in service.workers.values():
        if worker.stack_name != "P4Auth":
            continue
        if worker.stack.tamper_events:
            raise RuntimeError(
                f"tamper events under honest load: "
                f"{worker.stack.tamper_events}")
        for name in worker.switches:
            dataplane = worker.dataplanes[name]
            if dataplane.stats.digest_fail_cdp:
                raise RuntimeError(
                    f"{name}: {dataplane.stats.digest_fail_cdp} C-DP "
                    f"digest failures under honest load")
            if dataplane.stats.replays_detected:
                raise RuntimeError(
                    f"{name}: {dataplane.stats.replays_detected} replay "
                    f"rejections — per-switch FIFO ordering broke")
            ctrl_seq = worker.stack._seq.get(name, 0)
            dp_seq = dataplane._expected_seq.read(0)
            if ctrl_seq != dp_seq:
                raise RuntimeError(
                    f"{name}: seq divergence controller={ctrl_seq} "
                    f"dataplane={dp_seq}")
    for (switch, index), values in written.items():
        final = service.worker_for(switch).net.switch(switch) \
            .registers.get(REG_NAME).read(index)
        if final not in values:
            raise RuntimeError(
                f"{switch}[{index}] ended at {final:#x}, which no "
                f"client wrote (forged or corrupted write)")


async def _drive(p: Dict[str, object], telemetry=None) -> Dict[str, object]:
    from repro.service.client import ServiceClient
    from repro.service.daemon import ControllerService, FleetConfig

    service = ControllerService(FleetConfig(
        stack=p["stack"], m=p["m"], shards=p["shards"],
        registers=((REG_NAME, 64, REG_SIZE),),
        max_in_flight=p["max_in_flight"],
        issue_window=p["issue_window"],
        queue_depth=p["queue_depth"],
        seed=p["seed"]), telemetry=telemetry)
    await service.start()
    switches = service.config.switch_names
    written: Dict[Tuple[str, int], Set[int]] = {}
    tally = {"ok": 0, "failed": 0, "retries": 0}
    clients = [ServiceClient(service) for _ in range(p["clients"])]
    await asyncio.gather(*(
        _client_task(api,
                     _plan_rounds(c, p["rounds"], p["batch_size"],
                                  switches, p["read_fraction"]),
                     written, tally)
        for c, api in enumerate(clients)))
    await service.stop()
    if not service.idle:
        raise RuntimeError("service did not drain cleanly")

    _check_invariants(service, written)

    shards = []
    samples: List[float] = []
    for shard_id in service.config.shard_ids:
        worker = service.workers[shard_id]
        shards.append({
            "shard": shard_id,
            "switches": len(worker.switches),
            "completed": worker.stats.completed,
            "busy_virtual_s": worker.stats.busy_s,
        })
        samples.extend(worker.stats.latency_samples)
    completed = sum(s["completed"] for s in shards)
    busy_max = max((s["busy_virtual_s"] for s in shards), default=0.0)
    ordered = sorted(samples)

    def pct(v: float) -> float:
        if not ordered:
            return math.nan
        return ordered[min(len(ordered) - 1,
                           max(0, int(v / 100.0 * len(ordered))))]

    return {
        "stack": p["stack"], "m": p["m"], "shards": p["shards"],
        "clients": p["clients"],
        "submitted": p["clients"] * p["rounds"] * p["batch_size"],
        "completed": completed,
        "failed": tally["failed"],
        "retries_503": tally["retries"],
        "busy_s_max": busy_max,
        "fleet_rps": (completed / busy_max) if busy_max > 0 else 0.0,
        "p50_s": pct(50),
        "p99_s": pct(99),
        "per_shard": shards,
    }


def _trial(ctx: TrialContext) -> dict:
    params = dict(ctx.params)
    # The grid can ask for more shards than a short fleet has switches.
    params["shards"] = min(params["shards"], params["m"])
    return asyncio.run(_drive(params, ctx.telemetry))


SPEC = register(ExperimentSpec(
    name="cdp_service_load",
    title="Controller service req/s by shard count",
    source="service",
    trial=_trial,
    grid={"shards": [1, 2, 4]},
    defaults={"stack": "P4Auth", "m": 25, "clients": 8, "rounds": 6,
              "batch_size": 16, "read_fraction": 0.25, "issue_window": 32,
              "max_in_flight": 8, "queue_depth": 4096, "seed": 1},
    short={"m": 9, "clients": 3, "rounds": 2, "batch_size": 4,
           "shards": [1, 2]},
    seed_param="seed",
    tags=("service", "scalability", "runtime"),
))
