"""Batched C-DP throughput at production scale (the §XI argument).

Figs 18/19 measure one request at a time: the controller waits a full
round trip before composing the next message, so throughput is pinned to
1/RCT regardless of how many switches exist.  §XI argues a production
deployment amortizes this by working in parallel.  This experiment makes
that argument concrete: the Table III random 4-regular fabric is scaled
to m ∈ {25, 100, 400} switches and the same register workload is driven
two ways over the *same* stack —

- ``mode="sequential"`` — the paper's shape: one request in flight
  globally, next issued on completion (the per-request baseline);
- ``mode="batched"`` — through :class:`repro.runtime.batch.BatchController`,
  a window of requests in flight per switch and all switches concurrent;
- ``mode="vectorized"`` — the batched schedule with the controller's
  digest lane pinned to :mod:`repro.crypto.vectorized`, so whole issue
  bursts are signed in one ``sign_many`` call.

All modes emit byte-identical per-message traffic (same stack, same
compose path, same Eqn 4 digests — the vector lane is bit-identical by
the differential battery); only scheduling and host-CPU signing differ,
so the throughput ratios isolate the pipelining and crypto wins.

The ``cdp_batch_lossy`` variant is the chaos companion: a seeded
Bernoulli drop tap on every control channel while the batched window is
full, checking that bounded retries give every request a terminal
outcome (no window slot leaks, conservation holds).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.crypto.prng import XorShiftPrng
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.net.topology import random_regular_fabric
from repro.runtime.batch import BatchController
from repro.runtime.comparison import STACKS, deploy_stack

#: Virtual-time ceiling for one workload run; generous on purpose — the
#: sequential m=400 point is thousands of serialized RTTs.
RUN_DEADLINE_S = 600.0
#: Bootstrap window for the parallel local-key handshakes.
BOOTSTRAP_DEADLINE_S = 10.0


def build_batch_deployment(stack_name: str, m: int = 25, degree: int = 4,
                           seed: int = 1, telemetry=None,
                           request_timeout_s: Optional[float] = None,
                           loss_rate: float = 0.0,
                           max_in_flight: int = 8,
                           digest_lane: str = "auto") -> Tuple:
    """One stack deployed on the m-switch random-regular fabric.

    Returns ``(sim, net, stack, switch_names)`` with every switch
    carrying a 16-slot 64-bit ``target`` register, keys established
    (P4Auth), and — when ``loss_rate`` > 0 — a seeded Bernoulli drop tap
    on every control channel.  The tap is installed *after* key
    bootstrap so setup is loss-free and deterministic; loss applies only
    to the measured workload.
    """
    def factory(name: str, num_ports: int) -> DataplaneSwitch:
        node = int(name[2:])
        switch = DataplaneSwitch(name, num_ports=num_ports, seed=seed + node)
        switch.registers.define("target", 64, 16)
        return switch

    net, extras = random_regular_fabric(m, degree, seed, factory=factory,
                                        telemetry=telemetry)
    sim, switches = extras["sim"], extras["switches"]
    # The outstanding-requests DoS heuristic budgets for ONE switch's
    # worth of pipelining; a batched fleet legitimately holds up to
    # m * window requests open, so the threshold must scale with it.
    p4auth_kwargs = {
        "outstanding_threshold": max(1000, 2 * m * max_in_flight),
        "digest_lane": digest_lane,
    } if stack_name == "P4Auth" else {}
    stack, _dataplanes = deploy_stack(
        stack_name, net, switches,
        k_seeds={name: 0x1000 + int(name[2:]) for name in switches},
        bootstrap_s=BOOTSTRAP_DEADLINE_S,
        request_timeout_s=request_timeout_s, **p4auth_kwargs)

    if loss_rate > 0.0:
        prng = XorShiftPrng(seed ^ 0xBADC0FFE)

        def lossy(packet, _direction):
            return None if prng.uniform() < loss_rate else packet

        for name in switches:
            net.control_channels[name].add_tap(lossy)

    return sim, net, stack, switches


def run_batch_workload(sim, stack, switches: List[str], mode: str = "batched",
                       kind: str = "write", requests_per_switch: int = 8,
                       max_in_flight: int = 8,
                       reg_name: str = "target") -> Dict[str, object]:
    """Drive the same request list sequentially or batched; measure.

    The request list interleaves switches round-robin so the batched
    windows fill evenly.  Throughput is completed requests over the span
    from first issue to last terminal outcome (virtual time).

    ``mode="vectorized"`` schedules exactly like ``"batched"`` (the
    deployment's forced digest lane is what differs); both submit
    through :meth:`BatchController.submit_many` so whole windows issue
    as single signed bursts.
    """
    if mode not in ("sequential", "batched", "vectorized"):
        raise ValueError(
            "mode must be 'sequential', 'batched', or 'vectorized'")
    requests = [
        (sw, i % 16, (0xAB00 + round_idx) & 0xFFFF)
        for round_idx in range(requests_per_switch)
        for i, sw in enumerate(switches)
    ]
    start = sim.now
    state = {"ok": 0, "failed": 0, "last_done": start}
    rcts: List[float] = []

    if mode in ("batched", "vectorized"):
        batch = BatchController(stack, max_in_flight=max_in_flight)

        def on_done(ok: bool, _value: int) -> None:
            state["ok" if ok else "failed"] += 1
            state["last_done"] = sim.now

        batch.submit_many([
            (kind if kind == "read" else "write", sw, reg_name, index,
             value, on_done)
            for sw, index, value in requests])
        sim.run(until=start + RUN_DEADLINE_S)
        rcts = [s.rct_s for s in batch.stats.samples if s.ok]
        extra = {
            "in_flight_high_water": batch.stats.in_flight_high_water,
            "leaked_in_flight": batch.in_flight(),
            "still_queued": batch.queued(),
        }
    else:
        pending = deque(requests)
        sent = {"at": start}

        def issue() -> None:
            if not pending:
                return
            sw, index, value = pending.popleft()
            sent["at"] = sim.now
            if kind == "read":
                stack.read_register(sw, reg_name, index, on_done)
            else:
                stack.write_register(sw, reg_name, index, value, on_done)

        def on_done(ok: bool, _value: int) -> None:
            state["ok" if ok else "failed"] += 1
            state["last_done"] = sim.now
            if ok:
                rcts.append(sim.now - sent["at"])
            issue()

        issue()
        sim.run(until=start + RUN_DEADLINE_S)
        extra = {"in_flight_high_water": 1, "leaked_in_flight": 0,
                 "still_queued": len(pending)}

    duration = state["last_done"] - start
    completed = state["ok"]
    ordered = sorted(rcts)

    def pct(p: float) -> float:
        if not ordered:
            return math.nan
        return ordered[min(len(ordered) - 1,
                           max(0, int(p / 100.0 * len(ordered))))]

    result = {
        "mode": mode,
        "kind": kind,
        "submitted": len(requests),
        "completed": completed,
        "failed": state["failed"],
        "duration_s": duration,
        "throughput_rps": (completed / duration) if duration > 0 else 0.0,
        "mean_rct_s": (sum(ordered) / len(ordered)) if ordered else math.nan,
        "p50_rct_s": pct(50),
        "p95_rct_s": pct(95),
        "p99_rct_s": pct(99),
    }
    result.update(extra)
    return result


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    timeout = p["request_timeout_s"] if p["loss_rate"] else None
    # ``vectorized`` is ``batched`` with the digest lane pinned to the
    # vector implementations; the result payload carries no lane fields,
    # so the lane-equivalence battery can assert payload identity.
    lane = "vector" if p["mode"] == "vectorized" else p.get("digest_lane",
                                                           "auto")
    sim, _net, stack, switches = build_batch_deployment(
        p["stack"], m=p["m"], degree=p["degree"], seed=p["seed"],
        telemetry=ctx.telemetry, request_timeout_s=timeout,
        loss_rate=p["loss_rate"], max_in_flight=p["max_in_flight"],
        digest_lane=lane)
    result = run_batch_workload(
        sim, stack, switches, mode=p["mode"], kind=p["kind"],
        requests_per_switch=p["requests_per_switch"],
        max_in_flight=p["max_in_flight"])
    result.update(stack=p["stack"], m=p["m"], loss_rate=p["loss_rate"])
    # Conservation: with bounded retries every request reaches a terminal
    # outcome — a shortfall means a leaked window slot or lost callback.
    if p["loss_rate"] and timeout is not None:
        accounted = result["completed"] + result["failed"]
        if accounted != result["submitted"]:
            raise RuntimeError(
                f"conservation violated: {accounted} terminal outcomes "
                f"for {result['submitted']} requests")
    return result


SPEC = register(ExperimentSpec(
    name="cdp_batch_throughput",
    title="Batched vs sequential C-DP register throughput",
    source="§XI",
    trial=_trial,
    grid={"stack": list(STACKS),
          "mode": ["sequential", "batched", "vectorized"]},
    defaults={"m": 25, "degree": 4, "requests_per_switch": 8,
              "max_in_flight": 8, "kind": "write", "loss_rate": 0.0,
              "request_timeout_s": 0.05, "seed": 1,
              "digest_lane": "auto"},
    short={"m": 9, "requests_per_switch": 2},
    seed_param="seed",
    spec_version=2,
    tags=("runtime", "batching", "scalability"),
))

LOSSY_SPEC = register(ExperimentSpec(
    name="cdp_batch_lossy",
    title="Batched C-DP path over a lossy control channel",
    source="chaos",
    trial=_trial,
    grid={"loss_rate": [0.0, 0.02, 0.05]},
    defaults={"stack": "P4Auth", "mode": "batched", "m": 9, "degree": 4,
              "requests_per_switch": 4, "max_in_flight": 4, "kind": "write",
              "request_timeout_s": 0.05, "seed": 1},
    short={"loss_rate": [0.0, 0.05]},
    seed_param="seed",
    tags=("chaos", "batching", "runtime"),
))
