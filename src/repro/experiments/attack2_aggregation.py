"""Attack 2 on in-network aggregation (§II-A): silent result corruption.

Topology: W worker ToR switches feed an aggregation switch; the parameter
server (PS) hangs off the aggregation switch.  An on-link MitM between
worker 0's ToR and the aggregation switch perturbs that worker's
contributions with probability 1/2.

- ``baseline``: every chunk aggregates correctly in one round.
- ``attack``: the switch sums corrupted contributions without noticing;
  the PS (which, like real in-network aggregation, trusts the fabric)
  accepts wrong aggregates **silently** — the worst outcome.
- ``p4auth``: contributions are DP-DP authenticated; tampered ones are
  dropped at the aggregation switch (alerting the controller), the chunk
  stalls, the PS times out, the controller reads the aggregation bitmap
  over the authenticated C-DP channel to identify the missing worker, and
  only that contribution is re-sent.  JCT inflates by the retry rounds,
  but every accepted aggregate is correct.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.crypto.prng import XorShiftPrng
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.systems.inaggr import (
    AggregationConfig,
    AggregationDataplane,
    AggregationJobResult,
    make_contribution,
)

MODES = ("baseline", "attack", "p4auth")

ROUND_TIMEOUT_S = 0.005
CHUNK_SPACING_S = 0.02


def run_aggregation(mode: str, chunks: int = 30, num_workers: int = 4,
                    max_retries: int = 6, seed: int = 13,
                    tamper_probability: float = 0.5,
                    telemetry=None) -> AggregationJobResult:
    """Run one aggregation job and report correctness + JCT rounds."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)

    agg_switch = DataplaneSwitch("agg", num_ports=num_workers + 1)
    net.add_switch(agg_switch)
    aggregation = AggregationDataplane(
        agg_switch, AggregationConfig(num_workers=num_workers)).install()

    worker_switches = []
    for worker in range(num_workers):
        name = f"w{worker}"
        switch = DataplaneSwitch(name, num_ports=2)
        switch.pipeline.add_stage(
            "uplink", lambda ctx: ctx.emit(1)
            if ctx.packet.has("agg_update") else None)
        net.add_switch(switch)
        worker_switches.append(switch)
        net.connect(name, 1, "agg", 2 + worker)
    ps_host = net.add_host("ps")
    net.connect("agg", 1, "ps", 1)

    controller: Optional[P4AuthController] = None
    dataplanes: Dict[str, P4AuthDataplane] = {}
    if mode == "p4auth":
        for index, name in enumerate(["agg"] + [s.name for s in
                                                worker_switches]):
            dataplanes[name] = P4AuthDataplane(
                net.switch(name), k_seed=0xA660 + index,
                config=P4AuthConfig(protected_headers={"agg_update"}),
            ).install()
        dataplanes["agg"].map_register("agg_bitmap")
        controller = P4AuthController(net)
        for dataplane in dataplanes.values():
            controller.provision(dataplane)
        controller.kmp.bootstrap_all()
        sim.run(until=1.0)

    adversary = None
    if mode in ("attack", "p4auth"):
        prng = XorShiftPrng(seed)

        def perturb(value: int) -> int:
            if prng.uniform() < tamper_probability:
                return (value + 1000) & 0xFFFFFFFF
            return value

        adversary = ProbeFieldTamperer("agg_update", "value", perturb)
        adversary.attach(net.link_between("w0", "agg"))

    # ------------------------------------------------------------------
    # the job: PS-side orchestration
    # ------------------------------------------------------------------
    expected = {chunk: sum(100 * w + chunk for w in range(num_workers))
                for chunk in range(chunks)}
    received: Dict[int, int] = {}
    rounds_used = {chunk: 0 for chunk in range(chunks)}
    failed: Set[int] = set()
    job = {"job_id": 1}

    def send_contributions(chunk: int, workers: List[int]) -> None:
        rounds_used[chunk] += 1
        for offset, worker in enumerate(workers):
            packet = make_contribution(job["job_id"], chunk, worker,
                                       100 * worker + chunk)
            node = net.nodes[f"w{worker}"]
            sim.schedule(offset * 1e-5, node.receive, packet, 2)
        sim.schedule(ROUND_TIMEOUT_S, check_chunk, chunk)

    def check_chunk(chunk: int) -> None:
        if chunk in received or chunk in failed:
            return
        if rounds_used[chunk] > max_retries:
            failed.add(chunk)
            return
        if mode == "p4auth":
            # Authenticated read of the aggregation bitmap identifies the
            # missing contribution; only that worker re-sends.
            def on_bitmap(ok: bool, bitmap: int) -> None:
                if chunk in received or chunk in failed:
                    return
                missing = [w for w in range(num_workers)
                           if not bitmap & (1 << w)]
                send_contributions(chunk, missing or
                                   list(range(num_workers)))
            controller.read_register("agg", "agg_bitmap", chunk, on_bitmap)
        else:
            # Unprotected PS can only repeat the whole chunk.
            aggregation.reset_chunk(chunk)
            send_contributions(chunk, list(range(num_workers)))

    def on_ps_packet(packet, _now: float) -> None:
        if not packet.has("agg_result"):
            return
        result = packet.get("agg_result")
        received.setdefault(result["chunk_id"], result["value"])

    ps_host.on_packet = on_ps_packet

    start = sim.now
    for chunk in range(chunks):
        sim.schedule(chunk * CHUNK_SPACING_S, send_contributions, chunk,
                     list(range(num_workers)))
    sim.run(until=start + chunks * CHUNK_SPACING_S
            + (max_retries + 2) * ROUND_TIMEOUT_S + 1.0)

    correct = sum(1 for chunk, value in received.items()
                  if value == expected[chunk])
    total_rounds = sum(rounds_used.values())
    dropped = (dataplanes["agg"].stats.digest_fail_dpdp
               if mode == "p4auth" else 0)
    return AggregationJobResult(
        mode=mode,
        chunks=chunks,
        correct_chunks=correct,
        rounds_used=total_rounds,
        jct_rounds=total_rounds / chunks,
        tampered=adversary.stats.modified if adversary else 0,
        dropped_at_switch=dropped,
        alerts=len(controller.alerts) if controller else 0,
        failed_chunks=len(failed),
        notes=f"received={len(received)}/{chunks}",
    )


def run_all(chunks: int = 30) -> Dict[str, AggregationJobResult]:
    return {mode: run_aggregation(mode, chunks=chunks) for mode in MODES}


def _trial(ctx: TrialContext) -> AggregationJobResult:
    p = ctx.params
    return run_aggregation(
        p["mode"], chunks=p["chunks"], num_workers=p["num_workers"],
        max_retries=p["max_retries"], seed=p["seed"],
        tamper_probability=p["tamper_probability"], telemetry=ctx.telemetry)


def paper_table(trials):
    """Attack 2: aggregate correctness and job completion per mode."""
    rows = [[t["params"]["mode"],
             f"{t['result']['correct_chunks']}/{t['result']['chunks']}",
             f"{t['result']['jct_rounds']:.2f}", t["result"]["alerts"]]
            for t in trials]
    return ["mode", "correct aggregates", "JCT (rounds)", "alerts"], rows


SPEC = register(ExperimentSpec(
    name="aggregation",
    title="Attack 2 on in-network aggregation",
    source="Attack 2 (§II-A)",
    trial=_trial,
    grid={"mode": list(MODES)},
    defaults={"chunks": 30, "num_workers": 4, "max_retries": 6,
              "seed": 13, "tamper_probability": 0.5},
    short={"chunks": 8},
    seed_param="seed",
    paper_table=paper_table,
    tags=("attack", "aggregation"),
))
