"""The Fig 18/19 stack comparison, as a reusable measurement.

Builds each of the three register-access stacks (P4Runtime, DP-Reg-RW,
P4Auth) on a fresh single-switch deployment and drives the paper's
sequential read/write workload against it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.auth_dataplane import P4AuthDataplane
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.harness import RunStats, run_sequential
from repro.runtime.p4runtime import P4RuntimeStack
from repro.runtime.plain import PlainController, PlainRegOpDataplane

STACKS = ("P4Runtime", "DP-Reg-RW", "P4Auth")


def deploy_stack(name: str, net: Network, switches: Sequence[str],
                 registers: Sequence[str] = ("target",), *,
                 k_seeds: Mapping[str, int],
                 bootstrap_s: Optional[float] = None,
                 request_timeout_s: Optional[float] = None,
                 **p4auth_kwargs) -> Tuple[object, Dict[str, object]]:
    """Deploy one register-access stack over switches already on ``net``.

    Installs each stack's data-plane half (none for P4Runtime), maps
    ``registers`` (declared on the switches by the caller), and
    provisions the controller.  P4Auth switches take their ``K_seed``
    from ``k_seeds`` and, with ``bootstrap_s``, run the local-key
    bootstrap in parallel for that long in virtual time; any switch left
    unkeyed raises.  ``p4auth_kwargs`` go to the P4Auth controller only.
    Returns ``(stack, dataplanes)``.
    """
    if name not in STACKS:
        raise ValueError(f"stack must be one of {STACKS}")
    dataplanes: Dict[str, object] = {}
    if name == "P4Runtime":
        stack = P4RuntimeStack(net, request_timeout_s=request_timeout_s)
        for switch in switches:
            stack.provision(net.switch(switch))
        return stack, dataplanes
    if name == "DP-Reg-RW":
        stack = PlainController(net, request_timeout_s=request_timeout_s)
        for switch in switches:
            dataplane = PlainRegOpDataplane(net.switch(switch)).install()
            for reg_name in registers:
                dataplane.map_register(reg_name)
            stack.provision(net.switch(switch))
            dataplanes[switch] = dataplane
        return stack, dataplanes
    stack = P4AuthController(net, request_timeout_s=request_timeout_s,
                             **p4auth_kwargs)
    for switch in switches:
        dataplane = P4AuthDataplane(net.switch(switch),
                                    k_seed=k_seeds[switch]).install()
        for reg_name in registers:
            dataplane.map_register(reg_name)
        stack.provision(dataplane)
        dataplanes[switch] = dataplane
    if bootstrap_s is not None:
        done: List[object] = []
        for switch in switches:
            stack.kmp.local_key_init(switch, on_done=done.append)
        net.sim.run(until=net.sim.now + bootstrap_s)
        if len(done) != len(switches):
            raise RuntimeError(
                f"key bootstrap incomplete: {len(done)}/{len(switches)}")
    return stack, dataplanes


def build_stack(name: str, costs=None, telemetry=None):
    """A fresh single-switch deployment of one stack; returns (sim, stack)."""
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim, costs)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    switch.registers.define("target", 64, 16)
    stack, _dataplanes = deploy_stack(name, net, ["s1"],
                                      k_seeds={"s1": 0x42}, bootstrap_s=0.1)
    return sim, stack


def measure(duration_s: float = 10.0, costs=None,
            telemetry=None) -> Dict[Tuple[str, str], RunStats]:
    """Sequential read and write runs on every stack.

    Returns ``{(stack_name, "read"|"write"): RunStats}``.  Pass a
    ``CostModel(jitter_fraction=...)`` to measure RCT *distributions*
    (the paper's Fig 18 is a CDF).  A shared ``telemetry`` instance
    aggregates ``runtime_rct_seconds`` across all six runs.
    """
    table: Dict[Tuple[str, str], RunStats] = {}
    for name in STACKS:
        for kind in ("read", "write"):
            sim, stack = build_stack(name, costs, telemetry=telemetry)
            table[(name, kind)] = run_sequential(
                sim, stack, kind, "s1", "target", duration_s=duration_s)
    return table


def stats_to_dict(stats: RunStats, stack: str,
                  include_samples: bool = False) -> dict:
    """Canonical trial form of one sequential run (Fig 18/19 columns)."""
    out = {
        "stack": stack,
        "kind": stats.kind,
        "duration_s": stats.duration_s,
        "completed": stats.completed,
        "throughput_rps": stats.throughput_rps,
        "mean_rct_s": stats.mean_rct_s,
        "p5_rct_s": stats.percentile_rct_s(5),
        "p50_rct_s": stats.percentile_rct_s(50),
        "p95_rct_s": stats.percentile_rct_s(95),
        "p99_rct_s": stats.percentile_rct_s(99),
    }
    if include_samples:
        out["rcts_s"] = list(stats.rcts_s)
    return out


def _trial(ctx: TrialContext) -> dict:
    p = ctx.params
    costs = None
    if p["jitter_fraction"]:
        from repro.net.costs import CostModel
        costs = CostModel(jitter_fraction=p["jitter_fraction"])
    sim, stack = build_stack(p["stack"], costs, telemetry=ctx.telemetry)
    stats = run_sequential(sim, stack, p["kind"], "s1", "target",
                           duration_s=p["duration_s"])
    return stats_to_dict(stats, p["stack"],
                         include_samples=p["include_samples"])


def paper_table(trials):
    """Fig 18/19: mean RCT and throughput per stack, reads and writes."""
    by_key = {(t["params"]["stack"], t["params"]["kind"]): t["result"]
              for t in trials}
    rows = []
    for name in STACKS:
        if (name, "read") not in by_key or (name, "write") not in by_key:
            continue
        read, write = by_key[(name, "read")], by_key[(name, "write")]
        rows.append([name, f"{read['mean_rct_s'] * 1e6:.1f}",
                     f"{write['mean_rct_s'] * 1e6:.1f}",
                     f"{read['throughput_rps']:.0f}",
                     f"{write['throughput_rps']:.0f}"])
    return (["stack", "read RCT (us)", "write RCT (us)", "read (req/s)",
             "write (req/s)"], rows)


def _comparison_spec(name: str, title: str, source: str) -> ExperimentSpec:
    # Fig 18 (RCT) and Fig 19 (throughput) are two views of the same
    # sequential workload; both are registered so each figure is
    # independently addressable by ``repro run``.
    return ExperimentSpec(
        name=name,
        title=title,
        source=source,
        trial=_trial,
        grid={"stack": list(STACKS), "kind": ["read", "write"]},
        defaults={"duration_s": 10.0, "jitter_fraction": 0.0,
                  "include_samples": False},
        short={"duration_s": 1.0},
        paper_table=paper_table,
        tags=("figure", "runtime"),
    )


FIG18_SPEC = register(_comparison_spec(
    "fig18", "Register R/W request completion time", "Fig 18"))
FIG19_SPEC = register(_comparison_spec(
    "fig19", "Register R/W throughput", "Fig 19"))
