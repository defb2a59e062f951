"""Chaos scenarios: seeded workloads run under a fault plan, with
invariants checked at the end.

Each :class:`ChaosScenario` builds a deployment, arms a
:class:`~repro.faults.injector.FaultInjector`, drives a workload, and
returns a :class:`ChaosReport` whose invariants pin the behaviour the
paper promises even under fault:

- ``kmp-blackout`` — KMP operations issued into a controller-channel
  blackout are *abandoned* (bounded retries, not a silent hang) and the
  deployment re-converges once the channel returns.
- ``crash-restart`` — a switch crash wipes its key registers; requests in
  the window surface terminal failures, and after restart + re-keying
  authenticated writes succeed again.
- ``lossy-fig17`` — the Fig 17 HULA workload under 5% loss + reorder with
  live C-DP and DP-DP adversaries: zero forged state mutations land, the
  probe-tampered path attracts no traffic, delivery stays within the
  degradation envelope, and KMP re-converges within the event budget.

Everything is seeded; two runs with the same seed produce byte-identical
telemetry traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.attacks.control_plane import RegisterRequestTamperer, ReplayAttacker
from repro.attacks.link import ProbeFieldTamperer
from repro.core.auth_dataplane import P4AuthConfig, P4AuthDataplane
from repro.core.constants import REG_OP, RegOpType
from repro.core.controller import P4AuthController
from repro.dataplane.switch import DataplaneSwitch
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChannelBlackout, FaultPlan, LinkFault, NodeFault
from repro.net.network import Network
from repro.net.simulator import EventSimulator


@dataclass
class InvariantResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Outcome of one chaos run: invariants plus headline numbers."""

    scenario: str
    seed: int
    invariants: List[InvariantResult] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(inv.passed for inv in self.invariants)

    def failures(self) -> List[InvariantResult]:
        return [inv for inv in self.invariants if not inv.passed]

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.invariants.append(InvariantResult(name, bool(passed), detail))

    def summary(self) -> str:
        lines = [f"scenario {self.scenario!r} (seed={self.seed}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for inv in self.invariants:
            mark = "ok " if inv.passed else "FAIL"
            detail = f" — {inv.detail}" if inv.detail else ""
            lines.append(f"  [{mark}] {inv.name}{detail}")
        for key in sorted(self.metrics):
            lines.append(f"  {key} = {self.metrics[key]}")
        return "\n".join(lines)


class ChaosScenario:
    """Base class: a named, seeded workload-under-fault.

    ``default_plan`` is the scenario's fault-plan hook: a pure function
    of ``(seed, duration_s)`` the experiment engine also calls, so a
    sweep can reproduce or perturb the exact schedule a scenario arms.
    ``run(plan=...)`` overrides it.
    """

    name = "abstract"
    description = ""
    default_duration_s = 1.0

    @staticmethod
    def default_plan(seed: int, duration_s: float) -> FaultPlan:
        raise NotImplementedError

    def run(self, seed: int = 1, telemetry=None,
            duration_s: Optional[float] = None,
            plan: Optional[FaultPlan] = None) -> ChaosReport:
        raise NotImplementedError


class _Deployment:
    """A small provisioned P4Auth deployment (scenario building block)."""

    def __init__(self, num_switches: int, connect_pairs=(), registers=(),
                 telemetry=None, request_timeout_s: Optional[float] = None):
        self.sim = EventSimulator(telemetry=telemetry)
        self.net = Network(self.sim)
        self.dataplanes: Dict[str, P4AuthDataplane] = {}
        for index in range(1, num_switches + 1):
            name = f"s{index}"
            switch = DataplaneSwitch(name, num_ports=4, seed=1000 + index)
            self.net.add_switch(switch)
            for reg_name, width, size in registers:
                switch.registers.define(reg_name, width, size)
            dataplane = P4AuthDataplane(
                switch, k_seed=0xBEE0 + index, config=P4AuthConfig(),
            ).install()
            for reg_name, _w, _s in registers:
                dataplane.map_register(reg_name)
            self.dataplanes[name] = dataplane
        for name_a, port_a, name_b, port_b in connect_pairs:
            self.net.connect(name_a, port_a, name_b, port_b)
        self.controller = P4AuthController(
            self.net, request_timeout_s=request_timeout_s)
        for dataplane in self.dataplanes.values():
            self.controller.provision(dataplane)
        self.bootstrapped: List[float] = []
        self.controller.kmp.bootstrap_all(
            on_done=lambda: self.bootstrapped.append(self.sim.now))
        self.sim.run(until=0.1)


class KmpBlackoutScenario(ChaosScenario):
    """Key rollover issued into a control-channel blackout."""

    name = "kmp-blackout"
    description = ("Blackout both control channels; KMP ops issued inside "
                   "the window are abandoned, then re-converge after it.")
    default_duration_s = 1.5

    @staticmethod
    def default_plan(seed: int, duration_s: float) -> FaultPlan:
        return FaultPlan(seed=seed, blackouts=[
            ChannelBlackout("s1", start_s=0.2, end_s=0.5),
            ChannelBlackout("s2", start_s=0.2, end_s=0.5),
        ])

    def run(self, seed: int = 1, telemetry=None,
            duration_s: Optional[float] = None,
            plan: Optional[FaultPlan] = None) -> ChaosReport:
        duration = duration_s if duration_s is not None else 1.5
        report = ChaosReport(self.name, seed)
        dep = _Deployment(num_switches=2,
                          connect_pairs=[("s1", 1, "s2", 1)],
                          registers=[("demo", 64, 8)],
                          telemetry=telemetry)
        sim, kmp = dep.sim, dep.controller.kmp
        plan = plan or self.default_plan(seed, duration)
        injector = FaultInjector(dep.net, plan).arm()

        # Roll both local keys mid-blackout: every message is eaten, so
        # the bounded-retry machinery must abandon, not hang.
        sim.schedule(0.25 - sim.now, kmp.local_key_update, "s1")
        sim.schedule(0.25 - sim.now, kmp.local_key_update, "s2")
        # Re-issue after the channel returns.
        sim.schedule(0.8 - sim.now, kmp.local_key_update, "s1")
        sim.schedule(0.8 - sim.now, kmp.local_key_update, "s2")
        sim.run(until=duration, max_events=200_000)
        injector.disarm()

        write_results: List[bool] = []
        for switch in ("s1", "s2"):
            dep.controller.write_register(
                switch, "demo", 0, 0x600D,
                callback=lambda ok, _v: write_results.append(ok))
        sim.run(until=duration + 0.2, max_events=50_000)

        report.check("bootstrap_completed", bool(dep.bootstrapped))
        report.check("blackout_injected",
                     injector.stats.count("blackout") > 0,
                     f"{injector.stats.count('blackout')} messages eaten")
        report.check("ops_abandoned_not_hung",
                     len(kmp.stats.failures) == 2,
                     f"{len(kmp.stats.failures)} abandoned (expected 2)")
        report.check("kmp_reconverged",
                     kmp.stats.count("local_update") == 2,
                     f"{kmp.stats.count('local_update')} rollovers completed")
        report.check("no_dangling_exchanges",
                     not kmp._by_seq and not kmp._by_port)
        report.check("writes_ok_after_blackout",
                     write_results == [True, True], f"{write_results}")
        report.check("within_event_budget", sim.budget_exhaustions == 0)
        report.metrics.update({
            "events_executed": sim.events_executed,
            "blackout_drops": injector.stats.count("blackout"),
            "kmp_failures": len(kmp.stats.failures),
            "kmp_retries": kmp.stats.retries,
        })
        return report


class CrashRestartScenario(ChaosScenario):
    """Switch crash with register wipe, then restart and re-key."""

    name = "crash-restart"
    description = ("Crash a switch (wiping its key registers) mid-write; "
                   "requests fail terminally, then succeed after restart "
                   "and re-keying.")
    default_duration_s = 1.0

    @staticmethod
    def default_plan(seed: int, duration_s: float) -> FaultPlan:
        return FaultPlan(seed=seed, node_faults=[
            NodeFault("s1", crash_at_s=0.3, restart_at_s=0.5,
                      wipe_registers=True),
        ])

    def run(self, seed: int = 1, telemetry=None,
            duration_s: Optional[float] = None,
            plan: Optional[FaultPlan] = None) -> ChaosReport:
        duration = duration_s if duration_s is not None else 1.0
        report = ChaosReport(self.name, seed)
        dep = _Deployment(num_switches=1, registers=[("chaos", 64, 8)],
                          telemetry=telemetry, request_timeout_s=0.05)
        sim, controller = dep.sim, dep.controller
        plan = plan or self.default_plan(seed, duration)
        injector = FaultInjector(dep.net, plan).arm()
        rekeyed: List[float] = []
        injector.on_node_restart.append(
            lambda switch: controller.kmp.local_key_init(
                switch, on_done=lambda _r: rekeyed.append(sim.now)))

        outcomes: Dict[str, Optional[bool]] = {
            "before": None, "during": None, "after": None}

        def write(label: str, value: int) -> None:
            controller.write_register(
                "s1", "chaos", 0, value,
                callback=lambda ok, _v, key=label: outcomes.__setitem__(
                    key, ok))

        sim.schedule(0.15 - sim.now, write, "before", 0x1111)
        sim.schedule(0.35 - sim.now, write, "during", 0x2222)
        sim.schedule(0.7 - sim.now, write, "after", 0x3333)
        sim.run(until=duration, max_events=100_000)
        injector.disarm()

        final_value = dep.net.switch("s1").registers.get("chaos").read(0)
        report.check("bootstrap_completed", bool(dep.bootstrapped))
        report.check("write_before_crash_ok", outcomes["before"] is True)
        report.check("write_during_crash_fails_terminally",
                     outcomes["during"] is False,
                     f"outcome={outcomes['during']} (None = silent hang)")
        report.check("rekeyed_after_restart", bool(rekeyed))
        report.check("write_after_restart_ok", outcomes["after"] is True)
        report.check("register_holds_post_restart_value",
                     final_value == 0x3333, f"value={final_value:#x}")
        report.check("abandonment_counted",
                     controller.requests.stats.abandoned == 1,
                     f"{controller.requests.stats.abandoned} abandoned")
        report.check("within_event_budget", sim.budget_exhaustions == 0)
        report.metrics.update({
            "events_executed": sim.events_executed,
            "request_retries": controller.requests.stats.retries,
            "requests_abandoned": controller.requests.stats.abandoned,
            "rekey_time_s": rekeyed[0] if rekeyed else -1.0,
        })
        return report


class LossyFig17Scenario(ChaosScenario):
    """Fig 17 HULA workload under 5% loss + reorder with live adversaries."""

    name = "lossy-fig17"
    description = ("HULA Fig 17 workload under 5% loss + reorder, with a "
                   "probe tamperer, a C-DP write tamperer, and a replayer: "
                   "no forged write lands, the compromised path attracts "
                   "no traffic, and KMP re-converges.")
    default_duration_s = 3.0

    @staticmethod
    def default_plan(seed: int, duration_s: float) -> FaultPlan:
        return FaultPlan(seed=seed, link_faults=[
            LinkFault("drop", probability=0.05, start_s=0.1,
                      end_s=duration_s),
            LinkFault("reorder", probability=0.05, delay_s=2e-4,
                      start_s=0.1, end_s=duration_s),
        ])

    def run(self, seed: int = 1, telemetry=None,
            duration_s: Optional[float] = None,
            plan: Optional[FaultPlan] = None) -> ChaosReport:
        from repro.net.topology import hula_fig3_topology
        from repro.systems.hula import (
            HulaDataplane,
            fig3_hula_configs,
            make_data_packet,
            make_probe,
        )

        duration = duration_s if duration_s is not None else 3.0
        grace = 0.5
        report = ChaosReport(self.name, seed)
        net, extras = hula_fig3_topology(telemetry=telemetry)
        sim = extras["sim"]
        configs = fig3_hula_configs()
        hulas = {name: HulaDataplane(net.switch(name), config).install()
                 for name, config in configs.items()}
        # The adversary's target register, defined before provisioning so
        # the controller's p4info covers it.
        net.switch("s4").registers.define("chaos_reg", 64, 4)
        dataplanes = {}
        for index, name in enumerate(sorted(configs)):
            dataplanes[name] = P4AuthDataplane(
                net.switch(name), k_seed=0xAB00 + index,
                config=P4AuthConfig(protected_headers={"hula_probe"}),
            ).install()
        dataplanes["s4"].map_register("chaos_reg")
        controller = P4AuthController(net, request_timeout_s=0.05)
        for dataplane in dataplanes.values():
            controller.provision(dataplane)
        bootstrapped: List[float] = []
        controller.kmp.bootstrap_all(
            on_done=lambda: bootstrapped.append(sim.now))
        sim.run(until=0.1)

        # --- faults: 5% loss + 5% reorder on every link, whole run ------
        plan = plan or self.default_plan(seed, duration)
        injector = FaultInjector(net, plan).arm()

        # --- adversaries: DP-DP probe tamper, C-DP write tamper + replay
        probe_tamperer = ProbeFieldTamperer("hula_probe", "path_util", 2,
                                            direction_filter="b->a")
        probe_tamperer.attach(net.link_between("s1", "s4"))
        chaos_reg_id = controller.register_id("s4", "chaos_reg")
        replayer = ReplayAttacker(
            lambda p: p.has(REG_OP) and p.get(REG_OP)["regId"] == chaos_reg_id)
        replayer.attach(net.control_channels["s4"])
        write_tamperer = RegisterRequestTamperer(
            chaos_reg_id, transform=lambda v: v ^ 0xDEAD)
        write_tamperer.attach(net.control_channels["s4"])

        # --- workload: Fig 17 probes + data, plus periodic C-DP writes --
        h1, h5 = extras["h1"], extras["h5"]

        def send_probe(probe_id: int = 0) -> None:
            if sim.now >= duration:
                return
            h5.send(make_probe(5, probe_id))
            sim.schedule(0.005, send_probe, probe_id + 1)

        def send_data(seq: int = 0) -> None:
            if sim.now >= duration:
                return
            h1.send(make_data_packet(5, flow_id=seq, seq=seq & 0xFFFF))
            sim.schedule(0.0002, send_data, seq + 1)

        issued = [0x1000 + k for k in range(64)]
        allowed = {0} | {v ^ 0 for v in issued}

        def send_write(k: int = 0) -> None:
            if sim.now >= duration:
                return
            controller.write_register("s4", "chaos_reg", 0, issued[k % 64])
            sim.schedule(0.1, send_write, k + 1)

        # Ground truth: sample the target register straight out of the
        # simulated ASIC; a forged write would show up here even if every
        # counter lied.
        from repro.attacks.personas import GroundTruthSampler
        sampler = GroundTruthSampler(sim, net.switch("s4"), "chaos_reg",
                                     allowed)

        # KMP churn under loss: periodic rollover of local and port keys.
        controller.kmp.schedule_rollover(1.0)
        sim.schedule(0.0, send_probe)
        sim.schedule(0.05, send_data)
        sim.schedule(0.2 - sim.now, send_write)
        sim.schedule(0.15 - sim.now, sampler.start, duration + grace)
        # Mid-chaos replay burst of the recorded (validly signed) writes.
        sim.schedule(duration / 2, replayer.replay, net, "s4", 8)
        sim.schedule(duration / 2, replayer.replay, net, "s4", 8)

        # Warmup snapshot for traffic shares (as in fig17).
        s1 = hulas["s1"]
        snapshot: Dict[int, int] = {}
        sim.schedule(0.5, lambda: snapshot.update(s1.data_tx_per_port))
        sim.run(until=duration, max_events=2_000_000)

        # Chaos over: withdraw faults and adversaries, re-converge.
        injector.disarm()
        controller.kmp.cancel_rollover()
        probe_tamperer.detach_all()
        write_tamperer.detach_all()
        replayer.detach_all()
        clean_write: List[bool] = []
        controller.write_register(
            "s4", "chaos_reg", 0, 0x600D,
            callback=lambda ok, _v: clean_write.append(ok))
        allowed.add(0x600D)
        sim.run(until=duration + grace, max_events=500_000)

        s4_stats = dataplanes["s4"].stats
        port_to_path = {port: name for name, port in extras["paths"].items()}
        counts = {name: s1.data_tx_per_port.get(port, 0) - snapshot.get(port, 0)
                  for port, name in port_to_path.items()}
        total = sum(counts.values()) or 1
        s4_share = counts.get("s4", 0) / total
        delivered = len(h5.received) / (h1.sent_count or 1)
        samples = sampler.samples
        forged = sampler.forged()
        kmp = controller.kmp

        report.check("bootstrap_completed", bool(bootstrapped))
        report.check("faults_injected", injector.stats.total() > 0,
                     f"{injector.stats.total()} injections")
        report.check("writes_tampered", write_tamperer.stats.modified > 0,
                     f"{write_tamperer.stats.modified} rewritten in flight")
        report.check("zero_forged_writes_landed", not forged,
                     f"{len(forged)} forged values observed in "
                     f"{len(samples)} samples")
        report.check("tampered_writes_rejected",
                     s4_stats.digest_fail_cdp > 0,
                     f"{s4_stats.digest_fail_cdp} C-DP digest failures")
        report.check("replays_rejected",
                     replayer.stats.injected > 0
                     and s4_stats.replays_detected > 0,
                     f"{replayer.stats.injected} injected, "
                     f"{s4_stats.replays_detected} detected")
        report.check("compromised_path_not_attracted", s4_share < 0.34,
                     f"s4 share {s4_share:.2f}")
        report.check("delivery_within_envelope", delivered >= 0.75,
                     f"{delivered:.2%} delivered under 5% loss + reorder")
        report.check("kmp_reconverged",
                     not kmp._by_seq and not kmp._by_port,
                     f"{len(kmp._by_seq)}+{len(kmp._by_port)} dangling")
        report.check("clean_write_after_chaos", clean_write == [True],
                     f"{clean_write}")
        report.check("within_event_budget", sim.budget_exhaustions == 0,
                     f"{sim.events_executed} events")
        report.metrics.update({
            "events_executed": sim.events_executed,
            "fault_injections": injector.stats.total(),
            "drops_injected": injector.stats.count("drop"),
            "reorders_injected": injector.stats.count("reorder"),
            "s4_share": round(s4_share, 4),
            "delivery_ratio": round(delivered, 4),
            "kmp_retries": kmp.stats.retries,
            "kmp_failures": len(kmp.stats.failures),
            "digest_fail_cdp": s4_stats.digest_fail_cdp,
            "replays_detected": s4_stats.replays_detected,
            "requests_abandoned": controller.requests.stats.abandoned,
        })
        return report


SCENARIOS: Dict[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (KmpBlackoutScenario(), CrashRestartScenario(),
                     LossyFig17Scenario())
}

#: The cheapest scenarios, run by the CI chaos-smoke job.
SMOKE_SCENARIOS = ("kmp-blackout", "crash-restart")


def run_scenario(name: str, seed: int = 1, telemetry=None,
                 duration_s: Optional[float] = None,
                 plan: Optional[FaultPlan] = None) -> ChaosReport:
    """Look up and run one scenario by name."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown chaos scenario {name!r} "
                       f"(have: {sorted(SCENARIOS)})") from None
    return scenario.run(seed=seed, telemetry=telemetry,
                        duration_s=duration_s, plan=plan)


def report_to_dict(report: ChaosReport) -> dict:
    """Canonical trial form of a chaos run (includes derived ``passed``)."""
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "passed": report.passed,
        "invariants": [
            {"name": inv.name, "passed": inv.passed, "detail": inv.detail}
            for inv in report.invariants
        ],
        "metrics": dict(report.metrics),
    }


def _chaos_trial(ctx: TrialContext) -> dict:
    p = ctx.params
    report = run_scenario(p["scenario"], seed=p["seed"],
                          telemetry=ctx.telemetry,
                          duration_s=p["duration_s"],
                          plan=ctx.fault_plan)
    return report_to_dict(report)


def _register_chaos_specs() -> Dict[str, ExperimentSpec]:
    specs = {}
    for scenario in SCENARIOS.values():
        def fault_plan(params, seed,
                       _scenario=scenario) -> FaultPlan:
            return _scenario.default_plan(seed, params["duration_s"])

        specs[scenario.name] = register(ExperimentSpec(
            name=scenario.name,
            title="Chaos: "
                  + scenario.description.split(";")[0].split(",")[0],
            source="chaos",
            trial=_chaos_trial,
            defaults={"scenario": scenario.name, "seed": 1,
                      "duration_s": scenario.default_duration_s},
            seed_param="seed",
            supports_telemetry=True,
            fault_plan=fault_plan,
            tags=("chaos",),
        ))
    return specs


CHAOS_SPECS = _register_chaos_specs()
