"""Table I: attack impact across five in-network system classes.

Runs every mini-model (Blink, SilkRoad, NetCache, FlowRadar, NetWarden)
in all three modes and assembles the Table I matrix: each row shows the
system's headline metric without an adversary, under attack, and under
attack with P4Auth — plus whether the state was silently poisoned and
whether the tamper was detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext
from repro.systems import blink, flowradar, netcache, netwarden, silkroad
from repro.systems.tableone import MODES, TableIScenarioResult

SYSTEMS = {
    "blink": blink.run_scenario,
    "silkroad": silkroad.run_scenario,
    "netcache": netcache.run_scenario,
    "flowradar": flowradar.run_scenario,
    "netwarden": netwarden.run_scenario,
}


@dataclass
class TableIResult:
    #: system -> mode -> scenario result.
    matrix: Dict[str, Dict[str, TableIScenarioResult]] = field(
        default_factory=dict)


def run_table1(systems: Dict = None) -> TableIResult:
    """Run every Table I scenario in every mode."""
    result = TableIResult()
    for name, scenario in (systems or SYSTEMS).items():
        result.matrix[name] = {mode: scenario(mode) for mode in MODES}
    return result


def _trial(ctx: TrialContext) -> TableIScenarioResult:
    return SYSTEMS[ctx.params["system"]](ctx.params["mode"],
                                         telemetry=ctx.telemetry)


def paper_table(trials):
    """Table I: each system's metric without, under, and despite attack."""
    matrix: Dict[str, Dict[str, dict]] = {}
    for trial in trials:
        matrix.setdefault(trial["params"]["system"], {})[
            trial["params"]["mode"]] = trial["result"]
    rows = []
    for system in sorted(matrix):
        by_mode = matrix[system]
        if any(mode not in by_mode for mode in MODES):
            continue
        baseline, attack, p4auth = (by_mode[mode] for mode in MODES)
        rows.append([
            system,
            baseline["impact_metric"],
            f"{baseline['impact_value']:.3f}",
            f"{attack['impact_value']:.3f}",
            f"{p4auth['impact_value']:.3f}",
            "yes" if attack["state_poisoned"] else "no",
            "yes" if p4auth["detected"] else "no",
        ])
    return (["system", "metric", "baseline", "attack", "attack+P4Auth",
             "poisoned", "detected"], rows)


SPEC = register(ExperimentSpec(
    name="table1",
    title="Attack impact across system classes",
    source="Table I",
    trial=_trial,
    grid={"system": sorted(SYSTEMS), "mode": list(MODES)},
    paper_table=paper_table,
    tags=("table", "impact"),
))
