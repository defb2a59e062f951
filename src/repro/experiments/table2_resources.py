"""Table II: hardware resource overhead of the P4Auth program.

Compiles the declarative :class:`~repro.dataplane.resources.ProgramSpec`
inventories for the baseline L3 program and the P4Auth-augmented one
through the Tofino-calibrated :class:`~repro.dataplane.resources.ResourceModel`
and reports the utilization percentages the paper tabulates.
"""

from __future__ import annotations

from typing import Dict

from repro.core.program import baseline_program_spec, p4auth_program_spec
from repro.dataplane.resources import ResourceModel, ResourceReport
from repro.engine.registry import register
from repro.engine.spec import ExperimentSpec, TrialContext

PROGRAMS = ("baseline", "p4auth")

#: Display names matching the paper's Table II rows.
PROGRAM_LABELS = {"baseline": "Baseline", "p4auth": "With P4Auth"}


def run_table2(program: str) -> ResourceReport:
    """Compile one program variant and report its resource usage."""
    if program not in PROGRAMS:
        raise ValueError(f"program must be one of {PROGRAMS}")
    spec = (baseline_program_spec() if program == "baseline"
            else p4auth_program_spec())
    return ResourceModel().report(spec)


def run_all() -> Dict[str, ResourceReport]:
    return {program: run_table2(program) for program in PROGRAMS}


def _trial(ctx: TrialContext) -> ResourceReport:
    return run_table2(ctx.params["program"])


def paper_table(trials):
    """Table II: Tofino resource utilization per program variant."""
    rows = [[PROGRAM_LABELS[t["params"]["program"]]]
            + [f"{t['result'][key]}%"
               for key in ("tcam_pct", "sram_pct", "hash_pct", "phv_pct")]
            for t in trials]
    return ["program", "TCAM", "SRAM", "Hash Units", "PHV"], rows


SPEC = register(ExperimentSpec(
    name="table2",
    title="Hardware resource overhead",
    source="Table II",
    trial=_trial,
    grid={"program": list(PROGRAMS)},
    paper_table=paper_table,
    tags=("table", "resources"),
))
