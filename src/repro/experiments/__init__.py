"""Experiment drivers: one module per paper table/figure.

Each driver builds the full scenario (topology, victim system, P4Auth,
adversary), runs the simulation, and returns a structured result.  Every
module also registers an :class:`~repro.engine.spec.ExperimentSpec` with
the engine registry, so the same measurement is reachable three ways:
the legacy ``run_*`` function, ``repro.engine.run_experiment(name)``,
and ``python -m repro run <name>``, which prints the spec's
``paper_table``.  The ``benchmarks/`` suite calls the specs; integration
tests assert their shapes.
"""

from repro.experiments.fig16_routescout import RouteScoutResult, run_routescout
from repro.experiments.fig17_hula import HulaResult, run_hula
from repro.experiments.fig20_kmp import KmpRttResult, run_kmp_rtt
from repro.experiments.fig21_multihop import MultihopResult, run_multihop
from repro.experiments.table2_resources import run_table2
from repro.experiments.table3_scalability import ScalabilityResult, run_table3
from repro.experiments.attack2_aggregation import (
    run_aggregation,
    run_all as run_aggregation_all,
)

__all__ = [
    "RouteScoutResult",
    "run_routescout",
    "HulaResult",
    "run_hula",
    "KmpRttResult",
    "run_kmp_rtt",
    "MultihopResult",
    "run_multihop",
    "run_table2",
    "ScalabilityResult",
    "run_table3",
    "run_aggregation",
    "run_aggregation_all",
]
