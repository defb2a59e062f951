"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one paper figure/table/scenario as
data: a parameter grid (the axes that vary across trials), scalar
defaults, and a trial function that builds the scenario and returns a
canonical result dict.  The :class:`~repro.engine.runner.Runner` expands
the grid into a deterministic trial list, derives one seed per trial,
and executes trials serially or across worker processes — the spec
itself never knows how it is being run.

Seed derivation
---------------
Every experiment that consumes randomness exposes it through a single
``seed`` parameter (named by :attr:`ExperimentSpec.seed_param`).  With no
base seed, each trial keeps the module's reference seed — the exact
numbers the legacy per-module runners produce (the parity tests pin
this).  With ``base_seed=N`` (CLI ``--seed N``), each trial's seed is
re-derived as a pure function of ``(base_seed, spec name, the trial's
other parameters)`` via :func:`derive_seed`, so

- two trials of one sweep never share a seed by accident,
- a trial's seed never depends on execution order or worker count
  (parallel and serial runs are bit-identical), and
- re-running a sweep with the same base seed reproduces it exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.engine.canon import canonical_json, content_hash


@dataclass
class TrialContext:
    """Everything the engine hands a trial function for one execution."""

    #: Fully resolved parameters (grid axes + defaults + sweep overrides).
    params: Dict[str, Any]
    #: The trial's seed (also present in ``params`` for seeded specs).
    seed: int
    #: A live ``Telemetry`` when the run is instrumented, else None.  Trial
    #: functions pass it to their ``EventSimulator`` or topology builder.
    telemetry: Any = None
    #: The spec's fault plan for these params (chaos specs), else None.
    fault_plan: Any = None


TrialFn = Callable[[TrialContext], Mapping]
#: Renders the paper's table from artifact trials (``{"id", "params",
#: "seed", "result"}`` dicts): returns ``(headers, rows)``.
PaperTableFn = Callable[[Sequence[Mapping[str, Any]]],
                        Tuple[List[str], List[List[Any]]]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment as data; registered in :mod:`repro.engine.registry`."""

    name: str
    title: str
    #: Where the numbers land in the paper ("Fig 16", "Table I", "chaos").
    source: str
    #: Builds the scenario for one parameter point; returns a JSONable
    #: mapping.  Must be a module-level callable (worker processes look
    #: the spec up by name and call it there).
    trial: TrialFn
    #: Axes that vary across trials: param name -> sequence of values.
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: Scalar parameters shared by every trial (sweepable via overrides).
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Overrides applied by ``--short`` (CI smoke: cheap but real runs).
    short: Mapping[str, Any] = field(default_factory=dict)
    #: Name of the parameter carrying the trial seed, or None for
    #: experiments that are deterministic by construction.
    seed_param: Optional[str] = None
    #: Bumped whenever the trial's result semantics change; part of the
    #: result-cache key, so stale cache entries can never be replayed.
    spec_version: int = 1
    #: Renders the paper table this spec reproduces, or None.
    paper_table: Optional[PaperTableFn] = None
    #: Optional hook deriving a FaultPlan from (params, seed).
    fault_plan: Optional[Callable[[Mapping[str, Any], int], Any]] = None
    tags: Tuple[str, ...] = ()

    def param_names(self) -> List[str]:
        return sorted(set(self.grid) | set(self.defaults))

    def expand(self, sweep: Optional[Mapping[str, Sequence[Any]]] = None,
               short: bool = False,
               base_seed: Optional[int] = None) -> List["TrialPlan"]:
        """The deterministic trial list for one run.

        ``sweep`` maps parameter names to value lists; a swept parameter
        becomes (or replaces) a grid axis.  Axes are iterated in sorted
        name order, values in the order given, so the trial list — and
        therefore every artifact — is independent of dict insertion
        order and worker scheduling.
        """
        axes: Dict[str, Sequence[Any]] = dict(self.grid)
        scalars: Dict[str, Any] = dict(self.defaults)
        if short:
            for key, value in self.short.items():
                if key in axes:
                    axes[key] = value if isinstance(value, (list, tuple)) \
                        else [value]
                else:
                    scalars[key] = value
        for key, values in (sweep or {}).items():
            if key not in axes and key not in scalars:
                raise KeyError(
                    f"{self.name!r} has no parameter {key!r} "
                    f"(valid: {self.param_names()})")
            scalars.pop(key, None)
            axes[key] = list(values)

        names = sorted(axes)
        plans: List[TrialPlan] = []
        for combo in itertools.product(*(axes[name] for name in names)):
            params = dict(scalars)
            params.update(zip(names, combo))
            seed = self._trial_seed(params, base_seed)
            if self.seed_param is not None:
                params[self.seed_param] = seed
            plans.append(TrialPlan(spec_name=self.name, params=params,
                                   seed=seed, varied=list(names)))
        return plans

    def _trial_seed(self, params: Dict[str, Any],
                    base_seed: Optional[int]) -> int:
        if base_seed is None:
            if self.seed_param is None:
                return 0
            return int(params.get(self.seed_param, 0))
        others = {key: value for key, value in params.items()
                  if key != self.seed_param}
        return derive_seed(base_seed, self.name, others)


@dataclass(frozen=True)
class TrialPlan:
    """One point of the expanded matrix, before execution."""

    spec_name: str
    params: Dict[str, Any]
    seed: int
    #: The axis names that vary across this run (for display/ids).
    varied: List[str]

    @property
    def trial_id(self) -> str:
        """Stable, filesystem-safe identity within one run."""
        if not self.varied:
            return self.spec_name
        parts = [f"{name}={self.params[name]}" for name in self.varied]
        safe = ",".join(parts).replace("/", "_").replace(" ", "")
        return f"{self.spec_name}[{safe}]"

    def cache_key(self, spec: ExperimentSpec) -> str:
        """Content hash identifying this trial's result exactly."""
        return content_hash({
            "spec": self.spec_name,
            "spec_version": spec.spec_version,
            "params": self.params,
            "seed": self.seed,
        })


def derive_seed(base_seed: int, spec_name: str,
                params: Mapping[str, Any]) -> int:
    """A 31-bit seed that is a pure function of its inputs.

    Stays in ``[1, 2**31)`` so every consumer (xorshift PRNGs, switch
    seeds, k_seed mixing) receives a small positive int, like the
    hand-picked reference seeds it replaces.
    """
    digest = content_hash({"base": int(base_seed), "spec": spec_name,
                           "params": params})
    return int(digest[:8], 16) % (2 ** 31 - 1) + 1


def parse_sweep(spec: ExperimentSpec,
                items: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse CLI ``--sweep k=v1,v2`` strings, coercing to the param type.

    The target type comes from the spec's default (or first grid value)
    for that parameter; booleans accept true/false/1/0.
    """
    sweep: Dict[str, List[Any]] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--sweep expects k=v1,v2,...  got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in spec.defaults:
            template = spec.defaults[key]
        elif key in spec.grid and len(spec.grid[key]):
            template = spec.grid[key][0]
        else:
            raise KeyError(
                f"{spec.name!r} has no parameter {key!r} "
                f"(valid: {spec.param_names()})")
        sweep[key] = [_coerce(value.strip(), template)
                      for value in raw.split(",") if value.strip()]
        if not sweep[key]:
            raise ValueError(f"--sweep {key}= has no values")
    return sweep


def _coerce(text: str, template: Any) -> Any:
    if isinstance(template, bool):
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    if template is None or isinstance(template, str):
        return text
    raise ValueError(
        f"cannot sweep parameter of type {type(template).__name__}")


__all__ = [
    "ExperimentSpec",
    "TrialContext",
    "TrialPlan",
    "canonical_json",
    "derive_seed",
    "parse_sweep",
]
