"""Trial-matrix execution: serial or sharded across worker processes.

The :class:`Runner` expands a spec into its deterministic trial list,
executes each trial (optionally under a content-hash result cache and
per-trial telemetry capture), and assembles the canonical artifact.
Because every trial's seed and parameters are fixed *before* execution
(:meth:`ExperimentSpec.expand`), and results are collected by trial
index rather than completion order, ``workers=1`` and ``workers=N``
produce byte-identical ``trials`` sections — parallelism is purely a
wall-clock optimization.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.engine.artifact import build_artifact, write_artifact
from repro.engine.cache import ResultCache
from repro.engine.canon import to_jsonable
from repro.engine.registry import get_spec
from repro.engine.spec import ExperimentSpec, TrialContext, TrialPlan


@dataclass
class TrialRecord:
    """One executed (or cache-replayed) trial."""

    id: str
    params: Dict[str, Any]
    seed: int
    result: Dict[str, Any]

    def as_artifact_entry(self) -> Dict[str, Any]:
        return {"id": self.id, "params": self.params, "seed": self.seed,
                "result": self.result}


@dataclass
class RunResult:
    """Everything one engine run produced."""

    spec: ExperimentSpec
    base_seed: Optional[int]
    trials: List[TrialRecord] = field(default_factory=list)
    run_meta: Dict[str, Any] = field(default_factory=dict)
    artifact_path: Optional[str] = None

    def document(self) -> Dict[str, Any]:
        return build_artifact(
            self.spec, [t.as_artifact_entry() for t in self.trials],
            self.base_seed, self.run_meta)

    def only(self) -> Dict[str, Any]:
        """The single trial's result (errors if the matrix had several)."""
        if len(self.trials) != 1:
            raise ValueError(
                f"expected exactly one trial, have {len(self.trials)}")
        return self.trials[0].result

    def result_for(self, **params) -> Dict[str, Any]:
        """The unique trial whose params include every given item."""
        matches = [t for t in self.trials
                   if all(t.params.get(k) == v for k, v in params.items())]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} trials match {params} "
                           f"in {self.spec.name!r}")
        return matches[0].result

    def results(self) -> List[Dict[str, Any]]:
        return [t.result for t in self.trials]


def execute_trial(spec: ExperimentSpec, plan: TrialPlan,
                  telemetry_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one trial in-process and return its canonical result.

    With ``telemetry_dir``, the trial runs under a live ``Telemetry`` and
    leaves ``<trial>.jsonl`` (the trace) and ``<trial>.prom`` (the
    metrics) there.  Instrumentation never changes the result.
    """
    telemetry = None
    if telemetry_dir is not None:
        from repro.telemetry import Telemetry, write_prometheus
        telemetry = Telemetry(enabled=True)
    fault_plan = (spec.fault_plan(plan.params, plan.seed)
                  if spec.fault_plan is not None else None)
    ctx = TrialContext(params=dict(plan.params), seed=plan.seed,
                       telemetry=telemetry, fault_plan=fault_plan)
    result = to_jsonable(spec.trial(ctx))
    if not isinstance(result, dict):
        raise TypeError(f"trial for {spec.name!r} must return a mapping, "
                        f"got {type(result).__name__}")
    if telemetry is not None:
        os.makedirs(telemetry_dir, exist_ok=True)
        safe = plan.trial_id.replace("[", ".").replace("]", "")
        base = os.path.join(telemetry_dir, safe)
        telemetry.tracer.dump(f"{base}.jsonl")
        write_prometheus(telemetry.metrics, f"{base}.prom")
    return result


def _worker_job(job) -> Dict[str, Any]:
    """Top-level pool target: look the spec up in this process and run."""
    spec_name, plan, telemetry_dir = job
    return execute_trial(get_spec(spec_name), plan, telemetry_dir)


class Runner:
    """Expands, shards, caches, and records experiment runs."""

    def __init__(self, workers: int = 1,
                 cache: Union[ResultCache, None, bool] = None,
                 out_dir: Optional[str] = None,
                 telemetry_dir: Optional[str] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if cache is True:
            cache = ResultCache()
        self.cache = cache or None
        self.out_dir = out_dir
        self.telemetry_dir = telemetry_dir

    def run(self, spec_or_name: Union[str, ExperimentSpec],
            sweep: Optional[Dict[str, Sequence[Any]]] = None,
            base_seed: Optional[int] = None,
            short: bool = False) -> RunResult:
        spec = (get_spec(spec_or_name) if isinstance(spec_or_name, str)
                else spec_or_name)
        plans = spec.expand(sweep=sweep, short=short, base_seed=base_seed)
        started = time.perf_counter()

        results: List[Optional[Dict[str, Any]]] = [None] * len(plans)
        pending: List[int] = []
        cache_hits = 0
        # An instrumented run must execute every trial: a cache hit would
        # leave no trace behind.  Its results still populate the cache.
        lookup = self.cache is not None and self.telemetry_dir is None
        for index, plan in enumerate(plans):
            if lookup:
                hit = self.cache.get(plan.cache_key(spec))
                if hit is not None:
                    results[index] = hit
                    cache_hits += 1
                    continue
            pending.append(index)

        executed = len(pending)
        if pending:
            if self.workers == 1 or len(pending) == 1:
                for index in pending:
                    results[index] = execute_trial(spec, plans[index],
                                                   self.telemetry_dir)
            else:
                results_in_order = self._run_pool(
                    spec, [plans[index] for index in pending])
                for index, result in zip(pending, results_in_order):
                    results[index] = result
            if self.cache is not None:
                for index in pending:
                    self.cache.put(plans[index].cache_key(spec),
                                   results[index])

        run = RunResult(spec=spec, base_seed=base_seed)
        for plan, result in zip(plans, results):
            run.trials.append(TrialRecord(
                id=plan.trial_id, params=to_jsonable(plan.params),
                seed=plan.seed, result=result))
        run.run_meta = {
            "workers": self.workers,
            "trials": len(plans),
            "executed": executed,
            "cache_hits": cache_hits,
            "elapsed_s": round(time.perf_counter() - started, 6),
            "short": short,
        }
        if self.out_dir is not None:
            run.artifact_path = write_artifact(run.document(), self.out_dir)
        return run

    def _run_pool(self, spec: ExperimentSpec,
                  plans: List[TrialPlan]) -> List[Dict[str, Any]]:
        # fork shares the in-process registry (including test-registered
        # specs); under spawn the worker re-imports the catalog instead.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        jobs = [(spec.name, plan, self.telemetry_dir) for plan in plans]
        workers = min(self.workers, len(jobs))
        with ctx.Pool(processes=workers) as pool:
            # map (not imap_unordered): results come back in job order,
            # so sharding cannot perturb the artifact.
            return pool.map(_worker_job, jobs)


def assign_regions(region_ids: Sequence[str],
                   workers: int) -> Dict[str, List[str]]:
    """Region -> worker ownership via the bounded-load consistent ring.

    The same :class:`~repro.service.shardmap.ShardMap` that shards the
    service fleet assigns whole regions to engine workers, so adding a
    worker re-homes few regions and no worker owns more than its
    bounded-load share.  Pure function of ``(region_ids, workers)``.

    Unlike switch sharding (many items per shard, where 1.15x slack
    smooths the ring), regions are few and heavy: the load factor is
    pinned to 1.0 so the cap equals the fair share and no worker idles
    while another owns two regions — the wall-clock speedup of the
    region phase is set by the most loaded worker.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # Imported here, not at module level: repro.service pulls in the
    # daemon (and through it the runtime stacks), which import the
    # engine registry — a top-level import would close that cycle.
    from repro.service.shardmap import ShardMap
    ring = ShardMap([f"worker-{index}" for index in range(workers)])
    return ring.assign(sorted(region_ids), load_factor=1.0)


def _region_group_job(job) -> List[Any]:
    """Pool target: run one worker's whole region group in-process."""
    task, region_ids = job
    return [task(region_id) for region_id in region_ids]


def run_region_tasks(task, region_ids: Sequence[str],
                     workers: int = 1) -> Dict[str, Any]:
    """Run ``task(region_id)`` for every region, sharded across workers.

    Each worker owns *whole* regions (never half a region), results come
    back keyed by region id in sorted order, and the returned mapping is
    byte-identical for any worker count — parallelism is purely a
    wall-clock optimization, exactly like the trial runner.

    Nested inside a daemonic pool worker (an engine trial already running
    under ``workers > 1``) multiprocessing cannot fork again; the call
    transparently degrades to inline execution with identical results.
    """
    ordered = sorted(region_ids)
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate region ids")
    inline = (workers <= 1 or len(ordered) <= 1
              or multiprocessing.current_process().daemon)
    if inline:
        return {region_id: task(region_id) for region_id in ordered}
    assignment = assign_regions(ordered, workers)
    groups = [group for _worker, group in sorted(assignment.items())
              if group]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes=len(groups)) as pool:
        outputs = pool.map(_region_group_job,
                           [(task, group) for group in groups])
    merged: Dict[str, Any] = {}
    for group, results in zip(groups, outputs):
        merged.update(zip(group, results))
    return {region_id: merged[region_id] for region_id in ordered}


def run_experiment(name: str, sweep: Optional[Dict[str, Sequence]] = None,
                   workers: int = 1, base_seed: Optional[int] = None,
                   short: bool = False,
                   cache: Union[ResultCache, None, bool] = None,
                   out_dir: Optional[str] = None,
                   telemetry_dir: Optional[str] = None) -> RunResult:
    """One-call convenience wrapper used by tests and benchmarks."""
    runner = Runner(workers=workers, cache=cache, out_dir=out_dir,
                    telemetry_dir=telemetry_dir)
    return runner.run(name, sweep=sweep, base_seed=base_seed, short=short)


__all__ = [
    "RunResult",
    "Runner",
    "TrialRecord",
    "assign_regions",
    "execute_trial",
    "run_experiment",
    "run_region_tasks",
]
