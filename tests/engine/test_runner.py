"""Runner tests: sharding identity, speedup, caching, artifacts, registry.

The synthetic specs used here are registered at import time so that
forked worker processes (which inherit this module) can look them up.
"""

import json
import time

import pytest

from repro.crypto.prng import XorShiftPrng
from repro.engine import (
    ExperimentSpec,
    ResultCache,
    Runner,
    TrialContext,
    get_spec,
    load_artifact,
    register,
    run_experiment,
    spec_names,
    unregister,
    validate_artifact,
)

_EXECUTIONS = []  # in-process only: counts serial executions


def _sim_trial(ctx: TrialContext) -> dict:
    """Five events on a simulator wired to the trial's telemetry."""
    from repro.net.simulator import EventSimulator
    sim = EventSimulator(telemetry=ctx.telemetry)
    for index in range(5):
        sim.schedule(index * 0.001, lambda: None)
    return {"events": sim.run()}


def _prng_trial(ctx: TrialContext) -> dict:
    _EXECUTIONS.append(ctx.params["index"])
    prng = XorShiftPrng(ctx.seed + ctx.params["index"])
    return {"index": ctx.params["index"],
            "draws": [prng.uniform() for _ in range(4)]}


PRNG_SPEC = register(ExperimentSpec(
    name="_test-prng",
    title="synthetic seeded trial",
    source="test",
    trial=_prng_trial,
    grid={"index": list(range(8))},
    defaults={"seed": 5},
    seed_param="seed",
))


def _sleep_trial(ctx: TrialContext) -> dict:
    time.sleep(ctx.params["sleep_s"])
    return {"index": ctx.params["index"]}


SLEEP_SPEC = register(ExperimentSpec(
    name="_test-sleep",
    title="synthetic sleeping trial",
    source="test",
    trial=_sleep_trial,
    grid={"index": list(range(8))},
    defaults={"sleep_s": 0.3},
))


class TestShardingIdentity:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_experiment("_test-prng", workers=1, base_seed=11)
        parallel = run_experiment("_test-prng", workers=4, base_seed=11)
        assert len(serial.trials) == 8
        a = json.dumps([t.as_artifact_entry() for t in serial.trials],
                       sort_keys=True)
        b = json.dumps([t.as_artifact_entry() for t in parallel.trials],
                       sort_keys=True)
        assert a == b

    def test_artifact_documents_identical_outside_run_meta(self):
        serial = run_experiment("_test-prng", workers=1).document()
        parallel = run_experiment("_test-prng", workers=3).document()
        assert serial["run_meta"] != parallel["run_meta"]
        del serial["run_meta"], parallel["run_meta"]
        assert serial == parallel

    def test_four_workers_at_least_twice_as_fast(self):
        started = time.perf_counter()
        run_experiment("_test-sleep", workers=1)
        serial_s = time.perf_counter() - started

        started = time.perf_counter()
        run_experiment("_test-sleep", workers=4)
        parallel_s = time.perf_counter() - started

        assert serial_s >= 8 * 0.3
        assert serial_s > 2 * parallel_s, (
            f"serial {serial_s:.2f}s vs 4-worker {parallel_s:.2f}s")


class TestCache:
    def test_second_run_replays_from_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _EXECUTIONS.clear()
        first = run_experiment("_test-prng", cache=cache)
        assert len(_EXECUTIONS) == 8
        assert first.run_meta["executed"] == 8

        second = run_experiment("_test-prng", cache=cache)
        assert len(_EXECUTIONS) == 8  # nothing re-executed
        assert second.run_meta["executed"] == 0
        assert second.run_meta["cache_hits"] == 8
        assert second.results() == first.results()

    def test_different_seed_misses_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment("_test-prng", cache=cache)
        rerun = run_experiment("_test-prng", cache=cache, base_seed=2)
        assert rerun.run_meta["cache_hits"] == 0

    def test_spec_version_invalidates_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment("_test-prng", cache=cache)
        bumped = ExperimentSpec(
            name=PRNG_SPEC.name, title=PRNG_SPEC.title,
            source=PRNG_SPEC.source, trial=PRNG_SPEC.trial,
            grid=PRNG_SPEC.grid, defaults=PRNG_SPEC.defaults,
            seed_param=PRNG_SPEC.seed_param, spec_version=2)
        runner = Runner(cache=cache)
        rerun = runner.run(bumped)
        assert rerun.run_meta["cache_hits"] == 0


class TestArtifacts:
    def test_run_emits_schema_valid_artifact(self, tmp_path):
        run = run_experiment("_test-prng", out_dir=str(tmp_path))
        assert run.artifact_path == str(tmp_path / "BENCH__test_prng.json")
        doc = load_artifact(run.artifact_path)
        validate_artifact(doc)
        assert doc["schema"] == "repro-bench/1"
        assert doc["experiment"] == "_test-prng"
        assert len(doc["trials"]) == 8
        for trial in doc["trials"]:
            assert set(trial) == {"id", "params", "seed", "result"}

    def test_validate_rejects_corrupt_documents(self, tmp_path):
        run = run_experiment("_test-prng", out_dir=str(tmp_path))
        doc = load_artifact(run.artifact_path)
        bad = dict(doc, schema="other/9")
        with pytest.raises(ValueError):
            validate_artifact(bad)
        bad = dict(doc, trials=[])
        with pytest.raises(ValueError):
            validate_artifact(bad)
        bad = dict(doc, trials=[doc["trials"][0], doc["trials"][0]])
        with pytest.raises(ValueError):
            validate_artifact(bad)


class TestRunnerMisc:
    def test_rejects_non_mapping_trial_result(self):
        def bad_trial(ctx):
            return [1, 2, 3]

        spec = ExperimentSpec(name="_test-bad", title="bad", source="test",
                              trial=bad_trial)
        with pytest.raises(TypeError, match="must return a mapping"):
            Runner().run(spec)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Runner(workers=0)

    def test_telemetry_dir_writes_per_trial_trace_and_metrics(
            self, tmp_path):
        spec = ExperimentSpec(name="_test-tel", title="tel", source="test",
                              trial=_sim_trial)
        run = Runner(telemetry_dir=str(tmp_path)).run(spec)
        assert run.only() == {"events": 5}
        assert (tmp_path / "_test-tel.jsonl").exists()
        prom = (tmp_path / "_test-tel.prom").read_text()
        assert "repro_sim_events_executed_total 5" in prom

    def test_telemetry_run_bypasses_cache_hits(self, tmp_path):
        """A cached result must not swallow the trial's telemetry: an
        instrumented run executes every trial, and still fills the
        cache for later uninstrumented runs."""
        spec = ExperimentSpec(name="_test-tel-cache", title="tel",
                              source="test", trial=_sim_trial)
        cache = ResultCache(str(tmp_path / "cache"))
        first = Runner(cache=cache).run(spec)
        assert first.run_meta["executed"] == 1
        traced = Runner(cache=cache,
                        telemetry_dir=str(tmp_path / "t2")).run(spec)
        assert traced.run_meta["executed"] == 1
        assert traced.run_meta["cache_hits"] == 0
        assert traced.only() == first.only()
        assert (tmp_path / "t2" / "_test-tel-cache.prom").exists()
        replay = Runner(cache=cache).run(spec)
        assert replay.run_meta["cache_hits"] == 1


class TestRegistry:
    def test_catalog_contains_every_figure_table_and_scenario(self):
        names = set(spec_names())
        assert {"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
                "table1", "table2", "table3", "aggregation", "fct", "int",
                "kmp-blackout", "crash-restart", "lossy-fig17"} <= names

    def test_get_spec_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="table2"):
            get_spec("no-such-experiment")

    def test_register_is_idempotent_and_unregister_works(self):
        spec = ExperimentSpec(name="_test-tmp", title="t", source="test",
                              trial=_prng_trial)
        assert register(spec) is spec
        assert register(spec) is spec
        assert get_spec("_test-tmp") is spec
        unregister("_test-tmp")
        with pytest.raises(KeyError):
            get_spec("_test-tmp")
