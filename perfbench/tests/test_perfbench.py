"""The benchmark's own tests: metric coverage, gates, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench_run
from pbench import cdp_service, dpdp_hula, kmp_fleet, layers, runner
from pbench.common import CheckFailed, Episode
from pbench.spans import Tracer

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
WORKLOADS = ("cdp-service", "dpdp-hula", "kmp-fleet")


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)[section]}


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == declared
    printed = {line.split()[1]: line.split()[-1] for line in lines
               if line.startswith("metric ")}
    assert printed == declared
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_every_workload_is_declared_with_a_reason():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(runner.WORKLOADS) == sorted(WORKLOADS)
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in spec["end_to_end"]] == [
        tuple(row) for row in runner.END_TO_END]
    assert [(e["name"], e["unit"], e["better"])
            for e in spec["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER]
    assert set(layers.MOVES) == set(layers.LAYERS)


def test_tampered_cdp_responses_fail_the_gate(tmp_path):
    with pytest.raises(CheckFailed) as caught:
        cdp_service.run_episode(5, cdp_service.SIZES["tiny"], str(tmp_path),
                                arm=cdp_service.arm_injector())
    failures = " ".join(caught.value.failures)
    assert "tamper events" in failures
    assert "C-DP digest failures" in failures
    assert "stalled" in failures


def test_a_failed_op_fails_the_gate(tmp_path, monkeypatch):
    plans = cdp_service.make_plans

    def with_bad_op(seed, size):
        plan = plans(seed, size)
        point = plan[0][1]
        point[0] = dict(point[0], register="no-such-register")
        return plan

    monkeypatch.setattr(cdp_service, "make_plans", with_bad_op)
    with pytest.raises(CheckFailed) as caught:
        cdp_service.run_episode(5, cdp_service.SIZES["tiny"], str(tmp_path))
    assert caught.value.failed == 1
    assert "1 ops failed" in caught.value.failures

    result = runner.run("cdp-service", 5, 0.1, False, "tiny", ROOT,
                        str(tmp_path))
    assert result["correct"] is False
    assert result["metrics"] == {}


def _episode(fingerprint: str) -> Episode:
    return Episode(setup_s=1.0, phase_s=1.0, raw_setup_s=1.0,
                   raw_phase_s=1.0, ops=1, attempted=1, failed=0, passes=1,
                   fingerprint=fingerprint)


def test_disagreeing_fingerprints_fail_the_gate(tmp_path, monkeypatch):
    with pytest.raises(CheckFailed):
        runner._fingerprint_of([_episode("a" * 64), _episode("b" * 64)])

    monkeypatch.setattr(bench_run, "OUT_DIR", str(tmp_path))
    result = {"workload": "dpdp-hula", "size": "tiny", "seed": 1,
              "meta": {"src_sha256": "c" * 64, "bench_sha256": "d" * 64},
              "fingerprint": "a" * 64,
              "correct": True, "failures": []}
    assert bench_run._check_ledger(dict(result, failures=[])) == "new"
    assert bench_run._check_ledger(dict(result, failures=[])) == "agrees"
    other = dict(result, fingerprint="b" * 64, failures=[])
    assert bench_run._check_ledger(other) == "DISAGREES"
    assert other["correct"] is False and other["failures"]


def test_same_seed_repeats_its_fingerprint_and_seeds_differ(tmp_path):
    for mod in (dpdp_hula, kmp_fleet):
        first = mod.run_episode(7, mod.SIZES["tiny"], str(tmp_path))
        again = mod.run_episode(7, mod.SIZES["tiny"], str(tmp_path))
        other = mod.run_episode(8, mod.SIZES["tiny"], str(tmp_path))
        assert first.fingerprint == again.fingerprint
        assert first.fingerprint != other.fingerprint


class _Work:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1

    async def serve(self):
        await asyncio.sleep(0)
        return self.inner()


def test_tracer_parents_self_time_and_uninstall():
    tracer = Tracer()
    original = _Work.__dict__["outer"]
    tracer.patch(_Work, "outer", tracer.wrap(_Work.outer, "core.outer",
                                              "core"))
    tracer.patch(_Work, "inner", tracer.wrap(_Work.inner, "crypto.inner",
                                              "crypto"))
    tracer.patch(_Work, "serve", tracer.wrap_async(_Work.serve,
                                                    "service.serve",
                                                    "service"))
    work = _Work()
    assert work.outer() == 2
    assert asyncio.run(work.serve()) == 1
    tracer.uninstall()
    assert _Work.__dict__["outer"] is original

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    outer = by_name["core.outer"][0]
    serve = by_name["service.serve"][0]
    inners = by_name["crypto.inner"]
    assert [s.parent for s in inners] == [outer.id, outer.id, serve.id]
    selfs = tracer.self_times()
    children = sum(s.end - s.start for s in inners[:2])
    assert selfs[outer.id] == pytest.approx(
        outer.end - outer.start - children)
    assert serve.id not in selfs
    assert work.outer() == 2 and len(tracer.spans) == 5


def test_without_the_program_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dpdp-hula", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
