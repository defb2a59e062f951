"""CLI tests for the engine front-end: run / list / report / listing."""

import json
import os

import pytest

from repro.__main__ import main
from repro.engine import (
    ExperimentSpec,
    all_specs,
    load_artifact,
    register,
    unregister,
    validate_artifact,
)

#: The specs that reproduce a paper figure or table.
PAPER_TABLE_SPECS = {"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
                     "table1", "table2", "table3", "aggregation", "int"}


def _failing_trial(ctx):
    return {"passed": ctx.params["index"] != 1}


def _prom_value(text, name):
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


class TestListing:
    def test_no_arguments_lists_registry(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out
        for name in ("fig17", "table2", "kmp-blackout", "lossy-fig17"):
            assert name in out

    def test_list_subcommand(self, capsys):
        assert main(["list"]) == 0
        assert "Registered experiments" in capsys.readouterr().out

    def test_listing_usage_names_every_front_end(self, capsys):
        """The bare listing is the discovery surface: it must name the
        engine subcommands alongside `serve` with consistent exit codes
        (0 informational here, 2 for the unknown-command path below)."""
        assert main([]) == 0
        out = capsys.readouterr().out
        for command in ("run", "report", "serve", "verify", "list"):
            assert command in out
        assert "cdp_service_load" in out

    def test_unknown_subcommand_listing_also_names_serve(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 2
        assert "serve" in capsys.readouterr().err

    def test_unknown_command_lists_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-command"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "Registered experiments" in err

    def test_run_unknown_experiment_lists_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "Registered experiments" in err

    def test_run_bare_is_informational_and_exits_0(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out


class TestRun:
    def test_run_emits_valid_artifact(self, tmp_path, capsys):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Hardware resource overhead" in out
        path = tmp_path / "BENCH_table2.json"
        assert path.exists()
        doc = load_artifact(str(path))
        validate_artifact(doc)
        assert [t["params"]["program"] for t in doc["trials"]] == \
            ["baseline", "p4auth"]

    def test_run_sweep_short_and_workers(self, tmp_path, capsys):
        assert main(["run", "fig21", "--sweep", "hops=2,3",
                     "--short", "--workers", "2",
                     "--out-dir", str(tmp_path)]) == 0
        doc = load_artifact(str(tmp_path / "BENCH_fig21.json"))
        validate_artifact(doc)
        assert len(doc["trials"]) == 4
        assert {t["params"]["hops"] for t in doc["trials"]} == {2, 3}
        assert doc["run_meta"]["workers"] == 2
        assert capsys.readouterr().out  # table printed

    def test_run_cache_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["run", "table2", "--cache", "--cache-dir", cache_dir,
                "--out-dir", ""]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 cached" in second

    def test_run_prints_the_paper_table(self, capsys):
        assert main(["run", "table2", "--out-dir", ""]) == 0
        out = capsys.readouterr().out
        assert "Hash Units" in out and "With P4Auth" in out
        assert "51.4%" in out

    def test_run_exits_1_when_a_trial_fails(self, capsys):
        """A chaos invariant failure (``passed: false`` in any trial)
        must fail the command, or CI smoke cells can never go red."""
        register(ExperimentSpec(name="_test-fails", title="fails",
                                source="test", trial=_failing_trial,
                                grid={"index": [0, 1]}))
        try:
            assert main(["run", "_test-fails", "--out-dir", ""]) == 1
        finally:
            unregister("_test-fails")
        assert "_test-fails[index=1]" in capsys.readouterr().err

    def test_run_base_seed_recorded_in_artifact(self, tmp_path):
        assert main(["run", "table3", "--short", "--seed", "9",
                     "--out-dir", str(tmp_path)]) == 0
        doc = load_artifact(str(tmp_path / "BENCH_table3.json"))
        assert doc["base_seed"] == 9
        assert doc["trials"][0]["seed"] == doc["trials"][0]["params"]["seed"]


class TestTelemetry:
    @pytest.mark.parametrize("name", ["table3", "fig21", "aggregation",
                                      "int"])
    def test_instrumented_run_keeps_payload(self, name, tmp_path, capsys):
        """``--telemetry`` instruments every spec's simulator and never
        changes what the trial computes."""
        plain, traced, tel = (tmp_path / "plain", tmp_path / "traced",
                              tmp_path / "tel")
        assert main(["run", name, "--short", "--out-dir", str(plain)]) == 0
        assert main(["run", name, "--short", "--out-dir", str(traced),
                     "--telemetry", str(tel)]) == 0
        artifact = f"BENCH_{name}.json"
        docs = [load_artifact(str(d / artifact)) for d in (plain, traced)]
        for doc in docs:
            doc.pop("run_meta")
        assert docs[0] == docs[1]
        proms = sorted(tel.glob("*.prom"))
        assert len(proms) == len(docs[0]["trials"])
        for prom in proms:
            assert _prom_value(prom.read_text(),
                               "repro_sim_events_executed_total") > 0
        # Baseline trials may trace nothing (no drops, no key exchange);
        # the spec as a whole always does.
        assert any(trace.stat().st_size > 0 for trace in tel.glob("*.jsonl"))


class TestReport:
    def test_report_renders_artifacts(self, tmp_path, capsys, monkeypatch):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table2 — Hardware resource overhead" in out
        assert "51.4" in out

    def test_report_renders_the_paper_table(self, tmp_path, capsys):
        assert main(["run", "fig21", "--short", "--out-dir",
                     str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "| hops | base (us) | P4Auth (us) | overhead |" in out

    def test_paper_tables_cover_every_paper_result(self):
        assert {spec.name for spec in all_specs()
                if spec.paper_table is not None} == PAPER_TABLE_SPECS

    def test_report_to_file(self, tmp_path, capsys):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        out_file = tmp_path / "report.md"
        assert main(["report", "--dir", str(tmp_path),
                     "--out", str(out_file)]) == 0
        assert "benchmark artifacts" in out_file.read_text()

    def test_report_empty_directory(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert "No `BENCH_*.json` artifacts" in capsys.readouterr().out

    def test_report_skips_invalid_artifacts_with_warning(
            self, tmp_path, capsys):
        assert main(["run", "table2", "--out-dir", str(tmp_path)]) == 0
        (tmp_path / "BENCH_corrupt.json").write_text("{not json")
        (tmp_path / "BENCH_badschema.json").write_text(
            json.dumps({"schema": "other/9"}))
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # The valid artifact still renders; the broken ones are listed.
        assert "table2 — Hardware resource overhead" in out
        assert "Skipped artifacts" in out
        assert "BENCH_corrupt.json" in out
        assert "BENCH_badschema.json" in out
