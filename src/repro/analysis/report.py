"""Markdown reports from engine artifacts (``python -m repro report``).

:func:`render_artifact_report` runs nothing: it summarizes the
``BENCH_*.json`` artifacts that ``python -m repro run <name> --out-dir``
emitted, rendering each spec's paper table where it has one.
``examples/reproduce_paper.py`` builds RESULTS.md this way.
"""

from __future__ import annotations

import io
import os
from typing import Dict, List


class MarkdownReport:
    """Incrementally built Markdown document."""

    def __init__(self, title: str):
        self._buffer = io.StringIO()
        self._buffer.write(f"# {title}\n")

    def section(self, heading: str, body: str = "") -> None:
        self._buffer.write(f"\n## {heading}\n\n")
        if body:
            self._buffer.write(body.rstrip() + "\n")

    def paragraph(self, text: str) -> None:
        self._buffer.write("\n" + text.rstrip() + "\n")

    def table(self, headers: List[str], rows: List[List[object]]) -> None:
        self._buffer.write("\n| " + " | ".join(headers) + " |\n")
        self._buffer.write("|" + "|".join("---" for _ in headers) + "|\n")
        for row in rows:
            self._buffer.write(
                "| " + " | ".join(str(cell) for cell in row) + " |\n")

    def render(self) -> str:
        return self._buffer.getvalue()

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.render())


def find_artifacts(directory: str = ".") -> List[str]:
    """Paths of every engine artifact in ``directory``, sorted by name."""
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if name.startswith("BENCH_") and name.endswith(".json"))


def _render_regions_detail(report: MarkdownReport, trial: Dict) -> None:
    """Sub-table for one trial's per-region rows, if it carries any.

    Region-sharded results (``fleet_scale``, regional ``table3``) put a
    list of per-region dicts under ``regions_detail``; the top-level
    scalar table cannot show a list, so each such trial gets its own
    region-by-region breakdown instead of a silent elision.
    """
    detail = trial["result"].get("regions_detail")
    if not isinstance(detail, list) or not detail:
        return
    if not all(isinstance(row, dict) for row in detail):
        return
    keys = sorted({key for row in detail for key, value in row.items()
                   if isinstance(value, (int, float, str, bool))})
    # Lead with the region id when present.
    if "region" in keys:
        keys.remove("region")
        keys.insert(0, "region")
    report.paragraph(f"Per-region breakdown for `{trial['id']}`:")
    report.table(keys, [
        [f"{row.get(key, ''):.4g}" if isinstance(row.get(key), float)
         else row.get(key, "") for key in keys]
        for row in detail])


def _scalar_table(trials: List[Dict]):
    """Every trial's scalar result fields, one row per trial."""
    scalar_keys = sorted({
        key for trial in trials
        for key, value in trial["result"].items()
        if isinstance(value, (int, float, str, bool))})
    rows = []
    for trial in trials:
        row: List[object] = [f"`{trial['id']}`", trial["seed"]]
        for key in scalar_keys:
            value = trial["result"].get(key, "")
            row.append(f"{value:.4g}" if isinstance(value, float)
                       else value)
        rows.append(row)
    return ["trial", "seed"] + scalar_keys, rows


def render_artifact_report(directory: str = ".") -> str:
    """Markdown summary of the ``BENCH_*.json`` artifacts in a directory.

    Each artifact becomes one section: provenance line (source, schema,
    spec version, seeding policy, run metadata) plus the spec's paper
    table, or, for a spec without one, a table of every trial's scalar
    result fields.  A result's ``regions_detail`` axis (a list of
    per-region row dicts, emitted by the region-sharded experiments) is
    rendered as a sub-table per trial; other nested lists/dicts are
    elided — the JSON itself remains the full record.

    Files that fail to parse or validate against the artifact schema are
    skipped and listed in a trailing "Skipped artifacts" section — one
    corrupt file must not take down the whole report.
    """
    import json

    from repro.engine.artifact import load_artifact
    from repro.engine.registry import all_specs

    paper_tables = {spec.name: spec.paper_table for spec in all_specs()
                    if spec.paper_table is not None}

    report = MarkdownReport("P4Auth reproduction — benchmark artifacts")
    paths = find_artifacts(directory)
    if not paths:
        report.paragraph(
            f"No `BENCH_*.json` artifacts found in `{directory}`; "
            "run `python -m repro run <name> --out-dir` first.")
        return report.render()

    skipped: List[List[object]] = []
    for path in paths:
        try:
            doc = load_artifact(path)
        except (ValueError, json.JSONDecodeError, OSError) as exc:
            skipped.append([f"`{os.path.basename(path)}`", str(exc)])
            continue
        meta = doc.get("run_meta", {})
        seeding = (f"base seed {doc['base_seed']}"
                   if doc.get("base_seed") is not None
                   else "reference seeds")
        report.section(
            f"{doc['experiment']} — {doc['title']}",
            f"Source: {doc['source']} · schema `{doc['schema']}` · "
            f"spec v{doc['spec_version']} · {seeding} · "
            f"{len(doc['trials'])} trials · "
            f"workers={meta.get('workers', 1)} · "
            f"cache hits {meta.get('cache_hits', 0)} · "
            f"{meta.get('elapsed_s', 0.0)}s")
        if doc["experiment"] in paper_tables:
            report.table(*paper_tables[doc["experiment"]](doc["trials"]))
        else:
            report.table(*_scalar_table(doc["trials"]))
        for trial in doc["trials"]:
            _render_regions_detail(report, trial)
    if skipped:
        report.section(
            "Skipped artifacts",
            f"{len(skipped)} file(s) failed schema validation and were "
            "not summarized:")
        report.table(["file", "reason"], skipped)
    return report.render()
