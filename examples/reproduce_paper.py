#!/usr/bin/env python3
"""Reproduce every paper table and figure, writing RESULTS.md.

Runs each registered spec that has a paper table through the engine,
leaving its ``BENCH_<name>.json`` artifact in a results directory, then
renders those artifacts as one Markdown document — the same output as
``python -m repro report --dir <results> --out <output.md>``.

Run:  python examples/reproduce_paper.py [output.md] [--short]

``--short`` uses each spec's reduced CI-smoke parameters (about a
minute); the default runs the full parameter grids.  Artifacts go to
``results/`` next to the output file.
"""

import os
import sys

from repro.analysis.report import render_artifact_report
from repro.engine import Runner, all_specs


def main() -> None:
    args = [arg for arg in sys.argv[1:] if arg != "--short"]
    short = "--short" in sys.argv[1:]
    output = args[0] if args else "RESULTS.md"
    results_dir = os.path.join(os.path.dirname(os.path.abspath(output)),
                               "results")
    runner = Runner(out_dir=results_dir)
    specs = [spec for spec in all_specs() if spec.paper_table is not None]
    print(f"Reproducing {len(specs)} paper tables"
          f"{' (short)' if short else ''}...")
    for spec in specs:
        run = runner.run(spec, short=short)
        print(f"  [done] {spec.name} ({spec.source}): "
              f"{run.run_meta['elapsed_s']:.1f}s")
    text = render_artifact_report(results_dir)
    with open(output, "w") as handle:
        handle.write(text)
    print(f"\nWrote {output} ({len(text.splitlines())} lines).")


if __name__ == "__main__":
    main()
