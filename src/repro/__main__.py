"""Command-line front door: ``python -m repro``.

Every paper figure, table, and chaos scenario is a registered
:class:`~repro.engine.spec.ExperimentSpec`.  ``run`` executes any of
them (with sweeps, worker sharding, caching, optional instrumentation,
and a ``BENCH_<name>.json`` artifact) and prints the spec's paper table;
``report`` renders those artifacts as markdown.

    python -m repro                  # list every registered experiment
    python -m repro run fig17 --workers 4
    python -m repro run fig21 --sweep hops=2,6,10 --short
    python -m repro run table3 --seed 99 --out-dir results/
    python -m repro run fig17 --short --telemetry tel/  # per-trial
                                     # JSONL trace + Prometheus metrics
    python -m repro run kmp-blackout --telemetry tel/   # chaos scenario;
                                     # exit 1 if an invariant fails
    python -m repro report --dir results/   # markdown from BENCH_*.json
    python -m repro verify --all     # static analysis of every program
    python -m repro verify p4auth --format json
    python -m repro verify --selftest  # mutant battery
    python -m repro serve --m 100 --shards 4  # controller daemon
    python -m repro serve --smoke    # in-process service self-check
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table


def print_experiment_listing(stream=None) -> None:
    """The registry, as a table: what ``repro run <name>`` accepts."""
    from repro.engine import all_specs
    stream = stream or sys.stdout
    rows = []
    for spec in sorted(all_specs(), key=lambda s: s.name):
        rows.append([spec.name, spec.source, len(spec.expand()),
                     ",".join(spec.tags), spec.title])
    table = format_table(["name", "source", "trials", "tags", "title"],
                         rows, title="Registered experiments")
    print(table, file=stream)
    print("\nUsage: python -m repro run <name> [--sweep k=v1,v2] "
          "[--workers N] [--seed N] [--short] [--telemetry DIR]\n"
          "       python -m repro {list,run,report,verify,serve}",
          file=stream)


def cmd_run(argv) -> int:
    """The generic engine front-end: run any registered spec."""
    from repro.engine import (
        ResultCache,
        get_spec,
        parse_sweep,
        Runner,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one registered experiment through the engine.")
    parser.add_argument("name", nargs="?", default=None,
                        help="registered experiment name "
                             "(see `python -m repro list`); omit to "
                             "print the listing")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="PARAM=V1,V2",
                        help="sweep a parameter over comma-separated "
                             "values (repeatable)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes to shard trials across "
                             "(results are identical for any value)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed: derive a distinct deterministic "
                             "seed per trial (default: keep each spec's "
                             "reference seeds)")
    parser.add_argument("--short", action="store_true",
                        help="use the spec's reduced CI-smoke parameters")
    parser.add_argument("--cache", action="store_true",
                        help="reuse/populate the content-hash result cache")
    parser.add_argument("--cache-dir", default=".bench_cache",
                        help="cache directory (with --cache)")
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_<name>.json is written "
                             "('' to skip the artifact)")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="instrument every trial; write its trace "
                             "(<trial>.jsonl) and metrics (<trial>.prom) "
                             "here.  Trials always execute (no cache "
                             "hits) and their results are unchanged")
    args = parser.parse_args(argv)

    if args.name is None:
        # Bare `repro run` is informational, not an error: show what the
        # engine can run and exit cleanly.
        print_experiment_listing()
        return 0
    try:
        spec = get_spec(args.name)
    except KeyError:
        print(f"unknown experiment {args.name!r}\n", file=sys.stderr)
        print_experiment_listing(sys.stderr)
        raise SystemExit(2)
    sweep = parse_sweep(spec, args.sweep) if args.sweep else None

    runner = Runner(
        workers=args.workers,
        cache=ResultCache(args.cache_dir) if args.cache else None,
        out_dir=args.out_dir or None,
        telemetry_dir=args.telemetry)
    run = runner.run(spec, sweep=sweep, base_seed=args.seed,
                     short=args.short)

    if spec.paper_table is not None:
        headers, rows = spec.paper_table(
            [trial.as_artifact_entry() for trial in run.trials])
    else:
        headers, rows = ["trial", "seed", "result"], []
        for trial in run.trials:
            scalars = {key: value for key, value in trial.result.items()
                       if not isinstance(value, (dict, list))}
            preview = ", ".join(f"{k}={v}"
                                for k, v in sorted(scalars.items()))
            rows.append([trial.id, trial.seed,
                         preview if len(preview) <= 72
                         else preview[:69] + "..."])
    print(format_table(headers, rows,
                       title=f"{spec.name}: {spec.title} ({spec.source})"))
    meta = run.run_meta
    print(f"\n# {meta['trials']} trials, {meta['executed']} executed, "
          f"{meta['cache_hits']} cached, workers={meta['workers']}, "
          f"{meta['elapsed_s']:.2f}s")
    if run.artifact_path:
        print(f"# wrote {run.artifact_path}")
    if args.telemetry:
        print(f"# wrote per-trial .jsonl/.prom to {args.telemetry}")
    failed = [trial.id for trial in run.trials
              if trial.result.get("passed") is False]
    if failed:
        print(f"# FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_report(argv) -> int:
    """Render a markdown report from emitted ``BENCH_*.json`` artifacts."""
    from repro.analysis.report import render_artifact_report

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Summarize BENCH_*.json artifacts as markdown.")
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json files")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    args = parser.parse_args(argv)

    text = render_artifact_report(args.dir)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"# wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("list", "-h", "--help"):
        print_experiment_listing()
        return 0
    command, rest = argv[0], argv[1:]
    if command == "run":
        return cmd_run(rest)
    if command == "report":
        return cmd_report(rest)
    if command == "verify":
        from repro.verify.cli import cmd_verify
        return cmd_verify(rest)
    if command == "serve":
        from repro.service.cli import cmd_serve
        return cmd_serve(rest)
    print(f"unknown command {command!r}\n", file=sys.stderr)
    print_experiment_listing(sys.stderr)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
