"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload cdp-service --seed 1 --seconds 12 --trace 0

Workloads: ``cdp-service``, ``dpdp-hula``, ``kmp-fleet`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics and
the tracing overhead.  The workload runs in a child process; this
process checks its result, prints every metric by name with its unit,
and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every correctness check passed, 1 when one failed
(the JSON line then has ``correct: false`` and no metrics), 2 when the
program under test is missing, 3 when the workload process crashed or
overran its time limit (no JSON line in those two cases).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cdp-service", "dpdp-hula", "kmp-fleet")
#: The workload process is killed after this many seconds.
CHILD_TIMEOUT_S = 170.0
#: Fixed hash seed for the workload process: set and dict iteration
#: orders, and so every run, repeat exactly.
HASH_SEED = "0"


def _declared(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def _check_ledger(result: dict) -> str:
    """Compare the fingerprint with earlier runs of the same program and
    benchmark code, workload, size and seed in this checkout; returns the
    verdict."""
    path = os.path.join(OUT_DIR, "fingerprints.json")
    meta = result["meta"]
    key = "/".join([result["workload"], result["size"],
                    f"seed{result['seed']}", meta["src_sha256"],
                    meta["bench_sha256"]])
    ledger = {}
    if os.path.exists(path):
        with open(path) as handle:
            ledger = json.load(handle)
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = result["fingerprint"]
        partial = path + ".tmp"
        with open(partial, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
        os.replace(partial, path)
        return "new"
    if seen != result["fingerprint"]:
        result["correct"] = False
        result["failures"].append(
            f"fingerprint {result['fingerprint'][:16]} disagrees with "
            f"{seen[:16]} from an earlier run of the same source and seed")
        return "DISAGREES"
    return "agrees"


def _print_report(result: dict, ledger: str) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} size={result['size']} "
          f"episodes={result.get('episodes', 0)}")
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    if result.get("fingerprint"):
        print(f"fingerprint {result['fingerprint']} (ledger: {ledger})")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for name, entry in result["detail"].items():
        extra = f"n={entry['n']}"
        if "beyond" in entry:
            extra += f", {entry['beyond']} beyond"
        print(f"detail {name} = {entry['value']:.6g} {entry['unit']} "
              f"({extra})")
    if result["trace"] and result["correct"]:
        from pbench.layers import MOVES
        for layer, (moves, not_on) in MOVES.items():
            print(f"layer {layer}: moves {moves}; {not_on}")
        if result.get("spans_file"):
            print(f"spans {result['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under test at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size, "--root", ROOT, "--out", OUT_DIR,
         "--result", result_path],
        env=env, cwd=ROOT, stdout=sys.stderr)
    # A terminated run.py must not leave its workload process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} overran {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or not os.path.exists(result_path):
        print(f"perfbench: workload process exited with {code}",
              file=sys.stderr)
        return 3
    with open(result_path) as handle:
        result = json.load(handle)

    ledger = _check_ledger(result) if result["correct"] else "skipped"
    if result["correct"]:
        declared = _declared(args.trace)
        reported = {name: entry["unit"]
                    for name, entry in result["metrics"].items()}
        if reported != declared:
            result["correct"] = False
            result["failures"].append(
                f"reported metrics {sorted(reported.items())} differ from "
                f"BENCHMARK.json {sorted(declared.items())}")
    sys.path.insert(0, HERE)
    _print_report(result, ledger)
    metrics = result["metrics"] if result["correct"] else {}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
