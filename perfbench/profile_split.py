"""Cross-check the traced run: self time per ``repro`` package, by cProfile.

From the repository root::

    PYTHONHASHSEED=0 PYTHONPATH=src:perfbench python3 perfbench/profile_split.py cdp-service

Plays one episode of the workload under :mod:`cProfile` and prints each
package's share of the program's self time (``tottime``), largest
first.  The benchmark's own code (including its calibration loop) is
printed apart and left out of the shares.
cProfile charges every call, so the split is only a check on which
layer leads, never a measurement; the benchmark's numbers come from
``run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from collections import defaultdict


def package_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 2 < len(parts):
            return parts[index + 1]
        return "repro"
    if "pbench" in parts:
        return "benchmark"
    return "python"


def main(argv=None) -> int:
    from pbench.runner import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    mod = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as workdir:
        mod.run_episode(args.seed, mod.SIZES["tiny"], workdir)
        profiler = cProfile.Profile()
        profiler.enable()
        mod.run_episode(args.seed, mod.SIZES[args.size], workdir)
        profiler.disable()
    shares = defaultdict(float)
    for (filename, _line, _name), row in \
            pstats.Stats(profiler).stats.items():
        shares[package_of(filename)] += row[2]
    own = shares.pop("benchmark", 0.0)
    total = sum(shares.values())
    for package, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{package:12s} {seconds:8.3f} s  {seconds / total:6.1%}")
    print(f"{'(benchmark)':12s} {own:8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
