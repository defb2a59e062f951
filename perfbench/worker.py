"""Child process of ``run.py``: runs one workload, writes its result.

Started with a fixed ``PYTHONHASHSEED`` and ``PYTHONPATH=src:perfbench``
so that every run of a workload executes the same way and its peak RSS
belongs to it alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    from pbench import runner

    result = runner.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.size, args.root, args.out)
    partial = args.result + ".tmp"
    with open(partial, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    os.replace(partial, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
