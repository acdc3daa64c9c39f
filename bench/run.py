#!/usr/bin/env python3
"""doxatest benchmark.

One workload, measured (prints a result JSON object as its last line):

    python3 bench/run.py --workload census-4state --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with tracing overhead and top layers:

    python3 bench/run.py --all --seed 1 --seconds 20

Check (or, on a trusted commit, record) reference verdicts for a fixed
number of items instead of a timed loop:

    python3 bench/run.py --workload check-8state --seed 3 --items 40
    python3 bench/run.py --workload check-8state --seed 3 --items 40 --record-reference

Exit status: 0 when every verdict is correct, 1 when an item failed, 2 when
the package sources cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=0,
                        help="run exactly this many items instead of --seconds")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if bool(args.workload) == args.all:
        parser.error("pass exactly one of --workload NAME or --all")
    if args.seconds <= 0 or args.items < 0:
        parser.error("--seconds must be positive and --items non-negative")

    try:
        harness.bootstrap()
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.all:
        return harness.run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result, lines = harness.run_one(
        args.workload, args.seed, args.seconds, bool(args.trace),
        items=args.items, record_reference=args.record_reference,
    )
    for line in lines + [result]:
        print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
