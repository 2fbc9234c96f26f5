"""Compare run records from two sets of benchmark runs.

Usage::

    python3 perfbench/compare.py --base A1.json A2.json --new B1.json B2.json

Prints, per workload and metric, each side's median and the new/base
ratio.  Refuses (exit 2) when the records' machine fingerprints differ,
because host timings from different machines are not comparable.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.check import load_comparable  # noqa: E402


def medians(records) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for r in records:
        for name, (value, _unit) in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(value)
    return {k: statistics.median(v) for k, v in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    try:
        records = load_comparable(args.base + args.new)
    except ValueError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    base = medians(records[:len(args.base)])
    new = medians(records[len(args.base):])
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        ratio = n / b if b else float("nan")
        print(f"{key[0]:<26} {key[1]:<34} {b:12.6g} {n:12.6g} {ratio:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
