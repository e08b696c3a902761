"""Compare the exact rows of two perflab documents; exit 1 on any difference.

    python benchmarks/exact_rows.py A.json B.json
    python benchmarks/exact_rows.py --committed B.json

At one seed and scale the sim clock, the log bytes, every engine counter
and, under ``--trace 1``, every per-layer call count repeat to the last
digit: ``sim_s_per_op`` and ``log_bytes_per_op`` among the end-to-end
metrics, and every layer row whose name matches none of ``HOST``. Each
differing exact row is printed as ``DIFFERS``, each host-clock row as
``host`` (printed, never gated: host rows swing between identical runs).
A row one document lacks differs. ``--committed`` compares with the newest
``BENCH_PR<n>.json`` at the repository root, this tree's committed
trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fnmatch import fnmatch

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
HOST = ("host.*", "*_ms*", "trace.overhead_ratio")
EXACT_E2E = ("sim_s_per_op", "log_bytes_per_op")
POINT = re.compile(r"BENCH_PR(\d+)\.json")


def newest_committed() -> str:
    """The path of the ``BENCH_PR<n>.json`` with the largest ``n``."""
    points = {int(match[1]): match[0] for match in map(POINT.fullmatch, os.listdir(ROOT)) if match}
    return os.path.join(ROOT, points[max(points)])


def compare(a: dict, b: dict) -> int:
    """Print every row of both documents; the number of exact rows that
    differ."""
    failures = 0
    for workload in sorted(a.keys() | b.keys()):
        checked = 0
        for section in ("e2e", "layers"):
            one = a.get(workload, {}).get(section, {})
            two = b.get(workload, {}).get(section, {})
            for metric in sorted(one.keys() | two.keys()):
                x, y = one.get(metric), two.get(metric)
                if section == "e2e":
                    exact = metric in EXACT_E2E
                else:
                    exact = not any(fnmatch(metric, pattern) for pattern in HOST)
                checked += exact
                if not exact:
                    print(f"host     {workload:15} {metric:50} {x!r}  {y!r}")
                elif x != y:
                    failures += 1
                    print(f"DIFFERS  {workload:15} {metric:50} {x!r} != {y!r}")
        print(f"exact    {workload:15} {checked} metrics compared")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--committed", action="store_true",
                        help="compare NEW with the newest committed BENCH_PR<n>.json")
    parser.add_argument("docs", nargs="+", metavar="A.json [B.json]")
    args = parser.parse_args(argv)
    paths = [newest_committed(), *args.docs] if args.committed else args.docs
    if len(paths) != 2:
        parser.error("give two documents, or --committed and one")
    print(f"exact rows of {os.path.relpath(paths[0])} against {os.path.relpath(paths[1])}")
    a, b = (json.load(open(path))["workloads"] for path in paths)
    failures = compare(a, b)
    print(f"{failures} exact rows differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
