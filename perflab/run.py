"""perflab: one command for every end-to-end and per-layer number.

    python perflab/run.py                       # all five workloads, each in a fresh process
    python perflab/run.py --workload asof_cold --seed 3 --trace 1
    python perflab/run.py --compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics, or with ``--trace 1`` the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

PERFLAB = Path(__file__).resolve().parent
SRC = PERFLAB.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perflab: the engine is not at {SRC / 'repro'}; run from a checkout of the repo")
sys.path.insert(0, str(SRC))

from lab import compare, runner  # noqa: E402
from lab.metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from lab.workloads import SIZES, WORKLOADS  # noqa: E402


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for the driver and not used: op counts are fixed per "
                             "--scale, sized so a phase takes about BENCHMARK.json's run_seconds")
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="also run the cProfile pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the JSON document here")
    parser.add_argument("--record", action="store_true",
                        help="append the end-to-end numbers to perflab/trajectory.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    return parser.parse_args(argv)


def print_workload(name: str, doc: dict) -> None:
    print(f"== {name}: {doc['ops']} ops, failed_share {doc['failed_share']:.4f}"
          f"{', NOISY host' if doc['noisy'] else ''} ==")
    for metric in END_TO_END:
        print(f"  {metric.name:<52}{doc['e2e'][metric.name]:>16.6f} {metric.unit}")
    for metric in PER_LAYER:
        if metric.name in doc["layers"]:
            print(f"  {metric.name:<52}{doc['layers'][metric.name]:>16.6f} {metric.unit}")
    if "trace" in doc:
        traced = doc["trace"]
        print(f"  traced {traced['ops']} ops in {traced['elapsed_s']:.3f} s; layer self times sum "
              f"to {traced['self_s_sum']:.3f} s; raw profile {traced['profile']}")
    for line in (*doc["errors"], *doc["problems"]):
        print(f"  WRONG: {line}")


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, so ``peak_rss_mb`` and the
    allocator's state belong to that workload alone."""
    out = PERFLAB / "out"
    out.mkdir(exist_ok=True)
    merged = {}
    for name in WORKLOADS:
        part = out / f"{name}.json"
        part.unlink(missing_ok=True)
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--scale", args.scale, "--trace", str(args.trace), "--out", str(part)],
            check=False,
        )
        if not part.exists():
            sys.exit(f"perflab: workload {name} did not finish")
        merged[name] = json.loads(part.read_text())["workloads"][name]
    return merged


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload:
        docs = {args.workload: runner.run_workload(
            args.workload, seed=args.seed, scale=args.scale, trace=bool(args.trace),
        )}
        print_workload(args.workload, docs[args.workload])
    else:
        docs = run_all(args)
    document = {
        "schema": runner.SCHEMA,
        "stamp": runner.stamp(args.seed, args.scale),
        "units": UNITS,
        "workloads": docs,
    }
    out = args.out or (None if args.workload else PERFLAB / "out" / "perflab.json")
    if out:
        out.write_text(json.dumps(document, indent=1) + "\n")
    if args.record:
        line = {
            **document["stamp"],
            "date": datetime.date.today().isoformat(),
            "e2e": {name: doc["e2e"] for name, doc in docs.items()},
        }
        with open(PERFLAB / "trajectory.jsonl", "a") as handle:
            handle.write(json.dumps(line) + "\n")
    if args.workload:
        print(runner.contract_line(docs[args.workload], bool(args.trace)))
    else:
        print(f"wrote {out}")
    return 0 if all(doc["correct"] for doc in docs.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
