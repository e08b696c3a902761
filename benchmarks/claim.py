"""A perf claim in one command: ten alternating pairs of perflab runs.

``perflab/`` measures one tree; a claim compares two. This script takes a
base and a new revision, puts each in its own directory, and alternates

    python <side>/perflab/run.py --workload W --seed S --scale X --out …

``--pairs`` times per side (default 10), swapping which side goes first
every pair so that neither always runs on the warmer or the busier host.
Each side runs its *own* perflab against its *own* ``src/`` — the way the
driver compares two commits. For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the share
of pairs the new side won (ties count for neither), and whether the rule
of the ``choosing-metrics`` guide holds: a **gain** when the new side
wins at least nine tenths of the pairs *and* the medians differ by more
than the distance between the base's own quartiles (a **loss** is the
same rule the other way round; anything else is left unresolved, ``-``).
It ends with ``perflab/run.py --compare`` on the median pair — the pair
whose new/base ratio of ``--metric`` is the median of all pairs' — which
also checks that the exact metrics agree to the last digit.

    python benchmarks/claim.py HEAD~1 HEAD --workload sql_audit
    python benchmarks/claim.py 22e4bfb . --workload sql_audit --workload tpcc_oltp

A side is a git revision, or an existing directory used as it is (``.``
measures an uncommitted working tree). Revisions are materialised with
``git archive`` into a temporary directory: nothing is registered in the
repository and nothing is left behind. Exit code 0 whatever the verdicts:
the table is the output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
#: Share of all pairs a side must win before its medians are looked at.
WIN_SHARE = 0.9


def materialise(side: str, into: str) -> str:
    """The directory holding ``side``: itself when it is one, else a
    ``git archive`` of that revision unpacked under ``into``."""
    if os.path.isdir(side):
        return os.path.abspath(side)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", side], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(tree: str, workload: str, seed: int, scale: str, out: str) -> dict:
    """One perflab run of ``tree``; returns the workload's document."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perflab", "run.py"), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--out", out],
        capture_output=True, text=True,
    )
    if not os.path.exists(out):
        raise SystemExit(
            f"perflab run failed in {tree}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    with open(out) as handle:
        return json.load(handle)["workloads"][workload]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str) -> tuple[int, str]:
    """(pairs the new side won, gain / loss / -)."""
    sign = 1 if better == "higher" else -1
    new_won = sum(sign * (n - b) > 0 for b, n in zip(base, new, strict=True))
    base_won = sum(sign * (n - b) < 0 for b, n in zip(base, new, strict=True))
    b1, b2, b3 = quartiles(base)
    shift = sign * (quartiles(new)[1] - b2)
    if new_won >= WIN_SHARE * len(base) and shift > b3 - b1:
        return new_won, "gain"
    if base_won >= WIN_SHARE * len(base) and -shift > b3 - b1:
        return new_won, "loss"
    return new_won, "-"


def report(workload: str, metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    pairs = len(runs["base"])
    print(f"\n{workload}: {pairs} pairs, base first in pairs 1, 3, …; median [q1, q3]")
    print(f"  {'metric':18} {'base':>34} {'new':>34} {'new/base':>9} {'won':>7}  verdict")
    for metric in metrics:
        name = metric["name"]
        base = [doc["e2e"][name] for doc in runs["base"]]
        new = [doc["e2e"][name] for doc in runs["new"]]
        (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
        cells = (f"{b2:.6g} [{b1:.6g}, {b3:.6g}]", f"{n2:.6g} [{n1:.6g}, {n3:.6g}]")
        ratio = n2 / b2 if b2 else float("nan")
        won, word = verdict(base, new, metric["better"])
        print(f"  {name:18} {cells[0]:>34} {cells[1]:>34} {ratio:9.4f} {won:>4}/{pairs:<2}  {word}")
    failed = {side: sum(doc["failed"] for doc in docs) for side, docs in runs.items()}
    attempted = {side: sum(doc["ops"] for doc in docs) for side, docs in runs.items()}
    print(f"  failed ops: base {failed['base']}/{attempted['base']}, "
          f"new {failed['new']}/{attempted['new']}")
    for name in (m["name"] for m in metrics):
        print(f"  every run, {name}: base "
              + " ".join(f"{doc['e2e'][name]:.6g}" for doc in runs["base"])
              + " | new " + " ".join(f"{doc['e2e'][name]:.6g}" for doc in runs["new"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="revision or directory to compare against")
    parser.add_argument("new", help="revision or directory making the claim")
    parser.add_argument("--workload", action="append", required=True,
                        help="perflab workload; repeat for several")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="op_p50_ms",
                        help="end-to-end metric that picks the median pair")
    parser.add_argument("--out-dir", help="keep every run's perflab document here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="claim-") as scratch:
        out_dir = args.out_dir or os.path.join(scratch, "runs")
        os.makedirs(out_dir, exist_ok=True)
        trees = {}
        for side in ("base", "new"):
            target = os.path.join(scratch, side)
            os.makedirs(target)
            trees[side] = materialise(getattr(args, side), target)
        print(f"base = {args.base} ({trees['base']})   new = {args.new} ({trees['new']})   "
              f"seed {args.seed}, scale {args.scale}")
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "new": []}
            files: dict[str, list[str]] = {"base": [], "new": []}
            for pair in range(args.pairs):
                for side in ("base", "new") if pair % 2 == 0 else ("new", "base"):
                    out = os.path.join(out_dir, f"{workload}-seed{args.seed}-{side}-{pair + 1}.json")
                    runs[side].append(run_once(trees[side], workload, args.seed, args.scale, out))
                    files[side].append(out)
                print(f"  pair {pair + 1}/{args.pairs} of {workload}: {args.metric} "
                      f"{runs['base'][-1]['e2e'][args.metric]:.6g} -> "
                      f"{runs['new'][-1]['e2e'][args.metric]:.6g}", flush=True)
            report(workload, metrics, runs)
            ratios = sorted(
                (new["e2e"][args.metric] / base["e2e"][args.metric], index)
                for index, (base, new) in enumerate(zip(runs["base"], runs["new"], strict=True))
            )
            median_pair = ratios[len(ratios) // 2][1]
            print(f"  perflab --compare on the median pair (pair {median_pair + 1}):")
            compared = subprocess.run(
                [sys.executable, os.path.join(trees["new"], "perflab", "run.py"), "--compare",
                 files["base"][median_pair], files["new"][median_pair]],
                capture_output=True, text=True,
            )
            for line in compared.stdout.splitlines():
                print("    " + line)
                if line.startswith("per-layer metrics that differ"):
                    break  # what follows are the (untraced, host-clock) layer rows
    return 0


if __name__ == "__main__":
    sys.exit(main())
