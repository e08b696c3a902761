"""``--compare A.json B.json``: did B get worse than A, by the benchmark's own bounds?

One row per (workload, end-to-end metric): base, new, the ratio
new / base, the bound and a verdict. Two documents of one seed and scale
ran the same ops, so they are held to the same-seed bounds (1 % on the
exact metrics); otherwise to the cross-seed bounds of ``BENCHMARK.json``.
``worse`` and ``better`` mean the metric moved past its bound.
``unresolved`` means a host-clock metric moved past its bound, but by no
more than twice the bound, in a run that stamped itself ``noisy`` (its
speed samples did not predict each other, so calibration left more than
a tenth in): one pair of such runs proves nothing, run again. Past twice
the bound a move counts whatever the host did. Per-layer metrics have no
bound; those that differ are listed so an exact counter that moved is
seen.
"""

from __future__ import annotations

import json

from lab.metrics import END_TO_END, HOST_CLOCK


def verdict(metric, bound: float, base_doc: dict, new_doc: dict) -> tuple[float, str]:
    base, new = base_doc["e2e"][metric.name], new_doc["e2e"][metric.name]
    ratio = new / base
    # The bound is a share of the base by which the metric may worsen.
    worsening = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if abs(worsening) <= bound:
        return ratio, "same"
    noisy = base_doc["noisy"] or new_doc["noisy"]
    if metric.name in HOST_CLOCK and noisy and abs(worsening) <= 2 * bound:
        return ratio, "unresolved"
    return ratio, "worse" if worsening > 0 else "better"


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines, and whether anything got worse."""
    same_inputs = all(base["stamp"][key] == new["stamp"][key] for key in ("seed", "scale"))
    lines = [
        f"base: commit {base['stamp']['commit']} seed {base['stamp']['seed']}   "
        f"new: commit {new['stamp']['commit']} seed {new['stamp']['seed']}   "
        f"ratio = new / base   {'same-seed' if same_inputs else 'cross-seed'} bounds",
        f"{'workload':<16}{'metric':<20}{'base':>14}{'new':>14}{'ratio':>9}{'bound':>7}  verdict",
    ]
    worse = False
    moved = []
    for name, base_doc in base["workloads"].items():
        new_doc = new["workloads"].get(name)
        if new_doc is None:
            lines.append(f"{name:<16}missing from the new document")
            worse = True
            continue
        for metric in END_TO_END:
            bound = metric.same_seed if same_inputs else metric.bound
            ratio, word = verdict(metric, bound, base_doc, new_doc)
            lines.append(
                f"{name:<16}{metric.name:<20}{base_doc['e2e'][metric.name]:>14.6g}"
                f"{new_doc['e2e'][metric.name]:>14.6g}{ratio:>9.4f}{bound:>7.0%}  {word}"
            )
            worse = worse or word == "worse"
        newly_wrong = base_doc["correct"] and not new_doc["correct"]
        if new_doc["failed"] > base_doc["failed"] or newly_wrong:
            lines.append(f"{name:<16}{'failed':<20}{base_doc['failed']:>14}{new_doc['failed']:>14}"
                         f"{'':>16}  worse")
            worse = True
        for key, value in base_doc["layers"].items():
            if key in new_doc["layers"] and new_doc["layers"][key] != value:
                moved.append((name, key, value, new_doc["layers"][key]))
    lines.append(f"per-layer metrics that differ: {len(moved)}")
    for name, key, old, now in moved:
        ratio = f"{now / old:>9.4f}" if old else f"{'-':>9}"
        lines.append(f"{name:<16}{key:<52}{old:>14.6g}{now:>14.6g}{ratio}")
    return lines, worse


def main(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    lines, worse = compare(base, new)
    print("\n".join(lines))
    return 1 if worse else 0
