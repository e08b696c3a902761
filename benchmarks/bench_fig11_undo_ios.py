"""Figure 11 — estimated number of undo log I/Os.

Paper series: the number of log reads performed while bringing pages back
in time, versus distance. The paper estimates these from response times;
our simulator counts them exactly (`undo_log_reads`: random log block
reads on the undo path, excluding block-cache hits; the cross-snapshot
version store is disabled here so the figure shows the paper's
per-snapshot cost).
Expected shape: linear growth with distance — each extra minute adds a
proportional slice of modifications to the touched pages' chains.
"""

from __future__ import annotations

from repro.bench import ReportTable, save_results
from repro.bench.harness import time_travel_results


def run_fig11():
    return {
        "ssd": time_travel_results("ssd"),
        "sas": time_travel_results("sas"),
    }


def test_fig11_undo_ios(benchmark, show):
    results = benchmark.pedantic(run_fig11, rounds=1, iterations=1)

    table = ReportTable(
        "Figure 11: undo log I/Os per as-of query",
        ["minutes back", "undo IOs (ssd)", "undo IOs (sas)", "records undone (ssd)"],
    )
    ssd_points = {p.minutes_back: p for p in results["ssd"].points}
    sas_points = {p.minutes_back: p for p in results["sas"].points}
    for distance in sorted(set(ssd_points) & set(sas_points)):
        table.add(
            distance,
            ssd_points[distance].undo_ios,
            sas_points[distance].undo_ios,
            ssd_points[distance].undo_records,
        )
    show(table)
    save_results(
        "fig11_undo_ios",
        {
            profile: {
                "points": {
                    str(p.minutes_back): {
                        "undo_ios": p.undo_ios,
                        "undo_records": p.undo_records,
                    }
                    for p in result.points
                },
                "metrics": result.metrics,
            }
            for profile, result in results.items()
        },
    )

    for result in results.values():
        points = result.points
        # Undo I/Os grow with distance and the growth is pronounced.
        assert points[-1].undo_ios > points[0].undo_ios
        assert points[-1].undo_ios > 2 * max(1, points[0].undo_ios)
        # Records undone grow monotonically (the underlying linear driver).
        undone = [p.undo_records for p in points]
        assert undone == sorted(undone)
