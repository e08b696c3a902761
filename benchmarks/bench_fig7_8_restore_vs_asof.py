"""Figures 7 and 8 — restore vs as-of query, end-to-end, SSD and SAS media.

Paper series (log scale): end-to-end time to reach stock-level data at
increasing distances back in time — as-of snapshot (creation + query)
versus full restore + roll-forward. On the paper's SSDs (Figure 7), as-of
took 5-18 seconds while restore took 12-26 minutes; on 10K SAS spindles
(Figure 8), as-of took 34-300 seconds (log-read stalls dominate) and
restore about 44 minutes. Expected shape on both: as-of grows roughly
linearly with distance and stays well below restore, which is flat
regardless of distance; the SAS as-of curve is much steeper (random log
I/O is the bottleneck — the paper's argument for keeping the log on
low-latency media).
"""

from __future__ import annotations

import pytest

from repro.bench import ReportTable
from repro.bench.harness import time_travel_results


@pytest.mark.parametrize("figure, media", [(7, "ssd"), (8, "sas")])
def test_restore_vs_asof(figure, media, bench):
    result = time_travel_results(media)

    table = ReportTable(
        f"Figure {figure}: restore vs as-of on {media.upper()} "
        f"(db {result.db_bytes / 1e6:.0f} MB, log {result.log_bytes / 1e6:.0f} MB)",
        ["minutes back", "as-of total s", "restore s", "restore / as-of"],
    )
    for point in result.points:
        table.add(
            point.minutes_back,
            point.asof_total_s,
            point.restore_s,
            f"{point.restore_s / point.asof_total_s:.1f}x",
        )
    bench.report(
        f"fig{figure}_{media}",
        {
            str(point.minutes_back): {
                "asof_total_s": point.asof_total_s,
                "restore_s": point.restore_s,
            }
            for point in result.points
        },
        table,
    )

    points = result.points
    assert len(points) >= 3
    # As-of beats restore at every distance (the paper's headline).
    for point in points:
        assert point.asof_total_s < point.restore_s, point
    # As-of query time grows with distance...
    assert points[-1].asof_query_s > points[0].asof_query_s
    # ...while restore stays roughly flat (within 2x across the sweep).
    restores = [point.restore_s for point in points]
    assert max(restores) < 2.0 * min(restores)


def test_fig8_sas_slower_than_ssd(bench):
    """The cross-figure claim: as-of queries stall on rotating-media log
    reads, so SAS query times sit far above SSD at every distance."""
    sas = time_travel_results("sas")
    ssd = time_travel_results("ssd")
    table = ReportTable(
        "Figures 7/8 cross-check: as-of query seconds by media",
        ["minutes back", "ssd query s", "sas query s", "sas / ssd"],
    )
    pairs = 0
    for ssd_pt, sas_pt in zip(ssd.points, sas.points, strict=False):
        if ssd_pt.minutes_back != sas_pt.minutes_back:
            continue
        ratio = (
            sas_pt.asof_query_s / ssd_pt.asof_query_s
            if ssd_pt.asof_query_s
            else float("inf")
        )
        table.add(ssd_pt.minutes_back, ssd_pt.asof_query_s, sas_pt.asof_query_s, f"{ratio:.1f}x")
        if sas_pt.minutes_back >= 2:
            assert sas_pt.asof_query_s > 3 * ssd_pt.asof_query_s
            pairs += 1
    bench.show(table)
    assert pairs >= 2
