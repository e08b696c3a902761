"""Figures 9 and 10 — snapshot creation time vs as-of query time, SSD and
SAS media.

Paper shape: creation time is "more or less constant" (bounded by the log
scanned between the checkpoint preceding the SplitLSN and the SplitLSN —
i.e. by the 30-second checkpoint interval) while query time grows
linearly with the amount of modification to the touched pages. On
rotating media (Figure 10) query time grows much faster than on SSD
(Figure 9), because every cache-missing log read pays a seek.
"""

from __future__ import annotations

import pytest

from repro.bench import ReportTable
from repro.bench.harness import time_travel_results


@pytest.mark.parametrize("figure, media", [(9, "ssd"), (10, "sas")])
def test_create_vs_query(figure, media, bench):
    result = time_travel_results(media)

    table = ReportTable(
        f"Figure {figure}: snapshot creation vs as-of query on {media.upper()}",
        ["minutes back", "creation s", "query s", "pages prepared"],
    )
    for point in result.points:
        table.add(
            point.minutes_back,
            point.asof_create_s,
            point.asof_query_s,
            point.pages_prepared,
        )
    bench.report(
        f"fig{figure}_{media}",
        {
            str(point.minutes_back): {
                "create_s": point.asof_create_s,
                "query_s": point.asof_query_s,
            }
            for point in result.points
        },
        table,
    )

    points = result.points
    # Query grows with distance; by the far end it dominates creation.
    assert points[-1].asof_query_s > points[0].asof_query_s
    assert points[-1].asof_query_s > points[-1].asof_create_s
    # Query cost at the far end clearly dominates the near end (the
    # linear-growth claim, readable even with coarse distances).
    assert points[-1].asof_query_s > 2 * points[0].asof_query_s
    # Creation stays bounded (it never scans more than a checkpoint
    # interval of log): no point should cost more than the whole query
    # sweep's maximum.
    max_query = max(point.asof_query_s for point in points)
    for point in points:
        assert point.asof_create_s < max(max_query, 10 * points[0].asof_create_s + 1e-6)
    # The number of pages touched by the query is roughly constant — the
    # cost growth comes from per-page history, not from page count.
    prepared = [point.pages_prepared for point in points]
    assert max(prepared) <= 3 * max(1, min(prepared))
