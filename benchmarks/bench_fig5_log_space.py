"""Figure 5 — space overhead of the additional logging.

Paper series: transaction log space for the baseline and for the as-of
extensions at several full-page-image frequencies N. Expected shape:
smaller N (more frequent images) costs substantially more; the baseline
is the smallest. The baseline here is the extensions with no page
images: the extensions' one other cost, preformat records on page
re-allocation, never fires in this TPC-C run (it re-allocates no page),
so a run without it logs the same bytes. That cost is measured on a
drop-and-reuse history in ``bench_ablation_extensions.py``.

Paper reference points (100 GB-class log at 800 warehouses): additional
logging "does increase the transaction log space usage", dominated by the
page images.
"""

from __future__ import annotations

from repro.bench import ReportTable
from repro.bench.harness import logging_sweep_results


def test_fig5_log_space(bench):
    points = logging_sweep_results()

    table = ReportTable(
        "Figure 5: log space vs full-page-image interval N",
        ["configuration", "log MB", "vs baseline", "image MB", "records"],
    )
    baseline = points[0].log_bytes
    for point in points:
        table.add(
            point.label,
            point.log_bytes / 1e6,
            f"{point.log_bytes / baseline:.2f}x",
            point.image_bytes / 1e6,
            point.log_records,
        )
    bench.report(
        "fig5_log_space",
        {
            point.label: {
                "log_bytes": point.log_bytes,
                "image_bytes": point.image_bytes,
                "log_records": point.log_records,
            }
            for point in points
        },
        table,
    )

    by_label = {point.label: point for point in points}
    base = by_label["extensions, no images"]
    # Log space grows monotonically as N shrinks.
    ordered = [point for point in points if point.label.startswith("extensions, N=")]
    sizes = [point.log_bytes for point in ordered]
    assert sizes == sorted(sizes), "smaller N must cost more log space"
    # N=1 is dramatically bigger than the baseline (full image per change).
    assert by_label["extensions, N=1"].log_bytes > 3 * base.log_bytes
