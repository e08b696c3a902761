"""Figure 6 — throughput impact of the additional logging.

Paper series: TPC-C throughput (tpm) across the same configurations as
Figure 5. Expected shape: "the additional logging has little impact to
the transaction throughput" — throughput stays within a narrow band of
the baseline even while Figure 5's space grows, because throughput tracks
the number of log records (log-manager synchronization), not their size.
"""

from __future__ import annotations

from repro.bench import ReportTable
from repro.bench.harness import logging_sweep_results


def test_fig6_throughput(bench):
    points = logging_sweep_results()

    baseline = points[0].tpm
    table = ReportTable(
        "Figure 6: throughput vs full-page-image interval N",
        ["configuration", "sim tpm", "vs baseline", "log util", "engine tps (real)"],
    )
    for point in points:
        table.add(
            point.label,
            point.tpm,
            f"{point.tpm / baseline * 100:.1f}%",
            f"{point.log_utilization * 100:.1f}%",
            point.real_tps,
        )
    # The host-clock engine tps is printed, never saved: the result file
    # holds only sim-clock numbers, so a re-run reproduces it.
    bench.report(
        "fig6_throughput",
        {
            point.label: {
                "tpm": point.tpm,
                "log_utilization": point.log_utilization,
            }
            for point in points
        },
        table,
    )

    by_label = {point.label: point for point in points}
    # Little impact: all extension configs except the pathological N=1
    # stay within 15% of baseline throughput.
    for point in points:
        if point.label == "extensions, N=1":
            continue
        assert point.tpm > 0.85 * baseline, point.label
    # And even N=1 — a full page image on every modification — keeps the
    # system running (paper never tested below its plotted N range).
    assert by_label["extensions, N=1"].tpm > 0.5 * baseline
    # The paper's sustainability claim ("about 100MB/sec at the peak ...
    # easily sustainable"): the sequential log bandwidth stays within the
    # device's capability for the practical settings (N >= 4); images on
    # every or every-other modification saturate it, which is why no real
    # deployment would choose them.
    for point in points:
        if point.label in (
            "baseline (no as-of logging)",
            "extensions, no images",
            "extensions, N=16",
            "extensions, N=8",
            "extensions, N=4",
        ):
            assert point.log_utilization < 1.0, point.label
