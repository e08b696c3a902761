"""Rendering and flattening of canonical metrics snapshots.

Everything that leaves the engine — ``SHOW METRICS`` rows, ``python -m
repro.tools.obs`` text mode, benchmark payloads — goes through the one
document produced by :meth:`MetricsRegistry.snapshot`; these helpers
only reshape it.
"""

from __future__ import annotations


def flatten_snapshot(snap: dict) -> dict:
    """Flatten a canonical snapshot to ``{metric_name: number}``.

    Counters and gauges map directly; each histogram contributes its
    ``.count`` and ``.sum``. Keys come back sorted, which is what ``SHOW
    METRICS`` renders row-by-row.
    """
    flat: dict = {}
    flat.update(snap.get("counters", {}))
    flat.update(snap.get("gauges", {}))
    for name, hist in snap.get("histograms", {}).items():
        flat[f"{name}.count"] = hist["count"]
        flat[f"{name}.sum"] = hist["sum"]
    return dict(sorted(flat.items()))


def format_metric_value(value) -> str:
    """One metric value as text (floats shortened, ints exact)."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def metrics_to_text(snap: dict) -> list[str]:
    """Human-readable lines for one canonical snapshot."""
    return [
        f"{name} = {format_metric_value(value)}"
        for name, value in flatten_snapshot(snap).items()
    ]
