"""Benchmark result formatting and persistence.

Benches print paper-style series tables and save raw numbers as JSON under
``bench_results/``, where the committed baselines CI gates against live.
"""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "bench_results")


class ReportTable:
    """A small fixed-width table renderer for bench output."""

    def __init__(self, title: str, columns: list[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add(self, *values) -> None:
        formatted = []
        for value in values:
            if isinstance(value, float):
                if value == 0:
                    formatted.append("0")
                elif abs(value) >= 100:
                    formatted.append(f"{value:,.0f}")
                elif abs(value) >= 1:
                    formatted.append(f"{value:,.2f}")
                else:
                    formatted.append(f"{value:.4f}")
            else:
                formatted.append(str(value))
        self.rows.append(formatted)

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def attach_metrics(payload: dict, env) -> dict:
    """Embed the canonical metrics snapshot in a bench payload.

    Every bench that saves results also ships ``payload["metrics"]`` —
    the same ``repro.obs.metrics/v1`` document ``SHOW METRICS`` and
    ``python -m repro.tools.obs`` export — so the CI perf gate can read
    engine-internal rates without re-deriving them from ad-hoc fields.
    """
    payload["metrics"] = env.metrics.snapshot()
    return payload


def results_path(name: str) -> str:
    """Where the result ``name`` is saved: ``bench_results/<name>.json``."""
    return os.path.join(os.path.abspath(RESULTS_DIR), f"{name}.json")


def save_results(name: str, payload: dict) -> str:
    """Persist a bench's raw numbers as JSON; returns the path."""
    path = results_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path
