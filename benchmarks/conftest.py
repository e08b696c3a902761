"""Benchmark fixtures and output plumbing.

Each bench prints its paper-style series table (visible in the tee'd
output via ``capsys.disabled``) and saves raw numbers as JSON under
``bench_results/``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def show(capsys):
    """Print a ReportTable through pytest's capture."""

    def _show(table):
        with capsys.disabled():
            table.show()

    return _show
