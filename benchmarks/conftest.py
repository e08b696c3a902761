"""The one bench runner: every ``bench_*.py`` is a pytest module.

    PYTHONPATH=src python -m pytest -q benchmarks/bench_<name>.py [--smoke]

Files are named on the command line (``bench_*.py`` is outside pytest's
default collection, so tier-1 never runs them). Each test runs its body
once, prints its paper-style table(s) and saves its raw numbers through
the ``bench`` fixture to ``bench_results/<name>.json``; under ``--smoke``
they go to ``<name>_smoke.json`` instead, so a smoke run never rewrites a
committed full-scale result. ``--smoke`` shrinks the benches that have a
small scale (``bench.smoke``); the figures have none and run in full.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import save_results


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        help="small scale, saving bench_results/<name>_smoke.json",
    )


class Bench:
    """One bench run: its scale, where its result goes, and the report."""

    def __init__(self, smoke: bool, capsys) -> None:
        self.smoke = smoke
        self._capsys = capsys

    def name(self, name: str) -> str:
        """The result name at this run's scale: ``<name>`` or ``<name>_smoke``."""
        return f"{name}_smoke" if self.smoke else name

    def show(self, *tables) -> None:
        """Print ``tables`` through pytest's capture."""
        with self._capsys.disabled():
            for table in tables:
                table.show()

    def report(self, name: str, payload: dict, *tables) -> None:
        """Print ``tables`` and save ``payload`` as the result ``name``."""
        self.show(*tables)
        save_results(self.name(name), payload)


@pytest.fixture
def bench(request, capsys) -> Bench:
    return Bench(request.config.getoption("--smoke"), capsys)
