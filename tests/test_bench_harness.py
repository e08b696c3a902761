"""Fast smoke tests for the benchmark harness (tiny parameters).

The real benchmarks run minutes of simulated workload; these miniatures
guard the harness code paths under the ordinary test suite.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import (
    run_logging_sweep,
    run_time_travel_experiment,
)
from repro.bench.reporting import ReportTable, save_results
from repro.workload import TpccScale

pytest_plugins = ["pytester"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=5,
    items=30,
)


class TestTimeTravelHarness:
    def test_miniature_run(self):
        result = run_time_travel_experiment(
            "ssd",
            workload_minutes=1.0,
            distances_minutes=(0.5,),
            filler_pages=50,
            scale=TINY,
        )
        assert result.profile == "ssd"
        assert result.db_bytes > 0
        assert result.tpm > 0
        assert len(result.points) == 1
        point = result.points[0]
        assert point.asof_total_s > 0
        assert point.restore_s > 0
        assert point.pages_prepared > 0

    def test_distances_beyond_history_skipped(self):
        result = run_time_travel_experiment(
            "ssd",
            workload_minutes=1.0,
            distances_minutes=(0.5, 500.0),
            filler_pages=0,
            scale=TINY,
        )
        assert len(result.points) == 1


class TestLoggingSweepHarness:
    def test_miniature_sweep(self):
        points = run_logging_sweep(
            image_intervals=(0, 2), transactions=60, scale=TINY
        )
        labels = [p.label for p in points]
        assert labels == ["extensions, no images", "extensions, N=2"]
        by_label = {p.label: p for p in points}
        assert (
            by_label["extensions, N=2"].log_bytes
            > by_label["extensions, no images"].log_bytes
        )
        for point in points:
            assert point.tpm > 0
            assert point.log_utilization >= 0


class TestReporting:
    def test_table_rendering(self):
        table = ReportTable("demo", ["name", "value"])
        table.add("alpha", 1.2345)
        table.add("beta", 120000.0)
        table.add("gamma", 0)
        text = table.render()
        assert "== demo ==" in text
        assert "alpha" in text and "1.23" in text
        assert "120,000" in text

    def test_save_results_roundtrip(self, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        path = save_results("unit", {"a": 1, "b": [1, 2]})
        assert os.path.exists(path)
        with open(path) as handle:
            assert json.load(handle) == {"a": 1, "b": [1, 2]}


@pytest.mark.parametrize(
    "name", ["replication", "archive", "chaos", "concurrency", "version_store"]
)
def test_smoke_run_leaves_the_full_result_alone(name, pytester, monkeypatch):
    """``bench_results/<name>.json`` is a committed full-scale result; a
    ``--smoke`` run (every CI job makes one) writes ``<name>_smoke.json``."""
    import repro.bench.reporting as reporting

    results = pytester.mkdir("bench_results")
    monkeypatch.setattr(reporting, "RESULTS_DIR", str(results))
    if name == "version_store":
        # Its smoke run checks itself against the committed smoke result,
        # then rewrites it.
        with open(os.path.join(ROOT, "bench_results", "version_store_smoke.json")) as handle:
            baseline = {**json.load(handle), "stale": True}
        (results / "version_store_smoke.json").write_text(json.dumps(baseline))
    bench = os.path.join(ROOT, "benchmarks", f"bench_{name}.py")
    pytester.runpytest_inprocess(bench, "--smoke", "-p", "no:cacheprovider").assert_outcomes(
        passed=1
    )
    assert os.listdir(results) == [f"{name}_smoke.json"]
    with open(results / f"{name}_smoke.json") as handle:
        saved = json.load(handle)
    assert saved["smoke"] is True
    assert "stale" not in saved
