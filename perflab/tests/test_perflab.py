"""perflab's self-tests, at ``--scale tiny`` (a few seconds in all).

They pin what later issues rely on: the names ``BENCHMARK.json``
promises are the names a run prints; one seed gives the same sim-clock
numbers and counters twice; another seed gives other inputs; the
profiler is off after a traced pass; ``--compare`` sees a regression.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

PERFLAB = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFLAB))

from lab import compare, metrics, runner  # noqa: E402
from lab.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((PERFLAB.parent / "BENCHMARK.json").read_text())
EXACT = ("sim_s_per_op", "log_bytes_per_op")


def tiny(name: str, seed: int = 1, trace: bool = False) -> dict:
    return runner.run_workload(name, seed=seed, scale="tiny", trace=trace)


@pytest.fixture(scope="module")
def first_runs() -> dict:
    return {name: tiny(name) for name in WORKLOADS}


def test_manifest_matches_the_metric_tables():
    assert MANIFEST["paths"] == ["perflab"]
    assert MANIFEST["command"] == ["python3", "perflab/run.py"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (name, why) for name, (_build, why) in WORKLOADS.items()
    ]
    assert [tuple(m.values()) for m in MANIFEST["end_to_end"]] == [
        tuple(m)[:4] for m in metrics.END_TO_END
    ]
    assert [tuple(m.values()) for m in MANIFEST["per_layer"]] == [
        tuple(m)[:3] for m in metrics.PER_LAYER
    ]
    assert any(m.name == "setup_s" and m.unit == "s" for m in metrics.END_TO_END)


def test_every_workload_answers_correctly_and_prints_the_promised_names(first_runs):
    for name, doc in first_runs.items():
        assert doc["correct"] and doc["failed"] == 0, (name, doc["errors"], doc["problems"])
        line = json.loads(runner.contract_line(doc, trace=False))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in MANIFEST["end_to_end"]
        }
        assert all(v["value"] > 0 for v in line["metrics"].values()), (name, line)


def test_same_seed_repeats_the_sim_clock_and_every_counter(first_runs):
    counters = [metric.name for metric, _fn in metrics.COUNTER_METRICS]
    for name, first in first_runs.items():
        again = tiny(name)
        assert again["digest"] == first["digest"]
        for key in EXACT:
            assert again["e2e"][key] == first["e2e"][key], (name, key)
        for key in counters:
            assert again["layers"][key] == first["layers"][key], (name, key)


def test_another_seed_generates_other_inputs(first_runs):
    for name in ("tpcc_asof_mix", "sql_audit", "recover_routes"):
        other = tiny(name, seed=2)
        assert other["correct"], (name, other["errors"], other["problems"])
        assert other["digest"] != first_runs[name]["digest"]


def test_traced_pass_reports_every_layer_and_leaves_the_profiler_off(first_runs):
    doc = tiny("asof_cold", trace=True)
    assert sys.getprofile() is None
    line = json.loads(runner.contract_line(doc, trace=True))
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    # Call counts are exact too; self times add up to the traced phase.
    assert doc["layers"]["core.split_lsn.calls_per_op"] > 0
    assert doc["layers"]["core.page_undo.prepare_page_version.incl_ms_per_op"] > 0
    assert doc["trace"]["self_s_sum"] == pytest.approx(doc["trace"]["elapsed_s"], rel=0.10)
    untraced = first_runs["asof_cold"]["layers"]
    for metric, _fn in metrics.COUNTER_METRICS:
        assert doc["layers"][metric.name] == untraced[metric.name]


def test_compare_flags_a_doctored_regression(first_runs):
    # The runs as they came, whatever they stamped themselves.
    base = {"stamp": runner.stamp(1, "tiny"), "workloads": first_runs}
    _lines, worse = compare.compare(base, copy.deepcopy(base))
    assert not worse

    def flagged(new: dict, word: str) -> list:
        lines, worse = compare.compare(base, new)
        assert worse == any(line.endswith("worse") for line in lines)
        return [line.split()[:2] for line in lines if line.endswith(word)]

    # One seed, so the exact metrics are held to 1 %; a halved rate is
    # worse however noisy the host was.
    slower = copy.deepcopy(base)
    slower["workloads"]["tpcc_oltp"]["e2e"]["ops_per_s"] *= 0.5
    slower["workloads"]["sql_audit"]["e2e"]["sim_s_per_op"] *= 1.02
    for noisy in (False, True):
        for doc in slower["workloads"].values():
            doc["noisy"] = noisy
        assert flagged(slower, "worse") == [
            ["tpcc_oltp", "ops_per_s"], ["sql_audit", "sim_s_per_op"]
        ]

    # Between one and two bounds a noisy host-clock move proves nothing,
    # a steady one counts; an exact metric counts either way.
    slower["workloads"]["tpcc_oltp"]["e2e"]["ops_per_s"] = (
        base["workloads"]["tpcc_oltp"]["e2e"]["ops_per_s"] * 0.85
    )
    assert flagged(slower, "unresolved") == [["tpcc_oltp", "ops_per_s"]]
    assert flagged(slower, "worse") == [["sql_audit", "sim_s_per_op"]]
    slower["workloads"]["tpcc_oltp"]["noisy"] = False
    base["workloads"]["tpcc_oltp"]["noisy"] = False
    assert ["tpcc_oltp", "ops_per_s"] in flagged(slower, "worse")

    # Another seed is other inputs: the cross-seed bounds (8 %) apply.
    slower["stamp"]["seed"] = 2
    assert ["sql_audit", "sim_s_per_op"] not in flagged(slower, "worse")
