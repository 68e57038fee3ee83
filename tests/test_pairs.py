"""``tools/pairs.py``: alternating benchmark pairs and their summary."""

from __future__ import annotations

import importlib.util
import json

import pytest

from .conftest import FIXTURES

ROOT = FIXTURES.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reproduces_the_medians_of_a_committed_bench_file(pairs):
    record = json.loads((ROOT / "BENCH_12.json").read_text())
    rows = pairs.summarize(record["runs"], pairs.load_benchmark())
    assert [(r["workload"], r["metric"]) for r in rows][:2] == [
        ("oracle-small", "latency_p50_ms"),
        ("oracle-small", "latency_tail_ms"),
    ]
    p50 = {r["workload"]: r for r in rows if r["metric"] == "latency_p50_ms"}
    small = p50["oracle-small"]
    assert round(small["parent"][0], 3) == 9.754
    assert round(small["change"][0], 3) == 7.054
    assert (small["won"], small["pairs"], small["within_bound"]) == (10, 10, True)
    # the traced pair is left out: ten untraced runs a side
    assert round(p50["deep"]["parent"][0], 2) == 33.08
    assert round(p50["wide"]["change"][0], 2) == 19.92


def test_a_loss_beyond_the_bound_is_reported(pairs):
    bench = {"end_to_end": [{"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]}
    runs = [
        {"side": side, "pair": 1, "workload": "w", "trace": 0,
         "result": {"metrics": {"latency_p50_ms": {"value": value}}}}
        for side, value in (("parent", 10.0), ("change", 12.6))
    ]
    [row] = pairs.summarize(runs, bench)
    assert (row["won"], row["within_bound"]) == (0, False)


def test_pairs_alternate_and_write_a_bench_file(pairs, monkeypatch, tmp_path):
    order, seconds_of_a_run = [], pairs.load_benchmark()["run_seconds"]

    def fake_run(root, command, workload, seed, seconds):
        order.append((workload, root))
        assert seconds == seconds_of_a_run
        p50 = {"value": 1.0 if root == "/p" else 0.5, "unit": "ms"}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"latency_p50_ms": p50}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["/p", "/c", "--seed", "5", "--pairs", "3", "--out", str(out)]
    assert pairs.main(argv) == 0
    assert [root for workload, root in order if workload == "deep"] == [
        "/p", "/c", "/c", "/p", "/p", "/c"
    ]
    record = json.loads(out.read_text())
    assert list(record) == ["change", "command", "machine", "protocol", "runs"]
    assert len(record["runs"]) == 3 * 2 * len(pairs.load_benchmark()["workloads"])
    assert record["runs"][1] == {
        "side": "change", "pair": 1, "workload": "deep", "seed": 5, "trace": 0,
        "result": fake_run("/c", None, None, None, seconds_of_a_run),
    }
