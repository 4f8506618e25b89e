"""Unit tests of the harness itself (not of the program it measures).
Run with ``pytest benchmarks/suite/tests``; outside tier-1's testpaths.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.suite import compare, harness, metrics, specs
from benchmarks.suite.workloads import WHY, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


# -- percentile / sample-count rule ------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 50) == 50
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize("n,reported", [(99, False), (100, True), (1000, True)])
def test_p90_needs_ten_samples_beyond_it(n, reported):
    summary = harness.latency_summary([float(i) for i in range(n)])
    assert summary["n"] == n
    assert summary["p50"] is not None
    assert (summary["p90"] is not None) == reported


def test_median_of_few_samples_is_reported_with_its_count():
    summary = harness.latency_summary([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "p90": None}


# -- span self-time arithmetic -----------------------------------------------

def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "op": "x", "parent": parent,
            "start": start, "end": end}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),    # overlaps a: union is 1..6
        _span(3, "c", 9.0, 12.0, parent=0),   # clipped to the parent: 9..10
        _span(4, "a.inner", 1.5, 2.0, parent=1),
    ]
    own = harness.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert harness.durations_by_name(spans)["a"] == [pytest.approx(3.0)]


def test_tracer_nests_per_thread_and_shares_the_operation_id(tmp_path):
    tracer = harness.Tracer()
    with tracer.span("op", op="solve-1") as root:
        with tracer.span("layer") as child:
            pass
    tracer.add("reported", 0.0, 1.0, parent=root["id"], op=root["op"])
    assert child["parent"] == root["id"] and child["op"] == "solve-1"
    assert root["start"] <= child["start"] <= child["end"] <= root["end"]
    out = tmp_path / "spans.jsonl"
    tracer.write_jsonl(out)
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["op", "layer", "reported"]
    assert set(rows[0]) == {"id", "name", "op", "parent", "start", "end"}


def test_null_tracer_records_nothing():
    tracer = harness.NullTracer()
    with tracer.span("op") as rec:
        assert rec is None
    assert not tracer.enabled and len(tracer.spans) == 0


# -- seeded inputs -------------------------------------------------------------

def test_cold_order_is_deterministic_distinct_and_seeded():
    first = specs.cold_order(7, 0)
    assert first == specs.cold_order(7, 0)
    assert sorted(map(repr, first)) == sorted(map(repr, specs.COLD_SPECS))
    assert len(set(first)) == len(specs.COLD_SPECS)
    orders = {tuple(specs.cold_order(seed, 0)) for seed in range(20)}
    assert len(orders) > 1
    assert specs.cold_order(7, 0) != specs.cold_order(7, 1) or len(orders) > 1


def test_service_clients_never_share_a_spec():
    pool = specs.SERVICE_POOL
    assert len(set(pool)) == len(pool) == 6
    half = len(pool) // 2
    assert not set(pool[:half]) & set(pool[half:])


def test_flat_rhs_is_seeded_and_has_a_flat_sine_spectrum():
    n = 16
    a = harness.flat_rhs(2, n, np.random.default_rng(3))
    b = harness.flat_rhs(2, n, np.random.default_rng(3))
    c = harness.flat_rhs(2, n, np.random.default_rng(4))
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.shape == (n + 2, n + 2)
    assert not a[0].any() and not a[:, -1].any()
    k = np.arange(1, n + 1)
    sines = np.sin(np.pi * np.outer(k, k) / (n + 1))
    # the sine transform is its own inverse up to (2/(n+1))**ndim
    coeffs = sines @ a[1:-1, 1:-1] @ sines.T * (2.0 / (n + 1)) ** 2
    assert np.allclose(np.abs(coeffs), 1.0)


# -- BENCHMARK.json and the metric tables say the same thing -------------------

def test_benchmark_json_matches_the_suite():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["benchmarks/suite"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WHY
    assert set(WHY) == set(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    } == metrics.BOUNDED
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == metrics.PER_LAYER
    assert max(m["bound"] for m in doc["end_to_end"]) == (
        metrics.BOUNDED["setup_s"][2]
    )


# -- compare -------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,b,better,expected",
    [
        ([100, 101, 99], [100, 102, 98], "lower", "same"),
        ([100, 101, 99], [120, 121, 119], "lower", "worse"),
        ([100, 101, 99], [80, 81, 79], "lower", "better"),
        ([100, 130, 99], [100, 101, 99], "lower", "unresolved"),
        ([100, 130, 99], [50, 51, 49], "lower", "better"),  # clean win
        ([10, 10.1], [12, 12.1], "higher", "better"),
        ([10, 10.1], [8, 8.1], "higher", "worse"),
        ([100], [105], "lower", "same"),  # one set: the bound is the noise
    ],
)
def test_compare_verdicts(a, b, better, expected):
    word, ratio = compare.verdict(a, b, better, bound=0.10)
    assert word == expected
    assert ratio == pytest.approx(
        sorted(b)[len(b) // 2] / sorted(a)[len(a) // 2], rel=0.02
    )
