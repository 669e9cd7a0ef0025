"""The A/B runner's summary arithmetic (``benchmarks/ab.py``)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_runner", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPECS = [
    {"name": "throughput_rps", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "memory_mb", "better": "lower", "bound": 0.1},
]


def _result(correct=True, failed=0, **values):
    return {
        "correct": correct,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def _pairs():
    parent_rps = [40.0, 44.0, 38.0, 46.0, 42.0]
    change_rps = [60.0, 44.0, 61.0, 70.0, 66.0]
    parent_lat = [70.0, 72.0, 74.0, 76.0, 78.0]
    change_lat = [50.0, 80.0, 49.0, 51.0, 52.0]
    parent_mem = [100.0, 100.0, 100.0, 100.0, 100.0]
    change_mem = [111.0, 111.0, 111.0, 99.0, 111.0]
    return [
        (
            _result(throughput_rps=pr, latency_p50_ms=pl, memory_mb=pm),
            _result(
                correct=index != 2,
                failed=index,
                throughput_rps=cr,
                latency_p50_ms=cl,
                memory_mb=cm,
            ),
        )
        for index, (pr, cr, pl, cl, pm, cm) in enumerate(
            zip(parent_rps, change_rps, parent_lat, change_lat, parent_mem,
                change_mem)
        )
    ]


class TestSummary:
    def test_medians_quartiles_wins_and_verdicts(self):
        summary = ab.summarize(_pairs(), SPECS)
        assert summary["pairs"] == 5
        assert summary["correct"] == [5, 4]
        assert summary["failed"] == [0, 10]
        rows = {row["metric"]: row for row in summary["rows"]}

        rps = rows["throughput_rps"]
        assert rps["parent_median"] == 42.0
        assert rps["change_median"] == 61.0
        # Inclusive quartiles of 38, 40, 42, 44, 46.
        assert (rps["parent_q1"], rps["parent_q3"]) == (40.0, 44.0)
        # 44 vs 44 is a tie: it counts for neither side.
        assert (rps["wins"], rps["losses"]) == (4, 0)
        assert rps["verdict"] == "ok"
        # 19 > IQR 4, but 4 wins of 5 is below 9 in 10.
        assert rps["clear_gain"] is False
        assert rps["change_pct"] == pytest.approx(100.0 * 19.0 / 42.0)

        latency = rows["latency_p50_ms"]
        assert (latency["parent_median"], latency["change_median"]) == (
            74.0,
            51.0,
        )
        assert (latency["wins"], latency["losses"]) == (4, 1)
        assert latency["verdict"] == "ok"

        memory = rows["memory_mb"]
        assert memory["change_median"] == 111.0
        # +11% against a 10% bound on a lower-is-better metric.
        assert memory["verdict"] == "WORSE"
        assert (memory["wins"], memory["losses"]) == (1, 4)

    def test_clear_gain_needs_nine_in_ten_and_more_than_the_iqr(self):
        spec = [{"name": "throughput_rps", "better": "higher", "bound": 0.25}]
        pairs = [
            (_result(throughput_rps=40.0 + i), _result(throughput_rps=60.0 + i))
            for i in range(10)
        ]
        (row,) = ab.summarize(pairs, spec)["rows"]
        assert (row["wins"], row["clear_gain"]) == (10, True)
        # Same wins, but the shift (1) is inside the parent IQR (4.5).
        near = [
            (_result(throughput_rps=40.0 + i), _result(throughput_rps=41.0 + i))
            for i in range(10)
        ]
        (row,) = ab.summarize(near, spec)["rows"]
        assert (row["wins"], row["clear_gain"]) == (10, False)

    def test_bound_verdict_at_the_edge(self):
        spec = [{"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]
        at_bound = [(_result(latency_p50_ms=80.0), _result(latency_p50_ms=100.0))]
        past = [(_result(latency_p50_ms=80.0), _result(latency_p50_ms=100.5))]
        assert ab.summarize(at_bound, spec)["rows"][0]["verdict"] == "ok"
        assert ab.summarize(past, spec)["rows"][0]["verdict"] == "WORSE"

    def test_missing_metric_is_left_out(self):
        pairs = [(_result(latency_p50_ms=1.0), _result(latency_p50_ms=1.0))]
        rows = ab.summarize(pairs, SPECS)["rows"]
        assert [row["metric"] for row in rows] == ["latency_p50_ms"]

    def test_render_and_seed_ranges(self):
        table = ab.render("serve-mutate", ab.summarize(_pairs(), SPECS))
        assert "serve-mutate: 5 pairs" in table
        assert "| memory_mb |" in table and "WORSE" in table
        assert "| throughput_rps | 42 | 40..44 | 61 | +45.2% | 4/5 |" in table
        assert ab.parse_seeds("2-5,9") == [2, 3, 4, 5, 9]
