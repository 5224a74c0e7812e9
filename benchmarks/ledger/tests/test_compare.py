"""``compare`` verdicts on synthetic run documents."""

from benchmarks.ledger import SCHEMA
from benchmarks.ledger.compare import compare, render, verdict

BENCHMARK = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]
}


def run(latency, rate=100.0, failed=0, fsyncs=5, informational=1.0):
    return {
        "schema": SCHEMA,
        "workloads": {
            "w": {
                "end_to_end": {
                    "metrics": {
                        "latency_ms": {"value": latency, "unit": "ms", "better": "lower"},
                        "rate": {"value": rate, "unit": "1/s", "better": "higher"},
                        "extra_ms": {"value": informational, "unit": "ms", "better": "lower"},
                    },
                    "operations": {"op": {"attempted": 100, "failed": failed}},
                },
                "per_layer": {
                    "metrics": {
                        "wal.fsyncs": {"value": fsyncs, "unit": "count",
                                       "better": "lower", "exact": True},
                        "wal.fsync_ms": {"value": 1.0, "unit": "ms",
                                         "better": "lower", "exact": False},
                    }
                },
            }
        },
    }


def verdicts(a, b):
    rows, problems, notes = compare(a, b, BENCHMARK)
    return {row.metric: row.verdict for row in rows}, problems, notes


def test_same_within_the_bound():
    a = [run(10.0), run(10.1), run(10.2)]
    b = [run(10.4), run(10.5), run(10.3)]
    found, problems, _ = verdicts(a, b)
    assert found["latency_ms"] == "same"
    assert not problems


def test_worse_beyond_the_bound_fails_the_comparison():
    a = [run(10.0), run(10.1), run(10.2)]
    b = [run(12.0), run(12.1), run(12.2)]
    found, problems, _ = verdicts(a, b)
    assert found["latency_ms"] == "worse"
    assert any("latency_ms on w is worse" in p for p in problems)


def test_better_respects_the_metric_direction():
    a = [run(10.0, rate=100.0), run(10.0, rate=101.0), run(10.0, rate=99.0)]
    b = [run(8.0, rate=120.0), run(8.1, rate=121.0), run(8.2, rate=119.0)]
    found, problems, _ = verdicts(a, b)
    assert found["latency_ms"] == "better"
    assert found["rate"] == "better"
    assert not problems
    slower = [run(10.0, rate=80.0), run(10.0, rate=81.0), run(10.0, rate=79.0)]
    assert verdicts(a, slower)[0]["rate"] == "worse"


def test_noisy_overlapping_runs_are_unresolved_not_same():
    a = [run(8.0), run(10.0), run(12.0), run(14.0)]
    b = [run(9.0), run(11.0), run(13.0), run(15.0)]
    found, problems, _ = verdicts(a, b)
    assert found["latency_ms"] == "unresolved"
    assert not problems


def test_noisy_but_disjoint_runs_still_resolve():
    a = [run(8.0), run(10.0), run(12.0), run(14.0)]
    b = [run(4.0), run(5.0), run(6.0), run(7.0)]
    assert verdict(
        [8.0, 10.0, 12.0, 14.0], [4.0, 5.0, 6.0, 7.0], "lower", 0.10
    )[1] == "better"
    assert verdicts(a, b)[0]["latency_ms"] == "better"


def test_unbounded_metrics_are_report_only():
    found, problems, _ = verdicts([run(10.0)], [run(10.0, informational=50.0)])
    assert found["extra_ms"] == "report-only"
    assert not problems


def test_a_higher_failed_share_fails_the_comparison():
    _, problems, _ = verdicts([run(10.0)], [run(10.0, failed=2)])
    assert any("failed share rose" in p for p in problems)


def test_exact_counts_must_repeat_within_a_side():
    _, problems, _ = verdicts([run(10.0, fsyncs=5), run(10.0, fsyncs=6)], [run(10.0)])
    assert any("wal.fsyncs" in p and "side A" in p for p in problems)
    # A count that moved between the sides is a note, not a failure.
    _, problems, notes = verdicts([run(10.0, fsyncs=5)], [run(10.0, fsyncs=4)])
    assert not problems
    assert any("wal.fsyncs" in n for n in notes)


def test_render_has_one_line_per_row_plus_header():
    rows, _, _ = compare([run(10.0)], [run(10.5)], BENCHMARK)
    lines = render(rows)
    assert len(lines) == len(rows) + 1
    assert "latency_ms" in lines[1]
