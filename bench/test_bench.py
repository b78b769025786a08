"""Unit tests of the benchmark's numeric helpers.

Run with ``python -m pytest bench/``; nothing here needs the ``repro``
package.
"""

import random
import socket
import threading

import pytest

import loadgen
from compare import compare, verdict, worsening
from measure import (
    Span,
    Tracer,
    median_of_passes,
    percentile,
    self_ms_by_name,
    self_times_ns,
    spread,
)


class TestPercentile:
    def test_nearest_rank_returns_a_measured_value(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 95) == 5.0
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0

    def test_p95_of_400_leaves_20_beyond(self):
        samples = list(range(1, 401))
        assert percentile(samples, 95) == 380
        assert sum(s > percentile(samples, 95) for s in samples) == 20

    def test_order_does_not_matter(self):
        samples = [float(i) for i in range(100)]
        shuffled = samples[:]
        random.Random(7).shuffle(shuffled)
        for p in (1, 50, 95, 99):
            assert percentile(shuffled, p) == percentile(samples, p)

    def test_single_sample_and_empty(self):
        assert percentile([7.5], 95) == 7.5
        with pytest.raises(ValueError):
            percentile([], 50)


class TestMedianOfPasses:
    def test_odd_and_even(self):
        assert median_of_passes([3.0, 1.0, 2.0]) == 2.0
        assert median_of_passes([1.0, 2.0, 3.0, 10.0]) == 2.5

    def test_one_slow_pass_does_not_move_it(self):
        assert median_of_passes([1.0, 1.1, 0.9, 1.0, 50.0]) == 1.0

    def test_no_passes(self):
        with pytest.raises(ValueError):
            median_of_passes([])


class TestSpread:
    def test_interquartile_share_of_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # statistics.quantiles(n=4): q1 = 11.75, q3 = 17.25; median 14.5.
        assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)

    def test_constant_and_short_series(self):
        assert spread([4.0] * 10) == 0.0
        assert spread([4.0]) == 0.0
        assert spread([]) == 0.0


def span(span_id, start, end, parent=None, name="s", query=0):
    return Span(span_id, name, start, end, parent, query)


class TestSelfTime:
    def test_children_are_subtracted_from_the_parent_only(self):
        spans = [
            span(0, 0, 100),
            span(1, 10, 30, parent=0),
            span(2, 40, 90, parent=0),
            span(3, 50, 60, parent=2),
        ]
        assert self_times_ns(spans) == {0: 30, 1: 20, 2: 40, 3: 10}

    def test_overlapping_children_count_once(self):
        spans = [
            span(0, 0, 100),
            span(1, 10, 60, parent=0),
            span(2, 40, 80, parent=0),
        ]
        assert self_times_ns(spans)[0] == 30

    def test_child_is_clipped_to_the_parent(self):
        spans = [span(0, 10, 50), span(1, 0, 30, parent=0)]
        assert self_times_ns(spans)[0] == 20

    def test_self_times_sum_to_the_root(self):
        rng = random.Random(3)
        spans = [span(0, 0, 1000)]
        cursor = 0
        for child in range(1, 8):
            start = cursor + rng.randrange(1, 40)
            end = start + rng.randrange(1, 80)
            spans.append(span(child, start, end, parent=0))
            cursor = end
        assert sum(self_times_ns(spans).values()) == 1000

    def test_by_name_sums_within_a_query(self):
        spans = [
            span(0, 0, 4_000_000, name="root", query=0),
            span(1, 0, 1_000_000, parent=0, name="stage", query=0),
            span(2, 2_000_000, 3_000_000, parent=0, name="stage", query=0),
            span(3, 0, 5_000_000, name="root", query=1),
        ]
        by_name = self_ms_by_name(spans)
        assert by_name["stage"] == {0: 2.0}
        assert by_name["root"] == {0: 2.0, 1: 5.0}


class TestTracer:
    def test_nesting_records_parents(self):
        tracer = Tracer()
        tracer.begin("root", 7)
        tracer.begin("child", 7)
        tracer.end()
        tracer.end()
        child, root = tracer.spans
        assert child.parent == root.id and root.parent is None
        assert child.query_id == root.query_id == 7
        assert root.start_ns <= child.start_ns <= child.end_ns <= root.end_ns

    def test_abandon_closes_nothing_and_keeps_going(self):
        tracer = Tracer()
        tracer.begin("root", 0)
        tracer.begin("child", 0)
        tracer.abandon()
        tracer.begin("next", 1)
        tracer.end()
        assert [(s.name, s.parent) for s in tracer.spans] == [("next", None)]

    def test_not_recording_keeps_nothing(self):
        tracer = Tracer(record=False)
        tracer.begin("root", 0)
        tracer.end()
        assert tracer.spans == []


def serve_then_close(answers: int):
    """A server that answers ``answers`` request lines of one connection
    and then closes it; returns its address and thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        connection, _ = listener.accept()
        with connection, connection.makefile("rb") as reader:
            for _ in range(answers):
                reader.readline()
                connection.sendall(b'{"status":"ok","hits":[]}\n')
            reader.readline()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread


class TestLoadgen:
    def test_a_dead_connection_reads_as_slow_not_fast(self):
        address, thread = serve_then_close(answers=2)
        result = loadgen.run_pass(address, [b"{}\n"] * 5)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result.replies[:2] == [b'{"status":"ok","hits":[]}\n'] * 2
        assert result.replies[2:] == [None] * 3
        timeout_ms = loadgen.REPLY_TIMEOUT_S * 1000.0
        assert result.latencies_ms[2:] == [timeout_ms] * 3
        assert all(ms < timeout_ms for ms in result.latencies_ms[:2])
        # Median and tail both sit at the timeout, and so does the wall.
        assert percentile(result.latencies_ms, 50) == timeout_ms
        assert result.wall_s >= 3 * loadgen.REPLY_TIMEOUT_S

    def test_a_refused_connection_fails_every_request(self):
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()
        listener.close()
        result = loadgen.run_pass(address, [b"{}\n"] * 3)
        assert result.replies == [None] * 3


class TestCompareVerdicts:
    def test_direction(self):
        assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
        assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
        assert worsening(0.0, 0.0, "lower") == 0.0
        assert worsening(0.0, 0.01, "lower") == float("inf")

    def test_verdicts(self):
        assert verdict(0.11, 0.0, 0.10) == "worse"
        assert verdict(-0.11, 0.0, 0.10) == "better"
        assert verdict(0.05, 0.02, 0.10) == "within bound"
        assert verdict(0.05, 0.20, 0.10) == "unresolved"
        # Any rise of a metric whose bound is zero is a regression.
        assert verdict(float("inf"), 0.0, 0.0) == "worse"
        assert verdict(0.0, 0.0, 0.0) == "within bound"


def result_file(seed, p50, failed, scanned):
    cell = {"value": p50, "unit": "ms", "per_pass": [p50] * 3}
    return {
        "environment": {"seed": seed},
        "workloads": {
            "w": {
                "end_to_end": {
                    "attempted": 100, "failed": failed,
                    "metrics": {"latency_p50_ms": cell},
                },
                "per_layer": {
                    "attempted": 100, "failed": 0,
                    "metrics": {"scanned": {"value": scanned, "unit": "count"}},
                },
            }
        },
    }


class TestCompareFiles:
    bounds = {"latency_p50_ms": ("lower", 0.10)}

    def run(self, monkeypatch, base, candidate):
        monkeypatch.setattr("compare.DETERMINISTIC", ("scanned",))
        return compare(base, candidate, self.bounds)

    def test_same_results_pass(self, monkeypatch):
        rows, problems = self.run(
            monkeypatch, result_file(1, 2.0, 0, 7), result_file(1, 2.1, 0, 7)
        )
        assert [row[-1] for row in rows] == ["within bound"]
        assert problems == []

    def test_worse_failed_and_unrepeated_counts_are_problems(self, monkeypatch):
        _, problems = self.run(
            monkeypatch, result_file(1, 2.0, 0, 7), result_file(1, 2.5, 1, 8)
        )
        assert len(problems) == 3

    def test_counts_may_differ_between_seeds(self, monkeypatch):
        _, problems = self.run(
            monkeypatch, result_file(1, 2.0, 0, 7), result_file(2, 2.0, 0, 8)
        )
        assert problems == []
