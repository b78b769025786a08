"""Numeric helpers: percentiles, medians across passes, spans, spreads.

Kept free of any ``repro`` import so ``bench/test_bench.py`` and
``bench/compare.py`` can use them without the package on the path.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by nearest rank on a sorted copy.

    Nearest rank returns a value that was actually measured, which is
    what a latency percentile should be; the empty sample has none.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = -(-len(ordered) * p // 100)  # ceil without float error
    return ordered[min(len(ordered) - 1, max(0, int(rank) - 1))]


def median_of_passes(per_pass: Sequence[float]) -> float:
    """A metric computed once per pass, reported as the median pass."""
    if not per_pass:
        raise ValueError("no passes to take a median of")
    return statistics.median(per_pass)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The steadiness measure the benchmark contract uses: the distance
    between the first and third quartile of ``statistics.quantiles(n=4)``
    over the median.  Fewer than two values have no spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


class Span(NamedTuple):
    """One timed interval at a layer boundary."""

    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    query_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    ``begin``/``end`` are explicit calls rather than a context manager:
    a ``with`` block costs about a microsecond more per span, and the
    cheapest traced queries take a few hundred.  With ``record=False``
    both calls return at once: the same staged code then runs untraced,
    which is the baseline of ``trace_overhead_share``.
    """

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.spans: List[Span] = []
        self._open: List[tuple] = []  # (id, name, start_ns, query_id)
        self._next_id = 0

    def begin(self, name: str, query_id: int) -> None:
        if not self.record:
            return
        span_id = self._next_id
        self._next_id += 1
        self._open.append((span_id, name, time.perf_counter_ns(), query_id))

    def end(self) -> None:
        if not self.record:
            return
        end_ns = time.perf_counter_ns()
        span_id, name, start_ns, query_id = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans.append(
            Span(span_id, name, start_ns, end_ns, parent, query_id)
        )

    def abandon(self) -> None:
        """Drop every open span (the traced call raised)."""
        self._open.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times_ns(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time per span id: duration minus what its children cover.

    Children are clipped to the parent and overlapping children are
    counted once, so a parent whose children run in parallel is not
    charged negative time.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, int] = {}
    for span in spans:
        covered = 0
        reach = span.start_ns
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start_ns):
            lo = max(child.start_ns, reach)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration_ns - covered
    return out


def self_ms_by_name(spans: Iterable[Span]) -> Dict[str, Dict[int, float]]:
    """``name -> query_id -> self milliseconds`` (summed within a query)."""
    spans = list(spans)
    self_ns = self_times_ns(spans)
    out: Dict[str, Dict[int, float]] = {}
    for span in spans:
        per_query = out.setdefault(span.name, {})
        per_query[span.query_id] = (
            per_query.get(span.query_id, 0.0) + self_ns[span.id] / 1e6
        )
    return out
