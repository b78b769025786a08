"""Serving metrics: request counters, latency percentiles, batch shapes.

The service increments these from the event loop and from worker
threads, so every mutation takes the lock; reads (the ``metrics`` op)
take a consistent snapshot under the same lock.  Latencies live in a
bounded ring — the percentiles are over the most recent window, which is
what an operator watching a dashboard wants anyway — so memory is O(1)
no matter how long the server runs.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["ServiceMetrics", "percentile"]

LATENCY_WINDOW = 4096
BATCH_WINDOW = 1024


def percentile(samples: List[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by nearest-rank on a sorted copy."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class ServiceMetrics:
    """Thread-safe counters and windows for the ``metrics`` op."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started = time.monotonic()
        self.requests = 0
        self.ok = 0
        self.errors = 0
        self.shed = 0
        self.timeouts = 0
        self.degraded = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.batches = 0
        self.size_flushes = 0
        self.timer_flushes = 0
        self.idle_flushes = 0
        self.topk_queries = 0
        self.topk_blocks_considered = 0
        self.topk_blocks_skipped = 0
        self.topk_candidates_pruned = 0
        # Resolution-path accounting: which physical path answered each
        # query (the adaptive-selection health signal — a rising
        # straightforward share under drift means the catalog is stale).
        self.path_views = 0
        self.path_straightforward = 0
        self.path_conventional = 0
        self.path_mixed = 0
        # Catalog reselection events (observed by the adaptive controller).
        self.reselections = 0
        self.catalog_generation = 0
        self.last_reselection: Optional[Dict] = None
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._batch_sizes: deque = deque(maxlen=BATCH_WINDOW)

    # -- recording ------------------------------------------------------

    def observe_request(self) -> None:
        with self._lock:
            self.requests += 1

    def observe_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def observe_timeout(self, latency_seconds: float) -> None:
        with self._lock:
            self.timeouts += 1
            self._latencies.append(latency_seconds)

    def observe_error(self, latency_seconds: float) -> None:
        with self._lock:
            self.errors += 1
            self._latencies.append(latency_seconds)

    def observe_ok(
        self,
        latency_seconds: float,
        cached: bool = False,
        degraded: bool = False,
    ) -> None:
        with self._lock:
            self.ok += 1
            if cached:
                self.cache_hits += 1
            if degraded:
                self.degraded += 1
            self._latencies.append(latency_seconds)

    def observe_topk(self, diagnostics: Optional[Dict]) -> None:
        """Fold one disjunctive query's top-k pruning diagnostics in.

        ``diagnostics`` is the ``topk`` dict an
        :class:`~repro.core.report.ExecutionReport` carries after a
        MaxScore evaluation; conjunctive/context queries pass ``None``
        and are ignored.
        """
        if not diagnostics:
            return
        with self._lock:
            self.topk_queries += 1
            self.topk_blocks_considered += diagnostics.get(
                "blocks_considered", 0
            )
            self.topk_blocks_skipped += diagnostics.get("blocks_skipped", 0)
            self.topk_candidates_pruned += diagnostics.get(
                "candidates_pruned", 0
            )

    def observe_path(self, path: Optional[str]) -> None:
        """Bucket one answered query's resolution path.

        Accepts both flat labels (``views``/``straightforward``/
        ``conventional``) and the sharded merges (``sharded-views``,
        ``sharded-straightforward``, ``sharded-mixed``).
        """
        if not path:
            return
        with self._lock:
            if path == "conventional":
                self.path_conventional += 1
            elif path.endswith("mixed"):
                self.path_mixed += 1
            elif path.endswith("views"):
                self.path_views += 1
            else:
                self.path_straightforward += 1

    def observe_reselection(
        self, generation: int, report: Optional[Dict] = None
    ) -> None:
        """One adaptive-selection catalog swap landed."""
        with self._lock:
            self.reselections += 1
            self.catalog_generation = generation
            if report is not None:
                self.last_reselection = dict(report)

    def observe_batch(self, size: int, reason: str) -> None:
        """One coalescer flush: ``reason`` is ``"idle"``, ``"size"`` or
        ``"timer"``."""
        with self._lock:
            self.batches += 1
            if reason == "size":
                self.size_flushes += 1
            elif reason == "timer":
                self.timer_flushes += 1
            else:
                self.idle_flushes += 1
            if size > 1:
                self.coalesced += size
            self._batch_sizes.append(size)

    # -- reporting ------------------------------------------------------

    def snapshot(self, extra: Optional[Dict] = None) -> dict:
        """A consistent point-in-time view for the ``metrics`` op."""
        with self._lock:
            uptime = max(time.monotonic() - self.started, 1e-9)
            latencies = list(self._latencies)
            sizes = list(self._batch_sizes)
            completed = self.ok + self.errors + self.timeouts
            payload = {
                "uptime_seconds": uptime,
                "requests": self.requests,
                "ok": self.ok,
                "errors": self.errors,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "degraded": self.degraded,
                "cache_hits": self.cache_hits,
                "qps": completed / uptime,
                "latency_ms": {
                    "count": len(latencies),
                    "mean": (
                        sum(latencies) / len(latencies) * 1000.0
                        if latencies
                        else 0.0
                    ),
                    "p50": percentile(latencies, 50) * 1000.0,
                    "p95": percentile(latencies, 95) * 1000.0,
                    "p99": percentile(latencies, 99) * 1000.0,
                },
                "topk": {
                    "queries": self.topk_queries,
                    "blocks_considered": self.topk_blocks_considered,
                    "blocks_skipped": self.topk_blocks_skipped,
                    "candidates_pruned": self.topk_candidates_pruned,
                },
                "batches": {
                    "count": self.batches,
                    "size_flushes": self.size_flushes,
                    "timer_flushes": self.timer_flushes,
                    "idle_flushes": self.idle_flushes,
                    "coalesced_requests": self.coalesced,
                    "mean_size": sum(sizes) / len(sizes) if sizes else 0.0,
                    "max_size": max(sizes) if sizes else 0,
                },
                "paths": {
                    "views": self.path_views,
                    "straightforward": self.path_straightforward,
                    "conventional": self.path_conventional,
                    "mixed": self.path_mixed,
                    # Of the queries that *could* have used views
                    # (context-sensitive resolution), how many did.
                    "view_hit_rate": (
                        self.path_views
                        / (
                            self.path_views
                            + self.path_straightforward
                            + self.path_mixed
                        )
                        if (
                            self.path_views
                            + self.path_straightforward
                            + self.path_mixed
                        )
                        else 0.0
                    ),
                },
                "adaptive": {
                    "reselections": self.reselections,
                    "catalog_generation": self.catalog_generation,
                    "last_reselection": self.last_reselection,
                },
            }
        if extra:
            payload.update(extra)
        return payload
