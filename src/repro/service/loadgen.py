"""Closed-loop load generator for the query service.

``run_load`` drives a running server with N client threads, each holding
its own :class:`~repro.service.protocol.ServiceClient` connection and
issuing queries back-to-back (a closed loop: concurrency == thread
count).  It is the measurement half of ``bench-serve`` — throughput
and latency percentiles come from here, correctness cross-checks
(bit-identical rankings vs serial execution) from the callers.

``address`` may also be a *list* of endpoints — e.g. several routers in
front of the same cluster, or a router plus a single-node fallback —
in which case threads are spread round-robin across the endpoints and
the report carries a per-endpoint breakdown alongside the aggregate.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .metrics import percentile
from .protocol import ServiceClient

__all__ = ["EndpointStats", "LoadReport", "run_load"]

Address = Tuple[str, int]


@dataclass
class EndpointStats:
    """One endpoint's share of a load run (a slice of the aggregate)."""

    address: str
    sent: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    timeouts: int = 0
    latencies: List[float] = field(default_factory=list)

    def latency_ms(self, p: float) -> float:
        return percentile(self.latencies, p) * 1000.0

    def to_dict(self) -> dict:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "latency_ms": {
                "p50": self.latency_ms(50),
                "p95": self.latency_ms(95),
                "p99": self.latency_ms(99),
            },
        }


@dataclass
class LoadReport:
    """What one load run produced, aggregated across client threads."""

    sent: int = 0
    ok: int = 0
    errors: int = 0
    shed: int = 0
    timeouts: int = 0
    elapsed_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    responses: Dict[int, dict] = field(default_factory=dict)
    endpoints: Dict[str, EndpointStats] = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.ok / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def latency_ms(self, p: float) -> float:
        return percentile(self.latencies, p) * 1000.0

    def to_dict(self) -> dict:
        out = {
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "elapsed_seconds": self.elapsed_seconds,
            "qps": self.qps,
            "latency_ms": {
                "p50": self.latency_ms(50),
                "p95": self.latency_ms(95),
                "p99": self.latency_ms(99),
            },
        }
        if len(self.endpoints) > 1:
            out["endpoints"] = {
                addr: stats.to_dict()
                for addr, stats in sorted(self.endpoints.items())
            }
        return out


def _normalise_endpoints(
    address: Union[Address, Sequence[Address]],
) -> List[Address]:
    """One address or many; a bare ``(host, port)`` tuple is one."""
    if (
        isinstance(address, tuple)
        and len(address) == 2
        and isinstance(address[0], str)
    ):
        return [address]
    endpoints = [(str(host), int(port)) for host, port in address]
    if not endpoints:
        raise ValueError("run_load needs at least one endpoint")
    return endpoints


def run_load(
    address: Union[Address, Sequence[Address]],
    queries: Sequence[str],
    threads: int = 8,
    top_k: Optional[int] = None,
    mode: str = "context",
    timeout_ms: Optional[float] = None,
    repeat: int = 1,
    keep_responses: bool = False,
) -> LoadReport:
    """Issue ``queries`` (``repeat`` times over) from ``threads`` clients.

    The workload is split round-robin: thread ``t`` sends queries
    ``t, t+threads, t+2·threads, …`` of the repeated sequence, so any
    thread count covers the full workload exactly ``repeat`` times.
    With multiple endpoints, thread ``t`` connects to endpoint
    ``t % len(endpoints)`` — the query split is unchanged, so the union
    of all threads' work is the same workload regardless of endpoint
    count, and :attr:`LoadReport.endpoints` breaks the counters and
    latencies down per target.  With ``keep_responses`` the ok responses
    are kept in :attr:`LoadReport.responses` keyed by global query
    index — that is what the benchmark's bit-identity check reads.
    """
    endpoints = _normalise_endpoints(address)
    workload = list(queries) * repeat
    threads = max(1, min(threads, len(workload)))
    report = LoadReport(sent=len(workload))
    report.endpoints = {
        f"{host}:{port}": EndpointStats(address=f"{host}:{port}")
        for host, port in endpoints
    }
    lock = threading.Lock()

    def client_loop(offset: int) -> None:
        host, port = endpoints[offset % len(endpoints)]
        endpoint_key = f"{host}:{port}"
        local_lat: List[float] = []
        local_counts = {"ok": 0, "errors": 0, "shed": 0, "timeouts": 0}
        local_responses: Dict[int, dict] = {}
        local_sent = 0
        with ServiceClient(host, port) as client:
            for i in range(offset, len(workload), threads):
                began = time.perf_counter()
                response = client.query(
                    workload[i],
                    top_k=top_k,
                    mode=mode,
                    timeout_ms=timeout_ms,
                    id=i,
                )
                local_lat.append(time.perf_counter() - began)
                local_sent += 1
                status = response.get("status")
                if status == "ok":
                    local_counts["ok"] += 1
                    if keep_responses:
                        local_responses[i] = response
                elif status == "shed":
                    local_counts["shed"] += 1
                elif status == "timeout":
                    local_counts["timeouts"] += 1
                else:
                    local_counts["errors"] += 1
        with lock:
            report.ok += local_counts["ok"]
            report.errors += local_counts["errors"]
            report.shed += local_counts["shed"]
            report.timeouts += local_counts["timeouts"]
            report.latencies.extend(local_lat)
            report.responses.update(local_responses)
            stats = report.endpoints[endpoint_key]
            stats.sent += local_sent
            stats.ok += local_counts["ok"]
            stats.errors += local_counts["errors"]
            stats.shed += local_counts["shed"]
            stats.timeouts += local_counts["timeouts"]
            stats.latencies.extend(local_lat)

    started = time.perf_counter()
    workers = [
        threading.Thread(target=client_loop, args=(t,), daemon=True)
        for t in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    report.elapsed_seconds = time.perf_counter() - started
    return report
