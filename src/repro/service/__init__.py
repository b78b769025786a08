"""The query service layer: async serving over the search engines.

A production-shaped front for :class:`~repro.core.engine.ContextSearchEngine`
and :class:`~repro.core.sharded_engine.ShardedEngine`:

* :mod:`~repro.service.protocol` — the JSON-lines wire format and a
  blocking :class:`ServiceClient`;
* :mod:`~repro.service.server` — the asyncio server, the transport-free
  :class:`QueryService`, and the in-process :class:`ServerThread`;
* :mod:`~repro.service.coalescer` — dynamic micro-batching so concurrent
  queries sharing a context share one materialisation;
* :mod:`~repro.service.admission` — bounded queue, load shedding,
  degradation, per-request deadlines;
* :mod:`~repro.service.result_cache` — epoch-guarded LRU of full results;
* :mod:`~repro.service.metrics` — qps/latency/batch-shape counters;
* :mod:`~repro.service.loadgen` — the closed-loop load generator behind
  ``bench-serve``;
* :mod:`~repro.service.workload` — the bounded, decayed recorder turning
  served queries into selector input;
* :mod:`~repro.service.adaptive` — the background controller that
  re-runs view selection and hot-swaps catalogs;
* :mod:`~repro.service.cluster` — the distributed tier: a query router
  scatter-gathering over replicated shard worker processes, with
  bit-identical rankings to the in-process sharded engine.
"""

from .adaptive import AdaptiveConfig, AdaptiveSelectionController
from .admission import AdmissionController, Ticket
from .cluster import (
    ClusterConfig,
    ClusterConfigError,
    RouterService,
    ShardWorkerService,
    fetch_artifact,
    load_cluster_config,
    router_thread,
    worker_thread,
)
from .coalescer import Coalescer
from .loadgen import EndpointStats, LoadReport, run_load
from .metrics import ServiceMetrics, percentile
from .protocol import ProtocolError, Request, ServiceClient, decode_request, encode_response
from .result_cache import ResultCache, ResultCacheMetrics
from .server import QueryServer, QueryService, ServerThread, ServiceConfig
from .workload import WorkloadRecorder, load_workload_state, save_workload_state

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSelectionController",
    "AdmissionController",
    "ClusterConfig",
    "ClusterConfigError",
    "Coalescer",
    "EndpointStats",
    "LoadReport",
    "RouterService",
    "ShardWorkerService",
    "ProtocolError",
    "QueryServer",
    "QueryService",
    "Request",
    "ResultCache",
    "ResultCacheMetrics",
    "ServerThread",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "Ticket",
    "WorkloadRecorder",
    "decode_request",
    "encode_response",
    "fetch_artifact",
    "load_cluster_config",
    "load_workload_state",
    "percentile",
    "router_thread",
    "run_load",
    "save_workload_state",
    "worker_thread",
]
