"""The asyncio query server: admit → coalesce → plan → execute → cache.

:class:`QueryService` is the transport-free request handler (the tests
drive it directly); :class:`QueryServer` binds it to an asyncio TCP
server speaking the JSON-lines protocol; :class:`ServerThread` runs a
whole server on a background thread with its own event loop — the
in-process form the CLI's ``bench-serve``, the load generator, and the
test-suite use.

Request lifecycle (one ``op: query`` line)::

    decode ─▶ admission ──shed──▶ respond {"status": "shed"}
                  │
                  ├─▶ serving-cache lookup (canonical key + epoch) ──hit──▶ respond
                  │
                  ├─▶ degrade? (queue ≥ degrade_depth ⇒ force cheap path)
                  │
                  └─▶ coalescer.submit ─▶ [batch while busy] ─▶ batch runner
                            │                    (worker pool here, shard
                            │                     scatter in the router)
                            │  deadline (from arrival) fires ⇒ respond
                            │  {"status": "timeout"} (the ticket is
                            │  cancelled; execution is skipped if it has
                            │  not started)
                            ▼
                      one outcome per ticket ─▶ ok: cache.put + respond
                                                    {"status": "ok", hits, report}
                                                error / shed: respond as such

The batch runner is the only tier-specific step.  Here it is the
engine's one synchronous batch entry point, ``search_many`` (shared
context materialisations, prefetch and thread fan-out for a flat
engine; two scatter-gather dispatches per batch for a sharded one),
driven off the event loop on a worker pool; the cluster router
overrides it to scatter to shard workers.  The event loop only ever
parses, admits, coalesces, and serialises.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .. import __version__
from ..core.backend import VersionVector
from ..errors import QueryError, ReproError
from .admission import AdmissionController, Ticket
from .coalescer import Coalescer
from .metrics import ServiceMetrics
from .protocol import (
    CLUSTER_OPS,
    MAX_LINE_BYTES,
    OP_HEALTHZ,
    OP_METRICS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    VALID_PATHS,
    ProtocolError,
    Request,
    decode_request,
    encode_response,
)
from .result_cache import ResultCache

__all__ = ["QueryServer", "QueryService", "ServerThread", "ServiceConfig"]

PATH_AUTO = "auto"


def ok_outcome(mode: str, results) -> dict:
    """A batch runner's outcome for one answered query: the response
    body (``mode``, ``hits``, serialised ``report``) that both tiers
    send and cache."""
    return {
        "status": STATUS_OK,
        "body": {
            "mode": mode,
            "hits": [
                {
                    "doc": hit.external_id,
                    "doc_id": hit.doc_id,
                    "score": hit.score,
                }
                for hit in results.hits
            ],
            "report": results.report.to_dict(),
        },
    }


@dataclass
class ServiceConfig:
    """Tunables for one serving deployment (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported at start
    workers: int = 0  # 0 = min(8, cpu count)
    max_batch: int = 16
    max_wait_ms: float = 2.0
    max_pending: int = 256
    degrade_depth: Optional[int] = None  # None = max_pending // 2
    degrade_path: str = "straightforward"
    default_timeout_ms: Optional[float] = None
    default_top_k: int = 10
    cache_entries: int = 1024
    cache_enabled: bool = True
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.degrade_path not in VALID_PATHS or self.degrade_path == PATH_AUTO:
            raise QueryError(
                f"degrade_path must be a forceable path, got {self.degrade_path!r}"
            )

    def effective_workers(self) -> int:
        return self.workers or min(8, os.cpu_count() or 1)


class QueryService:
    """Transport-free request handling: the whole lifecycle minus sockets.

    Subclasses change how one batch runs (``_run_batch``) and what the
    health and metrics ops report; admission, caching, degradation,
    deadlines, coalescing and the response envelope stay here.
    ``metrics`` lets a subclass pass a :class:`ServiceMetrics` subclass
    that carries its own extra signals.
    """

    # Per-service frame limit; shard workers raise it for router batches.
    line_limit = MAX_LINE_BYTES

    def __init__(
        self,
        engine,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.engine = engine
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # Adaptive selection attachments (optional; wired by the CLI's
        # ``serve --adaptive`` or by tests): served queries fold into the
        # recorder, and the controller owns the background reselection
        # thread.  ``adaptive.info()`` is surfaced by healthz.
        self.recorder = None
        self.adaptive = None
        self._predicate_analyzer = self._find_predicate_analyzer(engine)
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            degrade_depth=self.config.degrade_depth,
        )
        self.result_cache = ResultCache(max_entries=self.config.cache_entries)
        self.pool = ThreadPoolExecutor(
            max_workers=self.config.effective_workers(),
            thread_name_prefix="repro-serve",
        )
        self.coalescer = Coalescer(
            self._run_batch,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            observe_batch=self.metrics.observe_batch,
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.version.epoch

    @property
    def catalog_generation(self) -> int:
        """How many catalog hot-swaps the engine has seen."""
        return self.version.catalog_generation

    @property
    def version(self) -> VersionVector:
        """The backend's :class:`~repro.core.backend.VersionVector`."""
        return self.engine.version

    def _cache_epoch(self) -> VersionVector:
        """The result cache's staleness guard: the full version vector.
        A flat-engine catalog swap does not touch the index epoch, but
        it changes plans and view accounting in the cached report bodies
        — one coherence token means a swap (or, in the cluster, a
        placement change) invalidates exactly like a data mutation."""
        return self.version

    @staticmethod
    def _find_predicate_analyzer(engine):
        index = getattr(engine, "index", None)
        if index is not None:
            analyzer = getattr(index, "predicate_analyzer", None)
            if analyzer is not None:
                return analyzer
        return getattr(engine, "_predicate_analyzer", None)

    def _record_workload(self, query_text, context_size) -> None:
        """Fold one served query into the workload recorder (cheap; any
        parse/analysis failure just skips the sample)."""
        if self.recorder is None or not query_text:
            return
        from ..core.query import parse_query

        try:
            parsed = parse_query(query_text)
        except ReproError:
            return
        predicates = list(parsed.predicates)
        if self._predicate_analyzer is not None:
            analyzed = []
            for predicate in predicates:
                term = self._predicate_analyzer.analyze_query_term(predicate)
                if term is None:
                    return
                analyzed.append(term)
            predicates = analyzed
        self.recorder.record(predicates, context_size or 0)

    async def drain(self) -> None:
        """Flush pending work before shutdown (transport calls this)."""
        await self.coalescer.drain()

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    # -- request handling ----------------------------------------------

    async def handle_line(self, line: bytes) -> bytes:
        """Decode one request line, handle it, encode the response."""
        try:
            request = decode_request(line, limit=self.line_limit)
        except ProtocolError as exc:
            return encode_response(
                {"status": STATUS_ERROR, "error": str(exc)}
            )
        payload = await self.handle_request(request)
        return encode_response(payload)

    async def handle_request(self, request: Request) -> dict:
        if request.op == OP_HEALTHZ:
            return self._with_id(request, self._healthz())
        if request.op == OP_METRICS:
            return self._with_id(request, self._metrics())
        if request.op in CLUSTER_OPS:
            return self._respond_cluster_op(request)
        return await self._handle_query(request)

    @staticmethod
    def _with_id(request: Request, payload: dict) -> dict:
        """Echo the request id so pipelining clients (the router's
        health prober among them) can match the response."""
        if request.id is not None:
            payload["id"] = request.id
        return payload

    def _respond_cluster_op(self, request: Request) -> dict:
        """Cluster-internal ops on a plain server: readable refusal (the
        shard worker subclass overrides the whole dispatch)."""
        payload = {
            "status": STATUS_ERROR,
            "error": (
                f"op {request.op!r} is cluster-internal and this server is "
                "not a shard worker (start one with 'repro worker')"
            ),
        }
        if request.id is not None:
            payload["id"] = request.id
        return payload

    def _healthz(self) -> dict:
        index = getattr(self.engine, "index", None) or getattr(
            self.engine, "sharded_index", None
        )
        payload = {
            "status": STATUS_OK,
            "version": __version__,
            "engine": self.engine.kind,
            "num_docs": getattr(index, "num_docs", None),
            "epoch": self.epoch,
            "catalog_generation": self.catalog_generation,
            "version_vector": self.version.to_dict(),
            "uptime_seconds": time.monotonic() - self.metrics.started,
        }
        # Lifecycle engines report their segment/WAL/version state so an
        # operator can see compaction debt and recovery position from
        # the health endpoint alone.
        if self.engine.kind == "lifecycle":
            payload["lifecycle"] = self.engine.lifecycle_info()
        if self.adaptive is not None:
            payload["adaptive"] = self.adaptive.info()
        return payload

    def _metrics(self) -> dict:
        return self.metrics.snapshot(
            extra={
                "status": STATUS_OK,
                "queue_depth": self.admission.depth,
                "max_pending": self.admission.max_pending,
                "degrade_depth": self.admission.degrade_depth,
                "admitted": self.admission.admitted,
                "cache": self.result_cache.stats(),
                "epoch": self.epoch,
                "catalog_generation": self.catalog_generation,
                "version_vector": self.version.to_dict(),
            }
        )

    async def _handle_query(self, request: Request) -> dict:
        started = time.monotonic()
        self.metrics.observe_request()
        if not self.admission.try_admit():
            self.metrics.observe_shed()
            return self._respond(
                request,
                STATUS_SHED,
                started,
                error=(
                    f"server overloaded: {self.admission.max_pending} "
                    "requests already pending"
                ),
            )
        try:
            return await self._admitted_query(request, started)
        finally:
            self.admission.release()

    async def _admitted_query(self, request: Request, started: float) -> dict:
        top_k = (
            request.top_k
            if request.top_k is not None
            else self.config.default_top_k
        )
        mode, path = request.mode, request.path

        # Serving-cache lookup: canonical query + engine epoch.  The key
        # excludes the physical path (forcing never changes rankings).
        cache_key = None
        epoch = self._cache_epoch()
        if self.config.cache_enabled:
            try:
                cache_key = ResultCache.key(request.query, mode, top_k)
            except ReproError:
                cache_key = None  # unparseable; the engine reports the error
            if cache_key is not None:
                payload = self.result_cache.get(cache_key, epoch)
                if payload is not None:
                    # A cache hit is still workload signal (and still a
                    # served resolution path).
                    report = payload.get("report") or {}
                    self._record_workload(
                        request.query, report.get("context_size")
                    )
                    self.metrics.observe_path(
                        (report.get("resolution") or {}).get("path")
                    )
                    self.metrics.observe_ok(
                        time.monotonic() - started, cached=True
                    )
                    return self._respond(
                        request, STATUS_OK, started, body=payload, cached=True
                    )

        # Graceful degradation: deep queue ⇒ force the cheap planner path
        # (skips candidate pricing; answer-preserving by construction).
        degraded = False
        if (
            mode != "conventional"
            and path == PATH_AUTO
            and self.admission.degraded
        ):
            path = self.config.degrade_path
            degraded = True

        timeout_ms = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self.config.default_timeout_ms
        )
        deadline = (
            started + timeout_ms / 1000.0 if timeout_ms is not None else None
        )
        ticket = Ticket(request, deadline=deadline, degraded=degraded)

        submit = self.coalescer.submit((mode, top_k, path), ticket)
        try:
            if deadline is not None:
                remaining = max(deadline - time.monotonic(), 0.0)
                outcome = await asyncio.wait_for(submit, remaining)
            else:
                outcome = await submit
        except asyncio.TimeoutError:
            ticket.cancel()  # skip execution if the batch has not started
            self.metrics.observe_timeout(time.monotonic() - started)
            return self._respond(
                request,
                STATUS_TIMEOUT,
                started,
                error=f"deadline of {timeout_ms:g}ms exceeded",
            )
        except Exception as exc:  # noqa: BLE001 - every request gets a reply
            # The runner itself failed (an engine bug, a dead worker pool):
            # the coalescer fanned the exception out to every ticket.
            outcome = {
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }

        if outcome is None:  # deadline expired while queued; never executed
            self.metrics.observe_timeout(time.monotonic() - started)
            return self._respond(
                request,
                STATUS_TIMEOUT,
                started,
                error=f"deadline of {timeout_ms:g}ms expired before execution",
            )
        status = outcome["status"]
        if status == STATUS_SHED:  # the router lost a whole shard group
            self.metrics.observe_shed()
            return self._respond(
                request, STATUS_SHED, started, error=outcome["error"]
            )
        if status != STATUS_OK:
            self.metrics.observe_error(time.monotonic() - started)
            return self._respond(
                request, STATUS_ERROR, started, error=outcome["error"]
            )

        body = outcome["body"]
        report = body["report"]
        if cache_key is not None:
            self.result_cache.put(cache_key, epoch, body)
        self._record_workload(request.query, report["context_size"])
        self.metrics.observe_path(report["resolution"]["path"])
        self.metrics.observe_topk(report["topk"])
        self.metrics.observe_ok(
            time.monotonic() - started, degraded=degraded
        )
        return self._respond(
            request, STATUS_OK, started, body=body, degraded=degraded
        )

    def _respond(
        self,
        request: Request,
        status: str,
        started: float,
        body: Optional[dict] = None,
        error: Optional[str] = None,
        cached: bool = False,
        degraded: bool = False,
    ) -> dict:
        payload = {
            "status": status,
            "elapsed_ms": (time.monotonic() - started) * 1000.0,
        }
        if request.id is not None:
            payload["id"] = request.id
        if body is not None:
            payload.update(body)
        if error is not None:
            payload["error"] = error
        if cached:
            payload["cached"] = True
        if degraded:
            payload["degraded"] = True
        return payload

    # -- batch execution (worker thread) --------------------------------

    async def _run_batch(
        self, key: Tuple[str, Optional[int], str], tickets: Sequence[Ticket]
    ) -> Sequence[Optional[dict]]:
        """The coalescer's runner: one batch on the worker pool.

        Returns one outcome per ticket — ``{"status": "ok", "body": …}``
        (see :func:`ok_outcome`), ``{"status": "error" | "shed",
        "error": …}``, or ``None`` for a ticket skipped before execution.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self.pool, self._execute_batch, key, tickets
        )

    def _execute_batch(
        self, key: Tuple[str, Optional[int], str], tickets: Sequence[Ticket]
    ) -> Sequence[Optional[dict]]:
        """Run one coalesced batch through the engine (blocking).

        Tickets whose deadline expired (or whose waiter gave up) while
        the batch sat in the window are *skipped before execution* —
        their slot resolves to ``None`` and no engine work is spent.
        """
        mode, top_k, path = key
        live = [i for i, t in enumerate(tickets) if not t.skip]
        out: list = [None] * len(tickets)
        if not live:
            return out
        queries = [tickets[i].request.query for i in live]
        report = self.engine.search_many(
            queries, top_k=top_k, mode=mode, path=path,
            max_workers=self.config.effective_workers(),
        )
        for slot, outcome in zip(live, report.outcomes):
            out[slot] = (
                ok_outcome(mode, outcome.results)
                if outcome.ok
                else {"status": STATUS_ERROR, "error": outcome.error}
            )
        return out


class QueryServer:
    """JSON-lines TCP transport around a :class:`QueryService`.

    ``service_class`` is any callable ``(engine, config) -> service``
    duck-typed like :class:`QueryService` (``handle_line``, ``drain``,
    ``close``, ``line_limit``; optional async ``on_start``/``on_stop``
    hooks) — the cluster's shard worker and router reuse this transport
    unchanged through it.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServiceConfig] = None,
        service_class=QueryService,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.service = service_class(engine, self.config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=getattr(self.service, "line_limit", MAX_LINE_BYTES),
        )
        on_start = getattr(self.service, "on_start", None)
        if on_start is not None:
            await on_start()
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, release.

        In-flight requests get up to ``drain_timeout`` seconds to finish
        (their batches keep running on the worker pool); stragglers are
        cancelled, their connections closed, and the pool shut down.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        on_stop = getattr(self.service, "on_stop", None)
        if on_stop is not None:
            await on_stop()
        await self.service.drain()
        self.service.close()

    # -- connection handling --------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        # One task per request line, so a pipelining connection coalesces
        # with itself; responses interleave by completion (match on id).
        request_tasks: set = set()
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ConnectionResetError,
                    asyncio.IncompleteReadError,
                ):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                rtask = asyncio.ensure_future(
                    self._respond(line, writer, write_lock)
                )
                request_tasks.add(rtask)
                rtask.add_done_callback(request_tasks.discard)
        except asyncio.CancelledError:
            pass  # shutdown cancelled an idle persistent connection
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._conn_tasks.discard(task)

    async def _respond(self, line: bytes, writer, write_lock) -> None:
        response = await self.service.handle_line(line)
        async with write_lock:
            try:
                writer.write(response)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away; the result is simply dropped


class ServerThread:
    """A query server on a daemon thread with a private event loop.

    The in-process deployment shape: tests, the load generator, and
    ``bench-serve`` start one, talk to it over real sockets, and stop it
    for a clean shutdown.  ``start()`` blocks until the port is bound
    (or raises what the server raised); ``stop()`` performs the graceful
    drain and joins the thread.
    """

    def __init__(
        self,
        engine,
        config: Optional[ServiceConfig] = None,
        service_class=QueryService,
    ):
        self.engine = engine
        self.config = config if config is not None else ServiceConfig()
        self.service_class = service_class
        self.server: Optional[QueryServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )

    @property
    def service(self) -> QueryService:
        if self.server is None:
            raise RuntimeError("server is not started")
        return self.server.service

    def start(self) -> Tuple[str, int]:
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if not self._ready.is_set():
                self._error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = QueryServer(
            self.engine, self.config, service_class=self.service_class
        )
        try:
            self.address = await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
