"""Tests for the query service layer (repro.service).

Covers the wire protocol, the serving cache (including the epoch guard
that makes stale results unreachable after index mutations), admission
control with load shedding and degradation, the coalescer's flush
policies, deadline handling (expired requests are skipped before any
engine work), coalesced-vs-serial bit-identity, and the TCP server end
to end via :class:`ServerThread` + :class:`ServiceClient`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro import ContextSearchEngine, Document, build_index
from repro.core.backend import VersionVector
from repro.core.report import CostCounter, ExecutionReport, ShardReport
from repro.errors import QueryError, ReproError
from repro.service import (
    AdmissionController,
    Coalescer,
    ProtocolError,
    QueryService,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    Ticket,
    decode_request,
    encode_response,
    percentile,
    run_load,
)
from repro.service.protocol import Request

from .conftest import HANDMADE_DOCS

EXTRA_DOCS = [
    Document(
        "X1",
        {
            "title": "pancreas pancreas pancreas imaging",
            "abstract": "pancreas imaging studies",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
    Document(
        "X2",
        {
            "title": "leukemia markers in digestion",
            "abstract": "leukemia and pancreas overlap",
            "mesh": "Diseases DigestiveSystem",
        },
    ),
]


@pytest.fixture()
def fresh_engine() -> ContextSearchEngine:
    """A mutable (non-session) engine for mutation tests."""
    return ContextSearchEngine(build_index(HANDMADE_DOCS))


def make_service(engine, **overrides) -> QueryService:
    config = ServiceConfig(**overrides)
    return QueryService(engine, config)


def run_async(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Protocol


class TestProtocol:
    def test_decode_minimal_query(self):
        req = decode_request(b'{"query": "pancreas | DigestiveSystem"}\n')
        assert req.op == "query"
        assert req.query == "pancreas | DigestiveSystem"
        assert req.mode == "context" and req.path == "auto"

    def test_decode_full_query(self):
        req = decode_request(
            b'{"op": "query", "query": "q | p", "top_k": 3, "mode": '
            b'"conventional", "path": "straightforward", "timeout_ms": 50, "id": 7}'
        )
        assert req.top_k == 3
        assert req.mode == "conventional"
        assert req.path == "straightforward"
        assert req.timeout_ms == 50
        assert req.id == 7

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b'{"op": "nope"}',
            b'{"op": "query"}',  # missing query
            b'{"query": 42}',
            b'{"query": "q | p", "mode": "bogus"}',
            b'{"query": "q | p", "path": "bogus"}',
            b'{"query": "q | p", "top_k": 0}',
            b'{"query": "q | p", "timeout_ms": -1}',
            b"[1, 2]",
        ],
    )
    def test_decode_rejects(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_decode_rejects_oversized_line(self):
        line = b'{"query": "' + b"x" * (1 << 21) + b'"}'
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_healthz_and_metrics_ops(self):
        assert decode_request(b'{"op": "healthz"}').op == "healthz"
        assert decode_request(b'{"op": "metrics"}').op == "metrics"

    def test_encode_response_is_one_json_line(self):
        encoded = encode_response({"status": "ok", "id": 3})
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1


# ---------------------------------------------------------------------------
# Report wire round-trip (satellite: to_dict/from_dict)


class TestReportRoundTrip:
    def test_flat_report_round_trip(self, handmade_engine):
        report = handmade_engine.search(
            "pancreas | DigestiveSystem", top_k=3
        ).report
        payload = report.to_dict()
        rebuilt = ExecutionReport.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert rebuilt.path == report.path
        assert rebuilt.context_size == report.context_size
        assert rebuilt.counter.entries_scanned == report.counter.entries_scanned
        assert rebuilt.predicted_cost == report.predicted_cost

    def test_round_trip_preserves_path(self, handmade_engine, handmade_index):
        report = handmade_engine.search(
            "pancreas | DigestiveSystem", top_k=3, path="straightforward"
        ).report
        rebuilt = ExecutionReport.from_dict(report.to_dict())
        assert rebuilt.resolution.path == "straightforward"

    def test_shard_report_round_trip(self):
        shard = ShardReport(
            shard_id=2,
            path="views",
            predicted_cost=42,
            result_size=7,
            counter=CostCounter(entries_scanned=13, segments_skipped=2),
        )
        rebuilt = ShardReport.from_dict(shard.to_dict())
        assert rebuilt.to_dict() == shard.to_dict()
        assert rebuilt.counter.entries_scanned == 13

    def test_payload_is_json_serialisable(self, handmade_engine):
        import json

        report = handmade_engine.search("pancreas | DigestiveSystem").report
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()


# ---------------------------------------------------------------------------
# Result cache


class TestResultCache:
    def test_hit_and_miss(self):
        cache = ResultCache(max_entries=4)
        key = ResultCache.key("pancreas | DigestiveSystem", "context", 5)
        assert cache.get(key, epoch=0) is None
        cache.put(key, 0, {"hits": []})
        assert cache.get(key, epoch=0) == {"hits": []}
        assert cache.metrics.hits == 1 and cache.metrics.misses == 1

    def test_key_canonicalises_predicate_order_not_keyword_order(self):
        a = ResultCache.key("pancreas leukemia | Neoplasms Diseases", "context", 5)
        b = ResultCache.key("pancreas leukemia | Diseases Neoplasms", "context", 5)
        c = ResultCache.key("leukemia pancreas | Diseases Neoplasms", "context", 5)
        assert a == b  # predicates are a set: order canonicalised
        assert a != c  # keyword order preserved (float summation order)

    def test_key_rejects_unparseable(self):
        with pytest.raises(QueryError):
            ResultCache.key("no separator here", "context", 5)

    def test_epoch_mismatch_drops_entry(self):
        cache = ResultCache()
        key = ResultCache.key("pancreas | Diseases", "context", 5)
        cache.put(key, 0, {"hits": ["old"]})
        assert cache.get(key, epoch=1) is None
        assert cache.metrics.stale_drops == 1
        assert len(cache) == 0  # reclaimed, not retained

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        k = [ResultCache.key(f"w{i} | Diseases", "context", 5) for i in range(3)]
        cache.put(k[0], 0, {"n": 0})
        cache.put(k[1], 0, {"n": 1})
        cache.get(k[0], 0)  # refresh k0 → k1 is now LRU
        cache.put(k[2], 0, {"n": 2})
        assert cache.get(k[0], 0) is not None
        assert cache.get(k[1], 0) is None
        assert cache.metrics.evictions == 1

    def test_invalidate_clears(self):
        cache = ResultCache()
        key = ResultCache.key("pancreas | Diseases", "context", 5)
        cache.put(key, 0, {})
        cache.invalidate()
        assert len(cache) == 0 and cache.metrics.invalidations == 1


# ---------------------------------------------------------------------------
# Admission control and tickets


class TestAdmission:
    def test_sheds_past_cap(self):
        ctrl = AdmissionController(max_pending=2)
        assert ctrl.try_admit() and ctrl.try_admit()
        assert not ctrl.try_admit()
        assert ctrl.shed == 1 and ctrl.admitted == 2
        ctrl.release()
        assert ctrl.try_admit()

    def test_degrade_threshold(self):
        ctrl = AdmissionController(max_pending=4, degrade_depth=2)
        assert not ctrl.degraded
        ctrl.try_admit()
        assert not ctrl.degraded
        ctrl.try_admit()
        assert ctrl.degraded

    def test_degrade_depth_defaults_to_half(self):
        assert AdmissionController(max_pending=10).degrade_depth == 5

    def test_ticket_deadline(self):
        req = Request(op="query", query="q | p")
        live = Ticket(req, deadline=time.monotonic() + 60)
        assert not live.skip and live.remaining() > 0
        expired = Ticket(req, deadline=time.monotonic() - 0.001)
        assert expired.expired and expired.skip

    def test_ticket_cancel(self):
        ticket = Ticket(Request(op="query", query="q | p"))
        assert not ticket.skip
        ticket.cancel()
        assert ticket.cancelled and ticket.skip


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile([], 95) == 0.0

    def test_snapshot_counts(self):
        from repro.service import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.observe_request()
        metrics.observe_ok(0.01, cached=True)
        metrics.observe_request()
        metrics.observe_shed()
        metrics.observe_batch(4, "size")
        metrics.observe_batch(1, "timer")
        metrics.observe_batch(1, "idle")
        metrics.observe_batch(2, "idle")
        snap = metrics.snapshot(extra={"queue_depth": 0})
        assert snap["requests"] == 2 and snap["ok"] == 1 and snap["shed"] == 1
        assert snap["cache_hits"] == 1
        assert snap["batches"]["count"] == 4
        assert snap["batches"]["size_flushes"] == 1
        assert snap["batches"]["timer_flushes"] == 1  # only timer expiries
        assert snap["batches"]["idle_flushes"] == 2
        assert snap["batches"]["coalesced_requests"] == 6
        assert snap["queue_depth"] == 0


# ---------------------------------------------------------------------------
# Coalescer


def executor_runner(execute):
    """``QueryService``'s runner shape: the blocking batch on a thread pool."""

    async def run(key, items):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, execute, key, items)

    return run


def coroutine_runner(execute):
    """The router's runner shape: the batch is answered on the event loop."""

    async def run(key, items):
        await asyncio.sleep(0)
        return execute(key, items)

    return run


RUNNERS = (executor_runner, coroutine_runner)


class TestCoalescer:
    """Every case runs under both runner shapes the servers use."""

    def test_flush_on_size(self):
        for runner in RUNNERS:
            batches = []

            def execute(key, items):
                batches.append(list(items))
                return [item * 10 for item in items]

            async def drive():
                coalescer = Coalescer(
                    runner(execute), max_batch=3, max_wait_ms=10_000
                )
                results = await asyncio.gather(
                    *(coalescer.submit("k", i) for i in (1, 2, 3))
                )
                await coalescer.drain()
                return results

            assert run_async(drive()) == [10, 20, 30]
            assert batches == [[1, 2, 3]]  # one batch, flushed by size

    def test_flush_on_timer(self):
        for runner in RUNNERS:
            batches, reasons = [], []

            def execute(key, items):
                batches.append(list(items))
                return list(items)

            async def drive():
                coalescer = Coalescer(
                    runner(execute),
                    max_batch=100,
                    max_wait_ms=50.0,
                    observe_batch=lambda size, reason: reasons.append(reason),
                )
                same_tick = await asyncio.gather(
                    coalescer.submit("k", "a"), coalescer.submit("k", "b")
                )
                # A busy key keeps batching: with "c" in flight, "d"
                # waits in its bucket for the timer.
                first = coalescer.submit("busy", "c")
                await asyncio.sleep(0)  # "c" flushes and is now in flight
                started = time.monotonic()
                second = await coalescer.submit("busy", "d")
                waited = time.monotonic() - started
                return same_tick, await first, second, waited

            same_tick, first, second, waited = run_async(drive())
            assert same_tick == ["a", "b"] and (first, second) == ("c", "d")
            # Same-tick submissions under max_batch share one batch.
            assert batches == [["a", "b"], ["c"], ["d"]]
            assert reasons == ["idle", "idle", "timer"]
            assert waited >= 0.045

    def test_lone_submit_flushes_idle(self):
        for runner in RUNNERS:
            reasons = []

            async def drive():
                coalescer = Coalescer(
                    runner(lambda key, items: list(items)),
                    max_batch=16,
                    max_wait_ms=10_000,
                    observe_batch=lambda size, reason: reasons.append(reason),
                )
                started = time.monotonic()
                result = await coalescer.submit("k", "alone")
                return result, time.monotonic() - started

            result, waited = run_async(drive())
            assert result == "alone"
            assert waited < 1.0  # nowhere near the 10 s timer
            assert reasons == ["idle"]

    def test_lone_submit_after_shared_batch_waits_for_timer(self):
        for runner in RUNNERS:
            batches, reasons = [], []

            def execute(key, items):
                batches.append(list(items))
                return list(items)

            async def drive():
                coalescer = Coalescer(
                    runner(execute),
                    max_batch=16,
                    max_wait_ms=50.0,
                    observe_batch=lambda size, reason: reasons.append(reason),
                )
                await asyncio.gather(
                    coalescer.submit("k", 1), coalescer.submit("k", 2)
                )
                # The last batch held two: expect company, wait the timer.
                started = time.monotonic()
                await coalescer.submit("k", 3)
                waited = time.monotonic() - started
                # That batch held one: the next lone submit goes at once.
                await coalescer.submit("k", 4)
                return waited

            waited = run_async(drive())
            assert batches == [[1, 2], [3], [4]]
            assert reasons == ["idle", "timer", "idle"]
            assert waited >= 0.045

    def test_distinct_keys_do_not_coalesce(self):
        for runner in RUNNERS:
            batches = []

            def execute(key, items):
                batches.append((key, list(items)))
                return list(items)

            async def drive():
                coalescer = Coalescer(
                    runner(execute), max_batch=10, max_wait_ms=2.0
                )
                await asyncio.gather(
                    coalescer.submit("k1", 1), coalescer.submit("k2", 2)
                )
                await coalescer.drain()

            run_async(drive())
            assert sorted(batches) == [("k1", [1]), ("k2", [2])]

    def test_executor_failure_fans_out(self):
        def execute(key, items):
            raise RuntimeError("boom")

        for runner in RUNNERS:

            async def drive():
                coalescer = Coalescer(
                    runner(execute), max_batch=2, max_wait_ms=1.0
                )
                results = await asyncio.gather(
                    coalescer.submit("k", 1),
                    coalescer.submit("k", 2),
                    return_exceptions=True,
                )
                await coalescer.drain()
                return results

            results = run_async(drive())
            assert len(results) == 2
            assert all(isinstance(r, RuntimeError) for r in results)

    def test_wrong_result_count_is_an_error(self):
        def execute(key, items):
            return [1]  # always one result, whatever was asked

        for runner in RUNNERS:

            async def drive():
                coalescer = Coalescer(
                    runner(execute), max_batch=2, max_wait_ms=1.0
                )
                results = await asyncio.gather(
                    coalescer.submit("k", 1),
                    coalescer.submit("k", 2),
                    return_exceptions=True,
                )
                await coalescer.drain()
                return results

            results = run_async(drive())
            assert len(results) == 2
            assert all(isinstance(r, RuntimeError) for r in results)

    def test_max_batch_one_dispatches_immediately(self):
        for runner in RUNNERS:
            batches = []

            def execute(key, items):
                batches.append(list(items))
                return list(items)

            async def drive():
                coalescer = Coalescer(
                    runner(execute), max_batch=1, max_wait_ms=10_000
                )
                await coalescer.submit("k", "only")
                await coalescer.drain()

            run_async(drive())
            assert batches == [["only"]]


# ---------------------------------------------------------------------------
# QueryService (transport-free)


def query_request(text, top_k=5, **kwargs) -> Request:
    return Request(op="query", query=text, top_k=top_k, **kwargs)


def served_hits(response):
    return [(hit["doc"], hit["score"]) for hit in response["hits"]]


def engine_hits(engine, query, top_k=5):
    results = engine.search(query, top_k=top_k)
    return [(hit.external_id, hit.score) for hit in results.hits]


class SingleNodeFrontEnd:
    """The single-node tier of :class:`FrontEndCases`: a fresh
    :class:`QueryService` per case, each request on a fresh loop."""

    def __init__(self, engine):
        self.engine = engine

    @contextlib.contextmanager
    def serving(self, **overrides):
        service = make_service(self.engine, **overrides)
        try:
            yield service
        finally:
            service.close()

    @staticmethod
    def run(coro):
        return run_async(coro)


class FrontEndCases:
    """Request-lifecycle cases every front end passes with the single-node
    engine's answers.  The ``front_end`` fixture picks the tier: the
    single-node service in :class:`TestQueryService`, the cluster router
    in ``tests/test_cluster.py``."""

    def test_engine_error_becomes_error_response(
        self, front_end, handmade_engine
    ):
        with front_end.serving() as service:
            response = front_end.run(
                service.handle_request(query_request("pancreas | NoSuchTag"))
            )
        with pytest.raises(ReproError) as raised:
            handmade_engine.search("pancreas | NoSuchTag")
        assert response["status"] == "error"
        assert response["error"] == (
            f"{type(raised.value).__name__}: {raised.value}"
        )

    def test_cache_hit_on_repeat(self, front_end, handmade_engine):
        with front_end.serving() as service:
            first = front_end.run(
                service.handle_request(query_request("pancreas | DigestiveSystem"))
            )
            second = front_end.run(
                service.handle_request(query_request("pancreas | DigestiveSystem"))
            )
        assert "cached" not in first
        assert second["cached"] is True
        assert second["hits"] == first["hits"]
        assert served_hits(first) == engine_hits(
            handmade_engine, "pancreas | DigestiveSystem"
        )
        assert service.result_cache.metrics.hits == 1

    def test_shed_when_queue_full(self, front_end):
        with front_end.serving(max_pending=1) as service:
            assert service.admission.try_admit()  # occupy the only slot
            try:
                response = front_end.run(
                    service.handle_request(query_request("pancreas | Diseases"))
                )
            finally:
                service.admission.release()
        assert response["status"] == "shed"
        assert "overloaded" in response["error"]
        assert service.metrics.shed == 1

    def test_degrades_to_forced_path_when_deep(
        self, front_end, handmade_engine
    ):
        with front_end.serving(
            max_pending=8, degrade_depth=1, cache_enabled=False
        ) as service:
            # Any admitted request now sees depth >= degrade_depth.
            response = front_end.run(
                service.handle_request(query_request("pancreas | DigestiveSystem"))
            )
        assert response["status"] == "ok"
        assert response["degraded"] is True
        # "straightforward" here, "sharded-straightforward" at the router.
        assert response["report"]["resolution"]["path"].endswith(
            "straightforward"
        )
        # Degradation must not change the answer.
        assert served_hits(response) == engine_hits(
            handmade_engine, "pancreas | DigestiveSystem"
        )


class TestQueryService(FrontEndCases):
    @pytest.fixture()
    def front_end(self, handmade_engine):
        return SingleNodeFrontEnd(handmade_engine)

    def test_ok_response_shape(self, handmade_engine):
        service = make_service(handmade_engine)
        try:
            response = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem", top_k=2)
                )
            )
        finally:
            service.close()
        assert response["status"] == "ok"
        assert [hit["doc"] for hit in response["hits"]] == ["C1", "C4"]
        assert response["mode"] == "context"
        assert "elapsed_ms" in response

    def test_engine_exception_is_answered(self):
        """A non-ReproError from the engine still gets a reply carrying
        the request id, and counts as an error."""

        class BrokenEngine:
            version = VersionVector()

            def search_many(self, queries, **kwargs):
                raise RuntimeError("engine bug")

        service = make_service(BrokenEngine(), cache_enabled=False)
        try:
            line = run_async(
                service.handle_line(b'{"op":"query","id":1,"query":"a b"}\n')
            )
        finally:
            service.close()
        response = json.loads(line)
        assert response["status"] == "error"
        assert response["id"] == 1
        assert response["error"] == "RuntimeError: engine bug"
        assert service.metrics.errors == 1

    def test_cache_respects_predicate_canonicalisation(self, handmade_engine):
        service = make_service(handmade_engine)
        try:
            run_async(
                service.handle_request(
                    query_request("pancreas | Diseases DigestiveSystem")
                )
            )
            second = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem Diseases")
                )
            )
        finally:
            service.close()
        assert second["cached"] is True

    def test_coalesced_matches_serial(self, handmade_engine):
        """Bit-identity: one coalesced batch == per-query serial answers."""
        queries = [
            "pancreas | DigestiveSystem",
            "leukemia | DigestiveSystem",
            "pancreas leukemia | DigestiveSystem",
            "leukemia | Neoplasms",
        ]
        service = make_service(
            handmade_engine, max_batch=len(queries), max_wait_ms=50.0,
            cache_enabled=False,
        )
        async def drive():
            return await asyncio.gather(
                *(
                    service.handle_request(query_request(q, top_k=4))
                    for q in queries
                )
            )

        try:
            responses = run_async(drive())
        finally:
            service.close()
        assert service.metrics.batches >= 1
        assert service.metrics.coalesced >= 2  # something actually batched
        for query, response in zip(queries, responses):
            serial = handmade_engine.search(query, top_k=4)
            assert response["status"] == "ok"
            assert [hit["doc"] for hit in response["hits"]] == serial.external_ids()
            assert [hit["score"] for hit in response["hits"]] == [
                hit.score for hit in serial.hits
            ]

    def test_concurrent_callers_batch_while_busy(self, handmade_engine):
        """Eight closed-loop callers keep filling batches under the idle
        flush: a cohort that filled its last batch keeps filling it."""
        queries = [
            "pancreas | DigestiveSystem",
            "leukemia | DigestiveSystem",
            "pancreas leukemia | DigestiveSystem",
            "leukemia | Neoplasms",
        ]
        callers, rounds = 8, 6
        service = make_service(
            handmade_engine, max_batch=8, max_wait_ms=20.0, cache_enabled=False
        )
        original = service._execute_batch

        def slowed(key, tickets):
            time.sleep(0.003)
            return original(key, tickets)

        service._execute_batch = slowed

        async def caller(c):
            out = []
            for r in range(rounds):
                query = queries[(c + r) % len(queries)]
                # Callers' requests arrive spread over a few ms, as
                # over sockets, never all in one loop tick.
                await asyncio.sleep(0.0005 * c)
                response = await service.handle_request(
                    query_request(query, top_k=4)
                )
                out.append((query, response))
            return out

        async def drive():
            return await asyncio.gather(*(caller(c) for c in range(callers)))

        try:
            served = [pair for out in run_async(drive()) for pair in out]
        finally:
            service.close()
        # ``coalesced`` counts the requests served in batches of two or more.
        assert service.metrics.coalesced >= 0.75 * callers * rounds
        # Flushing whenever the key is idle would send each cohort's first
        # caller out alone (mean batch ~4 here); the last-flush size
        # keeps the cohort together.
        assert service.metrics.snapshot()["batches"]["mean_size"] >= 6.0
        for query, response in served:
            serial = handmade_engine.search(query, top_k=4)
            assert response["status"] == "ok"
            assert [hit["doc"] for hit in response["hits"]] == serial.external_ids()
            assert [hit["score"] for hit in response["hits"]] == [
                hit.score for hit in serial.hits
            ]

    def test_deadline_expired_skipped_before_execution(self, handmade_engine):
        """A request whose deadline passes while queued never reaches the engine."""
        service = make_service(handmade_engine, max_batch=64, max_wait_ms=200.0)
        executed = []
        release = threading.Event()
        original = service._execute_batch

        def recording(key, tickets):
            release.wait(timeout=10)  # hold the first batch in flight
            executed.extend(
                t.request.query for t in tickets if not t.skip
            )
            return original(key, tickets)

        service._execute_batch = recording

        async def drive():
            first = asyncio.ensure_future(
                service.handle_request(query_request("leukemia | Neoplasms"))
            )
            await asyncio.sleep(0.05)  # the lone first request is in flight
            # The key is busy, so this request waits in the 200ms bucket
            # and its 5ms deadline expires there.
            response = await service.handle_request(
                query_request("pancreas | DigestiveSystem", timeout_ms=5)
            )
            release.set()
            first_response = await first
            await service.coalescer.drain()
            return response, first_response

        try:
            response, first_response = run_async(drive())
        finally:
            release.set()
            service.close()
        assert first_response["status"] == "ok"
        assert response["status"] == "timeout"
        assert "deadline" in response["error"]
        # Skipped before execution: the engine only saw the first query.
        assert executed == ["leukemia | Neoplasms"]
        assert service.metrics.timeouts == 1

    def test_healthz(self, handmade_engine):
        service = make_service(handmade_engine)
        try:
            health = run_async(service.handle_request(Request(op="healthz")))
        finally:
            service.close()
        assert health["status"] == "ok"
        assert health["engine"] == "flat"
        assert health["num_docs"] == len(HANDMADE_DOCS)
        assert health["epoch"] == 0

    def test_metrics_op(self, handmade_engine):
        service = make_service(handmade_engine)
        try:
            run_async(
                service.handle_request(query_request("pancreas | Diseases"))
            )
            snap = run_async(service.handle_request(Request(op="metrics")))
        finally:
            service.close()
        assert snap["status"] == "ok"
        assert snap["requests"] == 1 and snap["ok"] == 1
        assert snap["cache"]["entries"] == 1
        assert snap["latency_ms"]["count"] == 1

    def test_mutation_invalidates_served_results(self, fresh_engine):
        """Satellite regression: mutate-then-requery can never serve stale."""
        service = make_service(fresh_engine)
        try:
            before = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem", top_k=6)
                )
            )
            cached = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem", top_k=6)
                )
            )
            assert cached["cached"] is True

            fresh_engine.index.append_documents(EXTRA_DOCS)
            assert service.epoch == 1

            after = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem", top_k=6)
                )
            )
        finally:
            service.close()
        assert "cached" not in after  # the epoch guard dropped the entry
        assert service.result_cache.metrics.stale_drops == 1
        docs = [hit["doc"] for hit in after["hits"]]
        assert "X1" in docs  # the new document is ranked
        assert after["report"]["context_size"] == before["report"]["context_size"] + 2
        # And it matches a from-scratch engine over the same collection.
        fresh = ContextSearchEngine(build_index(HANDMADE_DOCS + EXTRA_DOCS))
        assert docs == fresh.search(
            "pancreas | DigestiveSystem", top_k=6
        ).external_ids()

    def test_disjunctive_and_conventional_modes(self, handmade_engine):
        service = make_service(handmade_engine)
        try:
            conv = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem", mode="conventional")
                )
            )
            disj = run_async(
                service.handle_request(
                    query_request("pancreas | DigestiveSystem", mode="disjunctive")
                )
            )
        finally:
            service.close()
        assert conv["status"] == "ok" and disj["status"] == "ok"
        assert conv["mode"] == "conventional"
        assert disj["mode"] == "disjunctive"


class TestShardedService:
    def test_sharded_engine_served(self, corpus, corpus_index, corpus_engine):
        from repro.core.sharded_engine import ShardedEngine
        from repro.data.workloads import generate_performance_workload
        from repro.index.sharded import ShardedInvertedIndex

        workload = generate_performance_workload(
            corpus,
            corpus_index,
            t_c=max(corpus_index.num_docs // 50, 10),
            kind="large",
            keyword_counts=(2,),
            queries_per_count=2,
            seed=5,
        )
        queries = [str(wq.query) for wq in workload.all_queries()][:2]
        assert queries
        sharded = ShardedInvertedIndex.from_index(
            corpus_index, 3, partitioner="hash"
        )
        with ShardedEngine(sharded) as engine:
            service = make_service(engine)
            try:
                responses = [
                    run_async(
                        service.handle_request(query_request(q, top_k=10))
                    )
                    for q in queries
                ]
                health = run_async(service.handle_request(Request(op="healthz")))
            finally:
                service.close()
        assert health["engine"] == "sharded"
        for query, response in zip(queries, responses):
            assert response["status"] == "ok"
            serial = corpus_engine.search(query, top_k=10)
            assert [h["doc"] for h in response["hits"]] == serial.external_ids()


# ---------------------------------------------------------------------------
# TCP server end to end


class TestServerEndToEnd:
    def test_query_healthz_metrics_over_socket(self, handmade_engine):
        with ServerThread(handmade_engine, ServiceConfig(max_wait_ms=1.0)) as st:
            host, port = st.address
            with ServiceClient(host, port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["num_docs"] == len(HANDMADE_DOCS)

                response = client.query("pancreas | DigestiveSystem", top_k=2)
                assert response["status"] == "ok"
                assert [h["doc"] for h in response["hits"]] == ["C1", "C4"]

                bad = client.query("no separator")
                assert bad["status"] == "error"

                malformed = client.request({"op": "query"})
                assert malformed["status"] == "error"

                snap = client.metrics()
                assert snap["requests"] >= 2

    def test_request_ids_round_trip(self, handmade_engine):
        with ServerThread(handmade_engine) as st:
            host, port = st.address
            with ServiceClient(host, port) as client:
                response = client.query("pancreas | Diseases", id=41)
                assert response["id"] == 41

    def test_concurrent_clients_coalesce_and_match_serial(self, handmade_engine):
        queries = [
            "pancreas | DigestiveSystem",
            "leukemia | DigestiveSystem",
            "leukemia | Neoplasms",
            "pancreas leukemia | DigestiveSystem",
        ] * 3
        config = ServiceConfig(max_wait_ms=20.0, max_batch=12, cache_enabled=False)
        with ServerThread(handmade_engine, config) as st:
            report = run_load(
                st.address, queries, threads=4, top_k=4, keep_responses=True
            )
            assert report.ok == len(queries) and report.errors == 0
            coalesced = st.service.metrics.coalesced
        assert coalesced >= 2  # concurrent requests shared batches
        for i, query in enumerate(queries):
            serial = handmade_engine.search(query, top_k=4)
            got = [h["doc"] for h in report.responses[i]["hits"]]
            assert got == serial.external_ids()

    def test_lone_caller_never_waits_for_timer(self, handmade_engine):
        config = ServiceConfig(max_wait_ms=50.0, cache_enabled=False)
        with ServerThread(handmade_engine, config) as st:
            with ServiceClient(*st.address) as client:
                for _ in range(50):
                    response = client.query("pancreas | DigestiveSystem")
                    assert response["status"] == "ok"
                batches = client.metrics()["batches"]
        assert batches["count"] == 50
        assert batches["timer_flushes"] == 0
        assert batches["idle_flushes"] == 50

    def test_graceful_shutdown_under_traffic(self, handmade_engine):
        st = ServerThread(handmade_engine, ServiceConfig(max_wait_ms=5.0))
        host, port = st.start()

        stop_flag = threading.Event()
        errors = []

        def chatter():
            try:
                with ServiceClient(host, port) as client:
                    while not stop_flag.is_set():
                        client.query("pancreas | DigestiveSystem", top_k=3)
            except (ConnectionError, OSError, ValueError):
                pass  # the server went away mid-request: expected at shutdown
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=chatter, daemon=True)
        thread.start()
        time.sleep(0.2)
        stop_flag.set()
        st.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == []
        # The port is released: a fresh connect must fail.
        import socket

        with pytest.raises(OSError):
            probe = socket.create_connection((host, port), timeout=0.5)
            probe.close()

    def test_start_error_is_raised_in_caller(self, handmade_engine):
        import socket

        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        try:
            st = ServerThread(
                handmade_engine, ServiceConfig(host="127.0.0.1", port=port)
            )
            with pytest.raises(OSError):
                st.start()
        finally:
            holder.close()
