"""The workloads: what each runs, how a pass is timed and checked.

Every workload is a closed loop.  A pass sends a fixed request list once;
the caller repeats passes and takes the median of each per-pass metric.
Replies are compared with the reference after the pass's clock has
stopped; a reply that differs counts as failed, it does not stop the run.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import ContextSearchEngine, InvertedIndex, load_sharded_index
from repro.core.ranking import DEFAULT_RANKING_FUNCTION
from repro.core.sharded_engine import ShardRuntime
from repro.errors import ReproError
from repro.lifecycle import LifecycleEngine, SegmentedIndex
from repro.service import QueryService, ServiceConfig
from repro.service.protocol import decode_request, encode_response
from repro.views import replicate_catalog

import loadgen
import staged
from fixtures import DELETES_PER_CALL, QUERIES_PER_BATCH, Fixtures
from measure import Span, Tracer, percentile, self_ms_by_name
from pools import (
    DISJUNCTIVE_TOP_K,
    MODE_CONTEXT,
    MODE_DISJUNCTIVE,
    Outcome,
    Request,
    error_outcome,
    outcome_of,
    ranking_outcome,
    reference_outcome,
)

SERVED_TOP_K = 10


class Pass(NamedTuple):
    """One untraced pass: a latency per timed request, the wall time of
    the whole pass, and how many replies were right."""

    latencies_ms: List[float]
    wall_s: float
    ok: int  # right replies among the timed requests
    attempted: int  # every reply that was checked, timed or not
    failed: int

    def metrics(self) -> Dict[str, float]:
        return {
            "latency_p50_ms": percentile(self.latencies_ms, 50),
            "latency_p95_ms": percentile(self.latencies_ms, 95),
            "throughput_qps": self.ok / self.wall_s,
        }


# -- reference ---------------------------------------------------------------


def engine_call(engine, request: Request, top_k: Optional[int]):
    if request.mode == MODE_DISJUNCTIVE:
        return engine.search_disjunctive(request.text, top_k=DISJUNCTIVE_TOP_K)
    return engine.search(request.text, top_k=top_k)


def agrees(expected: Outcome, got: Outcome, top_k: Optional[int]) -> bool:
    status, body = expected
    if status == "ok" and top_k is not None:
        body = body[:top_k]
    return got == (status, body)


def served_outcome(reply: Optional[bytes]) -> Outcome:
    """A wire reply as an outcome (a dead connection is a failure)."""
    if reply is None:
        return "closed", "connection failed"
    payload = json.loads(reply)
    if payload.get("status") == "ok":
        return "ok", [(hit["doc"], hit["score"]) for hit in payload["hits"]]
    return payload.get("status"), payload.get("error")


def query_lines(requests: Sequence[Request]) -> List[bytes]:
    return [
        loadgen.encode_line(
            {"op": "query", "query": request.text, "mode": request.mode,
             "top_k": SERVED_TOP_K, "id": position}
        )
        for position, request in enumerate(requests)
    ]


# -- trace helpers -------------------------------------------------------------


def stage_means_ms(spans: Sequence[Span], queries: int) -> Dict[str, float]:
    """``<span name>_ms``: mean self time per query of every stage, the
    staged root's as ``unattributed_ms``.  Means, not medians: a stage
    that runs for a share of the queries (top-k in a mixed stream) must
    keep its share, and the stages must add up to the root's mean."""
    return {
        "unattributed_ms" if name == staged.ROOT else name + "_ms": (
            sum(per_query.values()) / queries
        )
        for name, per_query in self_ms_by_name(spans).items()
    }


class TraceResult(NamedTuple):
    """What one pass of ``trace_pass`` measured."""

    layer: Dict[str, float]  # per-layer metric -> value
    latencies_ms: List[float]  # the end-to-end latency per answered request
    attempted: int
    failed: int


def staged_layer_metrics(
    spans: Sequence[Span], counts: Sequence[Dict[str, float]]
) -> Dict[str, float]:
    """Per-layer metrics of a pass of staged executions."""
    queries = len(counts)
    if not queries:
        return {}
    layer = stage_means_ms(spans, queries)

    def total(key):
        return sum(c.get(key, 0.0) for c in counts)

    layer["views.hit_rate"] = total("views.hit") / queries
    for key in (
        "views.tuples_scanned",
        "index.intersection.entries_scanned",
        "index.intersection.segments_skipped",
        "core.scoring.candidates",
        "core.topk.candidates_scored",
    ):
        layer[key] = total(key) / queries
    blocks = total("core.topk.blocks_considered") + total(
        "core.topk.blocks_skipped"
    )
    layer["core.topk.blocks_skipped_share"] = (
        total("core.topk.blocks_skipped") / blocks if blocks else 0.0
    )
    return layer


# -- workloads -----------------------------------------------------------------


class Workload:
    """Base: a fixed request list sent once per pass."""

    name = ""
    clients = 1
    stages: Tuple[str, ...] = ()  # fixture parts counted in setup_s
    top_k: Optional[int] = None
    warm_up = True  # one unmeasured pass before the timed ones

    def __init__(self, fx: Fixtures):
        self.fx = fx
        self.requests: List[Request] = []
        self.reference: Dict[Request, Outcome] = {}

    def build(self) -> None:
        """Build every system part this workload runs against."""

    def prepare(self) -> None:
        """Draw the requests and compute their reference outcomes."""
        self.requests = self.draw_requests()
        self.reference = self.fx.pools.reference(self.requests)

    def draw_requests(self) -> List[Request]:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def trace_pass(self, tracer: Tracer) -> TraceResult:
        """One pass with a span around every layer call (and the same
        calls with no span when the tracer does not record)."""
        raise NotImplementedError

    def count_failures(self, outcomes: Sequence[Outcome]) -> int:
        """Requests whose outcome differs from the reference; a request
        with no outcome (the connection died before it) has failed."""
        return len(self.requests) - sum(
            agrees(self.reference[request], outcome, self.top_k)
            for request, outcome in zip(self.requests, outcomes)
        )

    def close(self) -> None:
        """Release what ``trace_pass`` opened."""


class FlatWorkload(Workload):
    """One thread calling the flat engine in-process."""

    mode = MODE_CONTEXT

    def engine(self) -> ContextSearchEngine:
        return self.fx.engine

    def build(self) -> None:
        self.engine()

    def draw_requests(self):
        return self.fx.pools.large_requests(
            self.fx.scale.requests, self.fx.rng(self.name), self.mode
        )

    def run_pass(self) -> Pass:
        engine, top_k = self.engine(), self.top_k
        latencies, raw = [], []
        started = time.perf_counter()
        for request in self.requests:
            t0 = time.perf_counter()
            try:
                result = engine_call(engine, request, top_k)
            except ReproError as exc:
                result = exc
            latencies.append((time.perf_counter() - t0) * 1000.0)
            raw.append(result)
        wall_s = time.perf_counter() - started
        failed = self.count_failures(
            [
                error_outcome(r) if isinstance(r, ReproError)
                else ranking_outcome(r)
                for r in raw
            ]
        )
        return Pass(latencies, wall_s, len(raw) - failed, len(raw), failed)

    def trace_pass(self, tracer: Tracer) -> TraceResult:
        stages = staged.FlatStages(self.engine())
        first = len(tracer.spans)
        outcomes, counts, latencies = zip(
            *(
                staged.attempt(stages, tracer, qid, request, self.top_k)
                for qid, request in enumerate(self.requests)
            )
        )
        return TraceResult(
            staged_layer_metrics(tracer.spans[first:], counts),
            list(latencies),
            len(outcomes),
            self.count_failures(outcomes),
        )


class ViewsLarge(FlatWorkload):
    name = "views_large"
    stages = ("data.corpus.generate_s", "index.build_s", "selection.reselect_s")


class StraightHeavy(FlatWorkload):
    name = "straight_heavy"
    stages = ("data.corpus.generate_s", "index.build_s")

    def __init__(self, fx: Fixtures):
        super().__init__(fx)
        self._engine = None

    def engine(self):
        # Its own catalog-free engine; the reference engine is only
        # ever used to produce expected rankings.
        if self._engine is None:
            self._engine = ContextSearchEngine(self.fx.index)
        return self._engine

    def draw_requests(self):
        return self.fx.pools.heavy_requests(
            self.fx.scale.requests, self.fx.rng(self.name)
        )


class DisjTopK(FlatWorkload):
    name = "disj_topk"
    stages = ViewsLarge.stages
    mode = MODE_DISJUNCTIVE


def spanned(tracer: Tracer, name: str, qid: int, call):
    """``call()`` inside a span; returns its result and its milliseconds
    (read from the caller's own clock, so they exist without a span)."""
    tracer.begin(name, qid)
    t0 = time.perf_counter()
    result = call()
    ms = (time.perf_counter() - t0) * 1000.0
    tracer.end()
    return result, ms


def staged_spans(spans: Sequence[Span]) -> List[Span]:
    """The spans of staged executions: a root and everything under one."""
    roots = {s.id for s in spans if s.name == staged.ROOT}
    return [s for s in spans if s.id in roots or s.parent in roots]


class ServeWorkload(Workload):
    """One socket client against a serving endpoint; both serving workloads
    send the same mixed stream so their ratio means something."""

    top_k = SERVED_TOP_K

    def address(self):
        raise NotImplementedError

    def build(self) -> None:
        self.address()

    def draw_requests(self):
        return self.fx.pools.mixed_requests(
            self.fx.scale.requests, self.fx.rng("serve")
        )

    def prepare(self) -> None:
        super().prepare()
        self.lines = query_lines(self.requests)

    def run_pass(self) -> Pass:
        result = loadgen.run_pass(self.address(), self.lines)
        failed = self.count_failures(
            [served_outcome(reply) for reply in result.replies]
        )
        attempted = len(self.lines)
        return Pass(
            result.latencies_ms, result.wall_s, attempted - failed,
            attempted, failed,
        )

    def server_metrics(self) -> dict:
        with loadgen.Connection(self.address()) as connection:
            return connection.request({"op": "metrics"})

    def trace_pass(self, tracer: Tracer) -> TraceResult:
        """Each request over the socket and then, in-process, through
        ``after_reply``; stops at the first request that gets no reply
        (the rest count as failed)."""
        first = len(tracer.spans)
        rtt, outcomes = [], []
        self.begin_trace()
        try:
            with loadgen.Connection(self.address()) as connection:
                for qid, line in enumerate(self.lines):
                    reply, ms = spanned(
                        tracer, "client.roundtrip", qid,
                        lambda: connection.roundtrip(line),
                    )
                    if not reply:
                        break
                    rtt.append(ms)
                    outcomes.append(served_outcome(reply))
                    self.after_reply(tracer, qid, line, reply)
        except OSError:
            pass
        finally:
            self.end_trace()
        failed = self.count_failures(outcomes)
        layer = self.layer_metrics(tracer.spans[first:], rtt) if rtt else {}
        return TraceResult(layer, rtt, len(self.lines), failed)

    def begin_trace(self) -> None:
        pass

    def after_reply(self, tracer, qid, line, reply) -> None:
        raise NotImplementedError

    def end_trace(self) -> None:
        pass

    def layer_metrics(self, spans, rtt) -> Dict[str, float]:
        raise NotImplementedError


class ServeSingle(ServeWorkload):
    """Traced, each request goes four ways: the socket round trip, the
    same line through an in-process ``QueryService.handle_line`` (no
    socket), the direct engine call, and the staged pipeline."""

    name = "serve_single"
    stages = ViewsLarge.stages + ("service.server.start_s",)

    def address(self):
        return self.fx.server.address

    def begin_trace(self) -> None:
        self._stages = staged.FlatStages(self.fx.engine)
        self._service = QueryService(
            self.fx.engine, ServiceConfig(cache_enabled=False)
        )
        self._loop = asyncio.new_event_loop()
        self._handle, self._direct, self._counts = [], [], []
        self._decode_us, self._encode_us, self._sizes = [], [], []

    def after_reply(self, tracer, qid, line, reply) -> None:
        engine, request = self.fx.engine, self.requests[qid]
        self._handle.append(
            spanned(
                tracer, "service.server.handle_line", qid,
                lambda: self._loop.run_until_complete(
                    self._service.handle_line(line)
                ),
            )[1]
        )
        self._direct.append(
            spanned(
                tracer, "engine.direct", qid,
                lambda: outcome_of(
                    lambda: engine_call(engine, request, SERVED_TOP_K)
                ),
            )[1]
        )
        t0 = time.perf_counter_ns()
        decode_request(line)
        t1 = time.perf_counter_ns()
        payload = json.loads(reply)
        t2 = time.perf_counter_ns()
        encode_response(payload)
        t3 = time.perf_counter_ns()
        self._decode_us.append((t1 - t0) / 1e3)
        self._encode_us.append((t3 - t2) / 1e3)
        self._sizes.append(len(reply))
        self._counts.append(
            staged.attempt(self._stages, tracer, qid, request, SERVED_TOP_K)[1]
        )

    def end_trace(self) -> None:
        self._loop.run_until_complete(self._service.drain())
        self._loop.close()
        self._service.close()

    def layer_metrics(self, spans, rtt) -> Dict[str, float]:
        batches = self.server_metrics()["batches"]
        handle, direct = self._handle, self._direct
        layer = staged_layer_metrics(staged_spans(spans), self._counts)
        layer.update(
            {
                "service.protocol.decode_us": statistics.median(
                    self._decode_us
                ),
                "service.protocol.encode_us": statistics.median(
                    self._encode_us
                ),
                "service.protocol.response_bytes": statistics.fmean(
                    self._sizes
                ),
                "service.server.handle_ms": statistics.median(handle),
                "service.server.overhead_ms": statistics.median(
                    [h - d for h, d in zip(handle, direct)]
                ),
                "service.server.wire_ms": statistics.median(
                    [r - h for r, h in zip(rtt, handle)]
                ),
                "service.server.batch_mean_size": batches["mean_size"],
                "service.server.timer_flush_share": (
                    batches["timer_flushes"] / batches["count"]
                    if batches["count"] else 0.0
                ),
            }
        )
        return layer


class ServeCluster2(ServeWorkload):
    """Traced, each request goes through the router and then through the
    same two-phase execution in-process; router counters are read from
    its ``metrics`` op before and after."""

    name = "serve_cluster2"
    stages = ViewsLarge.stages + ("storage.save_shards_s", "cluster.spawn_s")

    def __init__(self, fx: Fixtures):
        super().__init__(fx)
        self._sharded_index = None
        self._sharded_stages = None

    def address(self):
        return self.fx.cluster.router.address

    def sharded_stages(self) -> staged.ShardedStages:
        """The workers' partitions loaded in-process, with the same
        views re-materialised per shard."""
        if self._sharded_stages is None:
            sharded_index = load_sharded_index(self.fx.shard_manifest)
            catalogs = replicate_catalog(sharded_index, self.fx.catalog)
            runtimes = [
                ShardRuntime(shard, DEFAULT_RANKING_FUNCTION, catalogs[i])
                for i, shard in enumerate(sharded_index.shards)
            ]
            self._sharded_index = sharded_index
            self._sharded_stages = staged.ShardedStages(
                sharded_index, runtimes, DEFAULT_RANKING_FUNCTION
            )
        return self._sharded_stages

    def close(self) -> None:
        if self._sharded_index is not None:
            self._sharded_index.close()

    def begin_trace(self) -> None:
        self.sharded_stages()
        self._before = self.server_metrics()["router"]["per_shard"]
        self._staged_outcomes = []

    def after_reply(self, tracer, qid, line, reply) -> None:
        self._staged_outcomes.append(
            staged.attempt(
                self._sharded_stages, tracer, qid, self.requests[qid],
                SERVED_TOP_K,
            )[0]
        )

    def trace_pass(self, tracer: Tracer) -> TraceResult:
        result = super().trace_pass(tracer)
        # The in-process rankings are checked like the served ones.
        staged_failed = len(self._staged_outcomes) - sum(
            agrees(self.reference[request], outcome, SERVED_TOP_K)
            for request, outcome in zip(self.requests, self._staged_outcomes)
        )
        return result._replace(
            attempted=result.attempted + len(self._staged_outcomes),
            failed=result.failed + staged_failed,
        )

    def layer_metrics(self, spans, rtt) -> Dict[str, float]:
        before = self._before
        after = self.server_metrics()["router"]["per_shard"]
        queries = len(rtt)
        spans = staged_spans(spans)
        layer = stage_means_ms(spans, queries)

        # Each phase waits for its slower shard.
        slowest: Dict[Tuple[int, str], float] = {}
        for span in spans:
            if span.name in (staged.SHARD_RESOLVE, staged.SHARD_SCORE):
                key = (span.query_id, span.name)
                slowest[key] = max(
                    slowest.get(key, 0.0), span.duration_ns / 1e6
                )
        compute_ms = sum(slowest.values()) / queries
        attempts = sum(
            after[shard]["attempts"] - before[shard]["attempts"]
            for shard in after
        )
        phases = attempts / len(after) / queries
        rtt_mean = max(after[shard]["latency_ms"]["mean"] for shard in after)
        layer.update(
            {
                "service.cluster.router.attempts_per_query": attempts / queries,
                "service.cluster.router.shard_rtt_mean_ms": rtt_mean,
                "service.cluster.router.shard_rtt_p95_ms": max(
                    after[shard]["latency_ms"]["p95"] for shard in after
                ),
                "service.cluster.router.self_ms": (
                    statistics.fmean(rtt) - phases * rtt_mean
                ),
                "service.cluster.worker.service_ms": compute_ms,
                "service.cluster.worker.wire_ms": (
                    phases * rtt_mean - compute_ms
                ),
            }
        )
        return layer


class IngestQuery(Workload):
    name = "ingest_query"
    stages = ("data.corpus.generate_s", "lifecycle.preload_s")
    # Every pass opens a fresh copy of the preloaded directory, so a pass
    # has nothing of the previous one to be warm from.
    warm_up = False

    def build(self) -> None:
        self.fx.preloaded_dir

    def prepare(self) -> None:
        """Lay the pass out as a fixed script of steps, and build the
        from-scratch index of the documents alive at its end."""
        fx, scale = self.fx, self.fx.scale
        rng = fx.rng(self.name)
        documents = fx.ingest_order
        arrived = [d.doc_id for d in documents[: fx.preload_count]]
        deleted = set()
        queries = fx.pools.large_requests(scale.requests, fx.rng("ingest-q"))
        cursor = 0

        def next_queries(count):
            nonlocal cursor
            picked = [
                queries[(cursor + i) % len(queries)] for i in range(count)
            ]
            cursor += count
            return picked

        self.script: List[tuple] = []
        rest = documents[fx.preload_count:]
        for number, lo in enumerate(range(0, len(rest), scale.ingest_batch), 1):
            batch = rest[lo: lo + scale.ingest_batch]
            self.script.append(("ingest", batch))
            arrived.extend(d.doc_id for d in batch)
            self.script.append(("query", next_queries(QUERIES_PER_BATCH)))
            if number % scale.delete_every == 0:
                alive = [i for i in arrived if i not in deleted]
                victims = rng.sample(alive, DELETES_PER_CALL)
                deleted.update(victims)
                self.script.append(("delete", victims))
            if number % scale.flush_every == 0:
                self.script.append(("flush", None))
        self.script.append(("compact", None))
        self.post = next_queries(scale.post_queries)
        self.script.append(("query", self.post))
        self.requests = self.post

        live = InvertedIndex()
        live.add_all(d for d in documents if d.doc_id not in deleted)
        live.commit()
        self.live_docs = live.num_docs
        reference = ContextSearchEngine(live)
        self.reference = {
            request: reference_outcome(reference, request)[0]
            for request in self.post
        }
        self.passes_run = 0

    def run_pass(self) -> Pass:
        return self._run(Tracer(record=False), stage=False).as_pass()

    def trace_pass(self, tracer: Tracer) -> TraceResult:
        run = self._run(tracer, stage=True)
        return TraceResult(
            run.layer, run.latencies_ms, run.attempted, run.failed
        )

    def _run(self, tracer: Tracer, stage: bool) -> "_IngestRun":
        """One scripted pass on a fresh copy of the preloaded directory,
        then close, reopen and re-check the final rankings."""
        directory = self.fx.tmp / f"ingest-pass-{self.passes_run}"
        self.passes_run += 1
        shutil.copytree(self.fx.preloaded_dir, directory)
        run = _IngestRun(tracer)
        try:
            engine = LifecycleEngine(SegmentedIndex.open(directory))
            try:
                started = time.perf_counter()
                for kind, argument in self.script:
                    run.step(engine, directory, kind, argument)
                run.wall_s = time.perf_counter() - started
                run.segments_after = engine.index.num_segments
                if stage:
                    run.stage_queries(engine.current_engine(), self.post)
            finally:
                engine.close()
            run.stored_bytes = sum(
                p.stat().st_size for p in directory.rglob("*") if p.is_file()
            )
            run.segment_bytes = sum(
                p.stat().st_size
                for p in directory.rglob("*.seg")
            )
            t0 = time.perf_counter()
            reopened = LifecycleEngine(SegmentedIndex.open(directory))
            try:
                run.reopen_ms = (time.perf_counter() - t0) * 1000.0
                after_reopen = []
                for request in self.post:
                    t0 = time.perf_counter()
                    after_reopen.append(
                        outcome_of(
                            lambda: engine_call(reopened, request, None)
                        )[0]
                    )
                    if len(after_reopen) == 1:
                        run.first_query_ms = (
                            time.perf_counter() - t0
                        ) * 1000.0
            finally:
                reopened.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        # Queries between mutations have no from-scratch index to compare
        # with, so they only have to succeed; the final rankings are
        # checked twice, before the close and after the reopen.
        between = run.outcomes[: -len(self.post)]
        run.timed_failed = sum(
            outcome[0] != "ok" for outcome in between
        ) + self.count_failures(run.outcomes[-len(self.post):])
        run.failed = run.timed_failed + self.count_failures(after_reopen)
        run.attempted = len(run.outcomes) + len(after_reopen)
        run.live_docs = self.live_docs
        return run


class _IngestRun:
    """Accumulators of one ingest pass."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.latencies_ms: List[float] = []
        self.outcomes: List[Outcome] = []
        self.refresh_ms: List[float] = []
        self.steady_ms: List[float] = []
        self.seconds = {"ingest": 0.0, "delete": 0.0, "flush": 0.0, "compact": 0.0}
        self.calls = {"flush": 0, "compact": 0}
        self.docs_ingested = 0
        self.docs_deleted = 0
        self.wal_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.timed_failed = 0
        self.wall_s = 0.0
        self.segments_after = 0
        self.stored_bytes = 0
        self.segment_bytes = 0
        self.live_docs = 0
        self.reopen_ms = 0.0
        self.first_query_ms = 0.0
        self.staged_layer: Dict[str, float] = {}
        self._mutated = False
        self._qid = 0

    def step(self, engine, directory, kind: str, argument) -> None:
        if kind == "query":
            for request in argument:
                self._query(engine, request)
            return
        if kind == "flush":
            # The WAL generation is rotated away by the flush.
            self.wal_bytes += sum(
                p.stat().st_size for p in directory.glob("wal-*.jsonl")
            )
        self.tracer.begin(f"lifecycle.{kind}", self._qid)
        t0 = time.perf_counter()
        if kind == "ingest":
            engine.ingest(argument)
            self.docs_ingested += len(argument)
        elif kind == "delete":
            self.docs_deleted += engine.delete(argument)
        elif kind == "flush":
            engine.flush()
        else:
            engine.compact(full=True)
        self.seconds[kind] += time.perf_counter() - t0
        self.tracer.end()
        if kind in self.calls:
            self.calls[kind] += 1
        self._mutated = True

    def _query(self, engine, request: Request) -> None:
        self.tracer.begin("lifecycle.search", self._qid)
        t0 = time.perf_counter()
        outcome, _ = outcome_of(lambda: engine_call(engine, request, None))
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        self.tracer.end()
        self._qid += 1
        self.latencies_ms.append(elapsed_ms)
        self.outcomes.append(outcome)
        (self.refresh_ms if self._mutated else self.steady_ms).append(elapsed_ms)
        self._mutated = False

    def stage_queries(self, flat_engine, requests: Sequence[Request]) -> None:
        """The post-compaction queries again, stage by stage, over the
        snapshot engine the lifecycle engine is serving from."""
        stages = staged.FlatStages(flat_engine)
        first = len(self.tracer.spans)
        counts = []
        for request in requests:
            counts.append(
                staged.attempt(stages, self.tracer, self._qid, request, None)[1]
            )
            self._qid += 1
        self.staged_layer = staged_layer_metrics(
            self.tracer.spans[first:], counts
        )

    def as_pass(self) -> Pass:
        return Pass(
            self.latencies_ms, self.wall_s,
            len(self.latencies_ms) - self.timed_failed,
            self.attempted, self.failed,
        )

    @property
    def layer(self) -> Dict[str, float]:
        steady = statistics.median(self.steady_ms)
        return {
            **self.staged_layer,
            "ingest_docs_per_s": (
                (self.docs_ingested + self.docs_deleted)
                / sum(self.seconds.values())
            ),
            "stored_bytes_per_doc": self.stored_bytes / self.live_docs,
            "lifecycle.ingest_ms_per_doc": (
                self.seconds["ingest"] * 1000.0 / self.docs_ingested
            ),
            "lifecycle.flush_ms": (
                self.seconds["flush"] * 1000.0 / self.calls["flush"]
            ),
            "lifecycle.compact_ms": self.seconds["compact"] * 1000.0,
            "lifecycle.wal_bytes_per_doc": self.wal_bytes / self.docs_ingested,
            "lifecycle.segments_after": self.segments_after,
            "lifecycle.refresh_ms": (
                statistics.median(self.refresh_ms) - steady
            ),
            "storage.reopen_ms": self.reopen_ms,
            "storage.first_query_ms": self.first_query_ms,
            "index.blockstore.bytes_per_doc": (
                self.segment_bytes / self.live_docs
            ),
        }


WORKLOADS = (
    ViewsLarge, StraightHeavy, DisjTopK, ServeSingle, ServeCluster2,
    IngestQuery,
)
