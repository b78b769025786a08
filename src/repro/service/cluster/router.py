"""The query router: a query service whose batch runner scatters.

:class:`RouterService` is the cluster's client-facing front end and a
:class:`~repro.service.server.QueryService`: decoding, admission and
shedding, the result cache, degradation, deadlines, coalescing and the
response envelope are the single-node server's own code.  Only the
batch runner differs.  Where the server runs a batch on its engine, the
router scatters it to every shard's replica group over persistent
pipelined connections, decodes each reply once, at the replica call,
into the tuples :class:`~repro.core.sharded_engine.ShardRuntime` returns
in process (the shard-op codec in :mod:`~repro.service.protocol`), and
drives the *same* :meth:`~repro.core.sharded_engine.ShardMergePlan.fold`
the in-process engine drives.  That shared fold is the whole consistency
argument: additive statistics, the global emptiness check, the scoring
of every shard's candidate features, per-term score bounds, the
disjunctive phase-2 tasks, and the final ``(-score, gid)`` rank are one
code path, so router rankings are bit-identical to a single-process
:class:`~repro.core.sharded_engine.ShardedEngine` over the same shards.
A context or conventional query costs one exchange per shard: the
``shard_resolve`` reply carries the candidates' ids, lengths, external
ids and tf columns, and the router scores them under the merged
statistics.  A disjunctive query costs two (``shard_topk`` needs the
global bounds).

Failover: every shard has an N-way replica group (consistent-hash
placement from the cluster config).  An attempt that times out, cannot
connect, or returns a frame that does not decode (torn, not JSON, not
ok, or not the op's layout from this group's shard) marks the replica
and the query is retried on a sibling — every shard op is stateless,
so any replica of the group can serve any phase.
A replica is *down* after ``fail_threshold`` consecutive failures
(in-flight or health probe) and is skipped until a ``healthz`` probe
succeeds again; when a whole group is down the affected queries shed
with one readable error naming the group and its last failures — never
a traceback, never a hung future.  Only a query the worker itself
failed (``"{type}: {message}"``) is a per-query error.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ... import __version__
from ...core.backend import VersionAuthority, VersionVector
from ...core.engine import SearchResults
from ...core.ranking import DEFAULT_RANKING_FUNCTION, RankingFunction
from ...core.sharded_engine import ShardMergePlan, _rebuild_query
from ...errors import QueryError, ReproError
from ..admission import Ticket
from ..metrics import ServiceMetrics, percentile
from ..protocol import (
    MAX_CLUSTER_LINE_BYTES,
    OP_HEALTHZ,
    OP_INSTALL_CATALOG,
    OP_SHARD_RESOLVE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    ProtocolError,
    Request,
    decode_shard_reply,
    encode_shard_request,
)
from ..server import (
    PATH_AUTO,
    QueryService,
    ServerThread,
    ServiceConfig,
    ok_outcome,
)
from .config import ClusterConfig, parse_address

__all__ = [
    "GroupUnavailable",
    "Replica",
    "ReplicaGroup",
    "RouterMetrics",
    "RouterService",
    "WorkerError",
    "WorkerProtocolError",
    "WorkerTimeout",
    "WorkerUnavailable",
    "router_service_factory",
    "router_thread",
]

STATE_UNKNOWN = "unknown"
STATE_UP = "up"
STATE_DOWN = "down"

# Per-shard attempt latency window (ring, like the service's own).
SHARD_LATENCY_WINDOW = 1024


class WorkerError(ReproError):
    """A failed exchange with one shard worker (always names it)."""

    def __init__(self, address: str, detail: str):
        super().__init__(f"worker {address}: {detail}")
        self.address = address
        self.detail = detail


class WorkerUnavailable(WorkerError):
    """Connect refused, connection lost, or send failed."""


class WorkerTimeout(WorkerError):
    """No reply within the per-attempt deadline budget."""

    def __init__(self, address: str, timeout_s: float):
        super().__init__(address, f"no reply within {timeout_s * 1000.0:g}ms")


class WorkerProtocolError(WorkerError):
    """The worker sent bytes that are not a JSON-lines response frame,
    or a frame that does not fit its shard op's layout."""

    def __init__(self, address: str, detail: str):
        super().__init__(address, f"sent a malformed response frame ({detail})")


class GroupUnavailable(ReproError):
    """Every replica of one shard group failed; queries must shed."""

    def __init__(self, shard_id: int, detail: str):
        super().__init__(f"shard group {shard_id} unavailable: {detail}")
        self.shard_id = shard_id


class Replica:
    """One worker address: a lazily-connected, pipelining async client.

    Requests match responses by ``id`` so concurrent batch exchanges
    share a single connection.  Any protocol violation — non-JSON bytes,
    a frame torn mid-line, an oversized line — fails *every* in-flight
    request with a :class:`WorkerProtocolError` naming this address and
    drops the connection; the next call reconnects from scratch.  Health
    bookkeeping (``note_success`` / ``note_failure``) lives here so the
    failover ordering and the health endpoint read one source of truth.
    """

    def __init__(self, shard_id: int, address: str, fail_threshold: int):
        self.shard_id = shard_id
        self.address = address
        self.host, self.port = parse_address(address)
        self.fail_threshold = max(int(fail_threshold), 1)
        self.state = STATE_UNKNOWN
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self.info: dict = {}  # healthz facts (num_docs, ranking, …)
        self._reader = None
        self._writer = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._conn_lock: Optional[asyncio.Lock] = None
        self._write_lock: Optional[asyncio.Lock] = None
        self._closed = False

    # -- health bookkeeping ----------------------------------------------

    def note_success(self) -> None:
        self.consecutive_failures = 0
        self.state = STATE_UP
        self.last_error = None

    def note_failure(self, error: str) -> None:
        self.consecutive_failures += 1
        self.last_error = error
        if self.consecutive_failures >= self.fail_threshold:
            self.state = STATE_DOWN

    # -- wire --------------------------------------------------------------

    def _locks(self) -> Tuple[asyncio.Lock, asyncio.Lock]:
        # Created lazily so the Replica may be built off the event loop.
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
            self._write_lock = asyncio.Lock()
        return self._conn_lock, self._write_lock

    async def _ensure_connected(self) -> None:
        conn_lock, _ = self._locks()
        async with conn_lock:
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_CLUSTER_LINE_BYTES
                )
            except OSError as exc:
                raise WorkerUnavailable(
                    self.address, f"connect failed: {exc}"
                ) from None
            self._reader, self._writer = reader, writer
            self._read_task = asyncio.ensure_future(self._read_loop(reader))

    async def call(self, payload: dict, timeout_s: float) -> dict:
        """One request/response exchange under a per-attempt deadline."""
        if self._closed:
            raise WorkerUnavailable(self.address, "router is shutting down")
        await self._ensure_connected()
        loop = asyncio.get_running_loop()
        rid = self._next_id
        self._next_id += 1
        future = loop.create_future()
        self._pending[rid] = future
        frame = dict(payload)
        frame["id"] = rid
        line = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
        _, write_lock = self._locks()
        try:
            async with write_lock:
                self._writer.write(line)
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            error = WorkerUnavailable(self.address, f"send failed: {exc}")
            self._teardown(error)
            raise error from None
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            # Late replies for this id are dropped by the read loop.
            self._pending.pop(rid, None)
            raise WorkerTimeout(self.address, timeout_s) from None

    async def _read_loop(self, reader) -> None:
        while True:
            try:
                line = await reader.readline()
            except asyncio.CancelledError:
                raise
            except (asyncio.LimitOverrunError, ValueError):
                self._teardown(
                    WorkerProtocolError(self.address, "oversized frame")
                )
                return
            except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
                self._teardown(
                    WorkerUnavailable(self.address, f"connection lost: {exc}")
                )
                return
            if not line:
                self._teardown(
                    WorkerUnavailable(
                        self.address, "connection closed by worker"
                    )
                )
                return
            if not line.endswith(b"\n"):
                # EOF mid-frame: readline hands back the torn tail.
                self._teardown(
                    WorkerProtocolError(
                        self.address,
                        f"torn frame at connection close "
                        f"({len(line)} bytes without newline)",
                    )
                )
                return
            if not line.strip():
                continue
            try:
                frame = json.loads(line)
            except (ValueError, UnicodeDecodeError):
                self._teardown(
                    WorkerProtocolError(
                        self.address,
                        f"non-JSON bytes on the wire: {line[:60]!r}",
                    )
                )
                return
            if not isinstance(frame, dict):
                self._teardown(
                    WorkerProtocolError(
                        self.address, "frame is not a JSON object"
                    )
                )
                return
            future = self._pending.pop(frame.get("id"), None)
            if future is not None and not future.done():
                future.set_result(frame)

    def _teardown(self, error: WorkerError) -> None:
        """Fail every in-flight request readably and drop the connection."""
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        writer, self._writer = self._writer, None
        self._reader = None
        self._read_task = None
        if writer is not None:
            writer.close()

    async def aclose(self) -> None:
        self._closed = True
        task = self._read_task
        self._teardown(
            WorkerUnavailable(self.address, "router is shutting down")
        )
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass


class ReplicaGroup:
    """One shard's replicas plus the round-robin failover ordering."""

    def __init__(
        self, shard_id: int, addresses: Sequence[str], fail_threshold: int
    ):
        self.shard_id = shard_id
        self.replicas = [
            Replica(shard_id, address, fail_threshold) for address in addresses
        ]
        self._rr = 0

    def candidates(self) -> List[Replica]:
        """Every replica exactly once: live ones first (rotated so load
        spreads across siblings), known-down ones last as a recovery
        long shot — a query never hangs on a dead replica when a live
        sibling exists, and never sheds while *any* replica answers."""
        count = len(self.replicas)
        start = self._rr
        self._rr = (self._rr + 1) % count
        ordered = [self.replicas[(start + i) % count] for i in range(count)]
        live = [r for r in ordered if r.state != STATE_DOWN]
        down = [r for r in ordered if r.state == STATE_DOWN]
        return live + down

    @property
    def available(self) -> bool:
        return any(r.state != STATE_DOWN for r in self.replicas)


class RouterMetrics(ServiceMetrics):
    """:class:`ServiceMetrics` plus router-only signals: per-shard
    attempt latency windows, failover counts, group-down sheds."""

    def __init__(self, num_shards: int):
        super().__init__()
        self.failovers = 0
        self.group_down = 0
        self.health_probes = 0
        self._attempts = [0] * num_shards
        self._errors = [0] * num_shards
        self._shard_latencies = [
            deque(maxlen=SHARD_LATENCY_WINDOW) for _ in range(num_shards)
        ]

    def record_attempt(
        self, shard_id: int, seconds: float, ok: bool
    ) -> None:
        with self._lock:
            self._attempts[shard_id] += 1
            if not ok:
                self._errors[shard_id] += 1
            self._shard_latencies[shard_id].append(seconds)

    def record_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def record_group_down(self) -> None:
        with self._lock:
            self.group_down += 1

    def record_probe(self) -> None:
        with self._lock:
            self.health_probes += 1

    def router_snapshot(self) -> dict:
        """The ``router`` section of the ``metrics`` op, bar the replica
        states the service adds."""
        with self._lock:
            per_shard = {}
            for shard_id in range(len(self._attempts)):
                window = list(self._shard_latencies[shard_id])
                per_shard[str(shard_id)] = {
                    "attempts": self._attempts[shard_id],
                    "errors": self._errors[shard_id],
                    "latency_ms": {
                        "count": len(window),
                        "mean": (
                            sum(window) / len(window) * 1000.0
                            if window
                            else 0.0
                        ),
                        "p95": percentile(window, 95) * 1000.0,
                        "p99": percentile(window, 99) * 1000.0,
                    },
                }
            return {
                "failovers": self.failovers,
                "group_down_sheds": self.group_down,
                "health_probes": self.health_probes,
                "per_shard": per_shard,
            }


class RouterService(QueryService):
    """The cluster front end: a :class:`QueryService` whose batch runner
    scatters to shard workers instead of running a local engine.

    The whole request lifecycle — admission, the result cache (guarded
    by the cluster-wide version vector), degradation, deadlines from
    arrival, coalescing by (mode, top_k, path), and the response
    envelope — is inherited.  Per coalesced batch, :meth:`_run_batch`
    drops tickets whose deadline passed, then runs the phase-1
    ``shard_resolve`` scatter (workers analyse; additive stats and
    candidate features come back) and drives
    :meth:`ShardMergePlan.fold` over the wire.  A
    group with no replica left that answers sheds the batch; a query a
    worker failed errors alone.  What is its own:
    replica groups with health probes and failover, the version
    authority, ``install_catalog`` / ``update_placement``, and the
    ``router`` sections of ``healthz`` and ``metrics``.
    """

    # SearchBackend constraint declaration for the adaptive controller:
    # selection must scan the whole-collection reference index — the
    # router holds no local index at all.
    needs_reference_index = True
    # The shape healthz reports (and the adaptive controller reads).
    kind = "router"

    def __init__(
        self,
        cluster: ClusterConfig,
        config: Optional[ServiceConfig] = None,
        ranking: Optional[RankingFunction] = None,
    ):
        # No local engine; the adaptive recorder's predicate analyzer is
        # the reference index's, wired in by ``route --adaptive``.
        super().__init__(
            None, config, metrics=RouterMetrics(cluster.num_shards)
        )
        self.cluster = cluster
        self.ranking = (
            ranking if ranking is not None else DEFAULT_RANKING_FUNCTION
        )
        self.options = cluster.router
        self.groups = [
            ReplicaGroup(
                shard_id,
                cluster.groups[shard_id],
                cluster.router.fail_threshold,
            )
            for shard_id in range(cluster.num_shards)
        ]
        self._health_task: Optional[asyncio.Task] = None
        # Version coherence: catalog and placement clocks live here; the
        # data epoch is the tuple of per-shard worker epochs learned from
        # health probes.  The inherited result cache keys on the whole
        # vector, so a cluster-wide catalog install or a placement change
        # invalidates exactly like a data mutation.
        self._authority = VersionAuthority(
            epoch_source=self._cluster_epoch,
            placement_generation=getattr(cluster, "placement_generation", 0),
        )
        # The last whole-collection catalog this router shipped, plus its
        # provenance — what healthz reports and what the adaptive
        # controller diffs coverage against.
        self.catalog = None
        self.last_reselection: Optional[dict] = None
        # The serving event loop; captured in on_start so the adaptive
        # controller's background thread can bridge install/placement
        # calls onto it.
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------

    async def on_start(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.check_health()  # resolve unknown states before serving
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def on_stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for group in self.groups:
            for replica in group.replicas:
                await replica.aclose()

    # -- health ------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.options.health_interval_s)
            try:
                await self.check_health()
            except asyncio.CancelledError:
                raise
            except Exception:
                pass  # a probe failure must never kill the loop

    async def check_health(self) -> None:
        """One sweep: probe every replica's ``healthz`` concurrently."""
        await asyncio.gather(
            *[
                self._probe(replica)
                for group in self.groups
                for replica in group.replicas
            ]
        )

    async def _probe(self, replica: Replica) -> None:
        self.metrics.record_probe()
        timeout_s = self.options.attempt_timeout_ms / 1000.0
        try:
            response = await replica.call({"op": OP_HEALTHZ}, timeout_s)
        except WorkerError as exc:
            replica.note_failure(str(exc))
            return
        if response.get("status") != STATUS_OK:
            replica.note_failure(
                f"worker {replica.address} healthz answered "
                f"{response.get('status')!r}"
            )
            return
        replica.note_success()
        worker = response.get("worker") or {}
        replica.info = {
            "shard_id": worker.get("shard_id"),
            "num_docs": worker.get("num_docs"),
            "ranking": worker.get("ranking"),
            "epoch": response.get("epoch"),
            "version_vector": response.get("version_vector"),
            "catalog": worker.get("catalog"),
        }

    # -- version coherence -------------------------------------------------

    def _cluster_epoch(self) -> tuple:
        """The cluster's data epoch: one entry per shard, the max epoch
        any replica of the group has reported.  Opaque to every cache
        (vectors only compare with ``!=``); a worker restart or append
        moves it, which is exactly when cached results must die."""
        return tuple(
            max(
                (
                    replica.info.get("epoch") or 0
                    for replica in group.replicas
                ),
                default=0,
            )
            for group in self.groups
        )

    @property
    def epoch(self) -> tuple:
        return self._cluster_epoch()

    @property
    def catalog_generation(self) -> int:
        return self._authority.catalog_generation

    @property
    def placement_generation(self) -> int:
        return self._authority.placement_generation

    @property
    def version(self) -> VersionVector:
        """The cluster-wide :class:`~repro.core.backend.VersionVector`."""
        return self._authority.vector()

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise QueryError(
                "router is not serving yet (install/placement need the "
                "running event loop)"
            )
        return self._loop

    def install_catalog(self, catalog, info: Optional[dict] = None) -> int:
        """Ship ``catalog`` to every replica of every shard group.

        The SearchBackend entry point, extended across the wire: the
        whole-collection catalog's view *definitions* go out as one
        crc-verified frame per worker (``install_catalog`` op), each
        worker re-materialises partial views over its own shard and
        adopts this router's new catalog generation, and the router-side
        result cache invalidates off the bumped vector.  Exactness is
        placement-independent — views only redirect how statistics are
        resolved — so a partial install (some replica down mid-ship)
        still serves bit-identical rankings; it is reported by raising
        :class:`~repro.errors.QueryError` naming the failed workers
        *after* the healthy workers have installed, so the adaptive loop
        retries shipping without losing the generation bump.

        Blocking; called from the adaptive controller's background
        thread (or a test thread), never from the event loop itself.
        """
        from ...views.sharding import catalog_definitions
        from .shipping import encode_catalog_frame

        loop = self._require_loop()
        definitions = (
            catalog_definitions(catalog) if catalog is not None else []
        )
        frame = encode_catalog_frame(definitions)
        generation = self._authority.bump_catalog()
        payload = {
            "op": OP_INSTALL_CATALOG,
            "generation": generation,
            "catalog": frame,
        }
        if info:
            payload["info"] = dict(info)
        timeout_s = max(30.0, self.options.attempt_timeout_ms / 1000.0)
        future = asyncio.run_coroutine_threadsafe(
            self._broadcast_install(payload, timeout_s), loop
        )
        failures = future.result(timeout=timeout_s + 10.0)
        self.catalog = catalog
        self.last_reselection = dict(info) if info else None
        self.result_cache.invalidate()
        if failures:
            detail = "; ".join(
                f"{address}: {error}" for address, error in failures
            )
            raise QueryError(
                f"catalog generation {generation} did not reach every "
                f"worker ({detail}); healthy workers installed it and "
                "rankings stay exact, retry shipping to the rest"
            )
        return generation

    async def _broadcast_install(
        self, payload: dict, timeout_s: float
    ) -> List[Tuple[str, str]]:
        """Send one install frame to every replica; returns failures as
        ``(address, error)`` pairs and folds each ack's version vector
        into the replica's health info."""
        replicas = [
            replica for group in self.groups for replica in group.replicas
        ]

        async def _one(replica: Replica):
            try:
                response = await replica.call(dict(payload), timeout_s)
            except WorkerError as exc:
                replica.note_failure(str(exc))
                return (replica.address, str(exc))
            if response.get("status") != STATUS_OK:
                error = response.get("error", "no error text")
                replica.note_failure(
                    f"install_catalog refused: {error}"
                )
                return (replica.address, error)
            replica.note_success()
            vector = response.get("version_vector")
            if vector is not None:
                replica.info["version_vector"] = vector
                replica.info["epoch"] = vector.get("epoch")
            return None

        outcomes = await asyncio.gather(*[_one(r) for r in replicas])
        return [outcome for outcome in outcomes if outcome is not None]

    def update_placement(
        self,
        groups: Dict[int, List[str]],
        generation: Optional[int] = None,
    ) -> int:
        """Re-place replica groups and bump the placement generation.

        ``groups`` maps every shard id to its new replica address list
        (the shard count cannot change — that would re-partition data).
        Replicas whose address survives keep their live connection;
        removed replicas are closed; new addresses start unknown and are
        probed immediately.  The placement component of the version
        vector bumps, so every cached result computed under the old
        placement is invalidated — rankings are placement-independent,
        the bump exists so a client can never observe a mix.
        """
        if sorted(groups) != list(range(self.cluster.num_shards)):
            raise QueryError(
                f"placement must cover shards 0..{self.cluster.num_shards - 1}"
                f", got {sorted(groups)}"
            )
        loop = self._require_loop()
        timeout_s = max(30.0, self.options.attempt_timeout_ms / 1000.0)
        future = asyncio.run_coroutine_threadsafe(
            self._apply_placement(groups), loop
        )
        future.result(timeout=timeout_s)
        new_generation = self._authority.bump_placement(generation)
        self.result_cache.invalidate()
        return new_generation

    async def _apply_placement(self, groups: Dict[int, List[str]]) -> None:
        removed: List[Replica] = []
        new_groups: List[ReplicaGroup] = []
        for shard_id in range(self.cluster.num_shards):
            addresses = list(groups[shard_id])
            existing = {
                replica.address: replica
                for replica in self.groups[shard_id].replicas
            }
            group = ReplicaGroup(
                shard_id, addresses, self.options.fail_threshold
            )
            # Keep live connections for addresses that survive the move.
            group.replicas = [
                existing.get(address)
                or Replica(shard_id, address, self.options.fail_threshold)
                for address in addresses
            ]
            removed.extend(
                replica
                for address, replica in existing.items()
                if address not in addresses
            )
            new_groups.append(group)
        self.groups = new_groups
        self.cluster.groups = {
            shard_id: list(groups[shard_id])
            for shard_id in range(self.cluster.num_shards)
        }
        for replica in removed:
            await replica.aclose()
        await self.check_health()

    # -- batch execution ---------------------------------------------------

    async def _run_batch(
        self, key: tuple, tickets: Sequence[Ticket]
    ) -> List[Optional[dict]]:
        """The coalescer's runner, on the event loop: tickets whose
        deadline passed while queued resolve to ``None`` and are never
        scattered; the rest go out as one scatter-gather."""
        mode, top_k, path = key
        live = [i for i, ticket in enumerate(tickets) if not ticket.skip]
        out: List[Optional[dict]] = [None] * len(tickets)
        if not live:
            return out
        queries = [tickets[i].request.query for i in live]
        try:
            outcomes = await self._scatter_gather(mode, top_k, path, queries)
        except GroupUnavailable as exc:
            # A whole replica group is gone: shed the affected queries
            # with one readable error naming the group and its failures.
            self.metrics.record_group_down()
            outcomes = [{"status": STATUS_SHED, "error": str(exc)}] * len(live)
        for slot, outcome in zip(live, outcomes):
            out[slot] = outcome
        return out

    async def _scatter_gather(
        self,
        mode: str,
        top_k: Optional[int],
        path: str,
        queries: Sequence[str],
    ) -> List[dict]:
        """One batch through the cluster: the ``shard_resolve`` scatter
        (workers analyse and resolve), then the mode's
        :meth:`ShardMergePlan.fold` — the in-process engine's fold —
        driven over the wire."""
        plan = ShardMergePlan(
            self.ranking,
            mode,
            top_k,
            forced=path not in (None, PATH_AUTO),
        )
        outcomes: List[Optional[dict]] = [None] * len(queries)
        qids = list(range(len(queries)))
        resolved = await self._scatter(
            OP_SHARD_RESOLVE,
            [[(qid, query, mode, path) for qid, query in enumerate(queries)]]
            * len(self.groups),
            qids,
            mode,
        )
        # Every shard runs the same analysers: shard 0's terms register
        # the query, and a failure on any shard fails it with that
        # worker's "{type}: {message}".
        live: List[int] = []
        for qid in qids:
            entries = [replies[qid] for replies in resolved]
            error = next((e for e in entries if isinstance(e, str)), None)
            if error is None:
                try:
                    plan.add_query(qid, _rebuild_query(*entries[0][:2]))
                except ReproError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is None:
                live.append(qid)
            else:
                outcomes[qid] = {"status": STATUS_ERROR, "error": error}
        if not live:
            return outcomes
        fold = plan.fold(live, resolved)
        replies = None
        try:
            while True:
                op, tasks, op_qids = fold.send(replies)
                replies = await self._scatter(op, tasks, op_qids)
        except StopIteration as done:
            for qid, outcome in done.value.items():
                outcomes[qid] = (
                    ok_outcome(mode, outcome)
                    if isinstance(outcome, SearchResults)
                    else {
                        "status": STATUS_ERROR,
                        "error": f"{type(outcome).__name__}: {outcome}",
                    }
                )
        return outcomes

    # -- scatter / failover ------------------------------------------------

    async def _scatter(
        self,
        op: str,
        tasks: Sequence[Sequence[tuple]],
        qids: Sequence[int],
        mode: Optional[str] = None,
    ) -> List[Dict[int, object]]:
        """One ``op`` request per shard group (``tasks[shard_id]``),
        concurrently; returns every group's decoded reply, keyed by qid.
        Raises :class:`GroupUnavailable` if any group has no replica
        left that answers."""
        replies = await asyncio.gather(
            *[
                self._call_group(group, op, group_tasks, qids, mode)
                for group, group_tasks in zip(self.groups, tasks)
            ],
            return_exceptions=True,
        )
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return replies

    async def _call_group(
        self,
        group: ReplicaGroup,
        op: str,
        tasks: Sequence[tuple],
        qids: Sequence[int],
        mode: Optional[str],
    ) -> Dict[int, object]:
        """Send to the group with failover: every replica gets at most
        one attempt under the per-attempt deadline budget, and the first
        reply that decodes wins.  This is the one place a worker's reply
        is checked: a connection failure, a timeout, a torn or non-JSON
        line, an error status, and a frame that does not fit its op's
        layout (wrong shard, missing qid, missing or mistyped field) all
        fail the attempt, mark the replica and move to a sibling."""
        payload = encode_shard_request(op, tasks, self.ranking)
        errors: List[str] = []
        for attempt, replica in enumerate(group.candidates()):
            if attempt:
                self.metrics.record_failover()
            started = time.monotonic()
            try:
                response = await replica.call(
                    payload, self.options.attempt_timeout_ms / 1000.0
                )
                if response.get("status") != STATUS_OK:
                    raise WorkerError(
                        replica.address,
                        f"answered {response.get('status')!r}: "
                        f"{response.get('error') or 'no error text'}",
                    )
                replies = decode_shard_reply(
                    op, response, group.shard_id, qids, self.ranking, mode
                )
            except ProtocolError as exc:
                error = str(WorkerProtocolError(replica.address, str(exc)))
            except WorkerError as exc:
                error = str(exc)
            else:
                self.metrics.record_attempt(
                    group.shard_id, time.monotonic() - started, ok=True
                )
                replica.note_success()
                return replies
            self.metrics.record_attempt(
                group.shard_id, time.monotonic() - started, ok=False
            )
            replica.note_failure(error)
            errors.append(error)
        raise GroupUnavailable(
            group.shard_id,
            "; ".join(errors) if errors else "no replicas configured",
        )

    # -- aggregated health and metrics -------------------------------------

    def _healthz(self) -> dict:
        groups = []
        available = 0
        total_docs = 0
        docs_known = True
        for group in self.groups:
            replicas = []
            doc_counts = set()
            for replica in group.replicas:
                replicas.append(
                    {
                        "address": replica.address,
                        "state": replica.state,
                        "consecutive_failures": replica.consecutive_failures,
                        "last_error": replica.last_error,
                        "num_docs": replica.info.get("num_docs"),
                        "ranking": replica.info.get("ranking"),
                        # Per-replica coherence state: the worker's full
                        # version vector plus its catalog's generation
                        # and provenance, as last probed/acked.
                        "version_vector": replica.info.get("version_vector"),
                        "catalog": replica.info.get("catalog"),
                    }
                )
                if replica.info.get("num_docs") is not None:
                    doc_counts.add(replica.info["num_docs"])
            if group.available:
                available += 1
            if len(doc_counts) == 1:
                total_docs += next(iter(doc_counts))
            else:
                docs_known = False
            groups.append(
                {
                    "shard": group.shard_id,
                    "available": group.available,
                    # Sibling replicas must serve the same documents; a
                    # num_docs mismatch means a botched bootstrap.
                    "consistent": len(doc_counts) <= 1,
                    "replicas": replicas,
                }
            )
        payload = {
            "status": (
                STATUS_OK if available == len(self.groups) else "degraded"
            ),
            "version": __version__,
            "engine": self.kind,
            "num_shards": self.cluster.num_shards,
            "replication": self.cluster.replication,
            "num_docs": total_docs if docs_known else None,
            "groups_available": available,
            "ranking": self.ranking.name,
            "epoch": list(self.epoch),
            "catalog_generation": self.catalog_generation,
            "placement_generation": self.placement_generation,
            "version_vector": self.version.to_dict(),
            "catalog": {
                "generation": self.catalog_generation,
                "views": len(self.catalog) if self.catalog is not None else 0,
                "provenance": self.last_reselection,
            },
            "uptime_seconds": time.monotonic() - self.metrics.started,
            "groups": groups,
        }
        if self.adaptive is not None:
            payload["adaptive"] = self.adaptive.info()
        return payload

    def _metrics(self) -> dict:
        payload = super()._metrics()
        router = self.metrics.router_snapshot()
        router["replicas"] = [
            {
                "address": replica.address,
                "shard": group.shard_id,
                "state": replica.state,
                "consecutive_failures": replica.consecutive_failures,
                "version_vector": replica.info.get("version_vector"),
            }
            for group in self.groups
            for replica in group.replicas
        ]
        payload["epoch"] = list(self.epoch)
        payload["placement_generation"] = self.placement_generation
        payload["router"] = router
        return payload

    def _respond_cluster_op(self, request: Request) -> dict:
        return self._with_id(
            request,
            {
                "status": STATUS_ERROR,
                "error": (
                    f"op {request.op!r} is cluster-internal: clients send "
                    "'query' to the router; shard ops are router→worker only"
                ),
            },
        )


def router_service_factory(
    cluster: ClusterConfig, ranking: Optional[RankingFunction] = None
):
    """A ``service_class`` callable for :class:`~repro.service.QueryServer`
    (the router has no local engine; the ``engine`` argument is unused)."""

    def factory(engine, config):
        return RouterService(cluster, config, ranking=ranking)

    return factory


def router_thread(
    cluster: ClusterConfig,
    config: Optional[ServiceConfig] = None,
    ranking: Optional[RankingFunction] = None,
) -> ServerThread:
    """A ready-to-start router on a background thread (tests, CLI)."""
    return ServerThread(
        None, config, service_class=router_service_factory(cluster, ranking)
    )
