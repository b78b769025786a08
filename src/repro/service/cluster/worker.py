"""A shard worker: one shard of the index behind the JSON-lines server.

:class:`ShardWorkerService` is the existing :class:`QueryService` with
the cluster ops bolted on — the same asyncio transport, admission
control, metrics, and ``healthz`` an operator already knows, plus:

- the shard query ops (``shard_resolve`` / ``shard_topk``) the router
  scatter-gathers, evaluated by the *same*
  :class:`~repro.core.sharded_engine.ShardRuntime`
  the in-process backends drive (there is no worker-specific resolution
  or scoring code — that is the bit-identity argument's first half).
  Frames are read and built only through the shard-op codec in
  :mod:`~repro.service.protocol`: a task decodes to the input tuple of
  the runtime method serving the op and its output row encodes as the
  reply entry (phase 1 analyses the query text here first);
- segment shipping (``segment_manifest`` / ``fetch_segment``) so a new
  replica bootstraps from this worker's sealed artefact files;
- catalog install (``install_catalog``): the router ships crc-verified
  view definitions, the worker re-materialises partial views over its
  shard, swaps the one :class:`~repro.views.handle.CatalogHandle` its
  flat engine and :class:`ShardRuntime` share, adopts the router's
  catalog generation, and acks with its new
  :class:`~repro.core.backend.VersionVector`.

Shard ops are *stateless*: a resolve returns its candidates' scoring
inputs (ids, lengths, external ids, tf columns) for the router to score,
so a disjunctive top-k may land on any replica of the group.  Plain
``query`` ops still work and answer over the shard's *local* statistics
— useful for poking one worker, but the globally-merged ranking lives at
the router.

A batch of shard tasks arrives as one frame.  The two query ops run
inline on the event loop: they are pure Python, so under one GIL a pool
thread gave them no parallelism, only a hop each way.  A health probe
behind a running op waits for it, bounded by the router's per-attempt
timeout; ``install_catalog`` and the shipping ops stay on the pool.
Per-task failures (stopword keywords, bad syntax) come back as per-task
error entries, and a malformed payload is a readable per-frame error —
never a traceback on the router's socket.  Every cluster-op reply
carries this worker's shard id, which the router checks against the
group it called.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Optional

from ...core.engine import ContextSearchEngine
from ...core.query import analyze_query, parse_query
from ...core.ranking import RankingFunction
from ...core.sharded_engine import SHARD_OP_METHODS, ShardRuntime
from ...errors import QueryError, ReproError
from ...index.sharded import IndexShard
from ...views.sharding import materialize_catalog
from ..protocol import (
    CLUSTER_OPS,
    MAX_CLUSTER_LINE_BYTES,
    OP_INSTALL_CATALOG,
    OP_SEGMENT_MANIFEST,
    OP_SHARD_RESOLVE,
    OP_SHARD_TOPK,
    STATUS_ERROR,
    STATUS_OK,
    Request,
    decode_shard_tasks,
    encode_shard_entry,
    encode_shard_error,
    encode_shard_reply,
)
from ..server import QueryService, ServerThread, ServiceConfig
from .shipping import ArtifactShipper, decode_catalog_frame

__all__ = ["ShardWorkerService", "worker_service_factory", "worker_thread"]


class ShardWorkerService(QueryService):
    """The per-shard server: QueryService + shard ops + shipping."""

    line_limit = MAX_CLUSTER_LINE_BYTES

    def __init__(
        self,
        engine,
        config: Optional[ServiceConfig] = None,
        *,
        runtime: ShardRuntime,
        artifact: Optional[Path] = None,
    ):
        super().__init__(engine, config)
        self.runtime = runtime
        self.ranking = runtime.ranking
        self.artifact = Path(artifact) if artifact is not None else None
        self._shipper = (
            ArtifactShipper(self.artifact) if self.artifact is not None else None
        )

    # -- dispatch --------------------------------------------------------

    async def handle_request(self, request: Request) -> dict:
        if request.op in SHARD_OP_METHODS:
            return self._cluster_request(request)
        if request.op in CLUSTER_OPS:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self.pool, self._cluster_request, request
            )
        return await super().handle_request(request)

    def _cluster_request(self, request: Request) -> dict:
        payload = request.payload or {}
        try:
            body = self._dispatch_cluster(request.op, payload)
            response = dict(body)
            response["status"] = STATUS_OK
        except ReproError as exc:
            response = {
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            # A malformed frame from a confused router: answer readably,
            # never let a traceback tear the connection down.
            response = {
                "status": STATUS_ERROR,
                "error": f"malformed {request.op!r} payload: {exc!r}",
            }
        if request.id is not None:
            response["id"] = request.id
        # The router rejects a reply stamped with another group's shard:
        # a mis-wired placement fails loudly instead of merging it.
        response["shard"] = self.runtime.shard_id
        return response

    def _dispatch_cluster(self, op: str, payload: dict) -> dict:
        if op == OP_SHARD_RESOLVE:
            return self._shard_resolve(payload)
        if op == OP_SHARD_TOPK:
            # Disjunctive phase 2: the router's tasks are ShardRuntime's
            # own tuples; merged statistics and bounds travel with them.
            tasks = decode_shard_tasks(op, payload, self.ranking)
            rows = self.runtime.topk_many(tasks)
            return encode_shard_reply(encode_shard_entry(op, row) for row in rows)
        if op == OP_INSTALL_CATALOG:
            return self._install_catalog(payload)
        if self._shipper is None:
            raise QueryError(
                "this worker serves an in-memory shard and has no artefact "
                "files to ship (start it with --index to enable bootstrap)"
            )
        if op == OP_SEGMENT_MANIFEST:
            return self._shipper.manifest()
        return self._shipper.fetch(
            payload["name"], payload.get("offset", 0), payload.get("length")
        )

    # -- phase 1 ---------------------------------------------------------

    def _shard_resolve(self, payload: dict) -> dict:
        """Phase 1: analyse, then resolve this shard's additive
        statistics.  The router re-derives the spec order from the
        analysed terms and validates each query through its
        ``ShardMergePlan``; a query failing here is an error entry."""
        entries = []
        tasks = decode_shard_tasks(OP_SHARD_RESOLVE, payload)
        for qid, text, mode, force in tasks:
            try:
                entries.append(self._resolve_one(qid, text, mode, force))
            except ReproError as exc:
                entries.append(encode_shard_error(qid, exc))
        return encode_shard_reply(entries)

    def _resolve_one(self, qid: int, text: str, mode: str, force) -> dict:
        index = self.runtime.index
        query = analyze_query(
            parse_query(text), index.analyzer, index.predicate_analyzer
        )
        task = (qid, query.keywords, query.predicates, mode, force)
        row = self.runtime.resolve([task])[0]
        return encode_shard_entry(OP_SHARD_RESOLVE, row, self.ranking, mode)

    # -- catalog install -------------------------------------------------

    def _install_catalog(self, payload: dict) -> dict:
        """The cluster-wide coherence op: install a shipped catalog.

        The router ships crc-verified view *definitions* plus its
        catalog generation; this worker re-materialises partial views
        over its own shard (exact — df/tc aggregate distributively
        across shards), swaps its shared :class:`CatalogHandle`, adopts
        the router's generation, and acks with its new version vector.
        Runs on the worker pool (materialisation is CPU work, long
        enough to stall the loop's health answers), off the event loop
        via ``handle_request``.
        """
        definitions = decode_catalog_frame(payload["catalog"])
        generation = payload.get("generation")
        generation = int(generation) if generation is not None else None
        info = payload.get("info")
        catalog = materialize_catalog(self.runtime.index, definitions)
        # The runtime shares the flat engine's handle (see
        # worker_service_factory), so this one swap retargets both.
        new_generation = self.engine.install_catalog(
            catalog, info=info, generation=generation
        )
        return {
            "installed_views": len(catalog),
            "generation": new_generation,
            "version_vector": self.version.to_dict(),
        }

    # -- health ----------------------------------------------------------

    def _healthz(self) -> dict:
        payload = super()._healthz()
        payload["engine"] = "shard-worker"
        catalog, catalog_generation = self.runtime.catalog_handle.get()
        payload["worker"] = {
            "shard_id": self.runtime.shard_id,
            "num_docs": self.runtime.index.num_docs,
            "total_length": self.runtime.index.total_length,
            "ranking": self.ranking.name,
            "artifact": str(self.artifact) if self.artifact else None,
            "catalog": {
                "generation": catalog_generation,
                "views": len(catalog) if catalog is not None else 0,
                "provenance": getattr(self.engine, "last_reselection", None),
            },
        }
        return payload


def worker_service_factory(shard: IndexShard, artifact: Optional[Path] = None):
    """A ``service_class`` callable for :class:`~repro.service.QueryServer`.

    ``factory(engine, config)`` takes the server's flat engine over
    ``shard.index`` (it answers plain ``query`` ops) and builds the
    shard's :class:`ShardRuntime` — the same per-partition evaluator the
    in-process backends drive — over that engine's catalog handle and
    ranking.  One handle, so an ``install_catalog`` op swaps the
    runtime's and the flat engine's catalog at one point.
    """

    def factory(engine, config):
        runtime = ShardRuntime(shard, engine.ranking, engine.catalog_handle)
        return ShardWorkerService(
            engine, config, runtime=runtime, artifact=artifact
        )

    return factory


def worker_thread(
    shard: IndexShard,
    config: Optional[ServiceConfig] = None,
    ranking: Optional[RankingFunction] = None,
    catalog=None,
    artifact: Optional[Path] = None,
) -> ServerThread:
    """A ready-to-start shard worker on a background thread (tests, CLI)."""
    engine = ContextSearchEngine(shard.index, ranking, catalog=catalog)
    return ServerThread(
        engine,
        config,
        service_class=worker_service_factory(shard, artifact=artifact),
    )
