"""Command-line interface: generate → index → select → search.

The stages mirror how the paper's system would be deployed::

    python -m repro generate --docs 8000 --seed 7 --out corpus.json.gz
    python -m repro index    --corpus corpus.json.gz --out index.bin
    python -m repro select   --index index.bin --t-c-percent 1 \
                             --t-v 1024 --out catalog.json.gz
    python -m repro search   --index index.bin --catalog catalog.json.gz \
                             "pancreas leukemia | DigestiveSystem"
    python -m repro stats    --index index.bin --catalog catalog.json.gz

``index`` writes the binary v4 format whatever the ``--out`` suffix; a
JSON index of an earlier release converts with ``tools/upgrade_index.py``.

``explain`` prints the planner's decision record for a query — the
logical plan, every candidate path with its predicted cost, the chosen
path, and predicted vs. actual operation counts (``--path`` forces a
path)::

    python -m repro explain --index index.bin --catalog catalog.json.gz \
                            "pancreas leukemia | DigestiveSystem"

``search`` accepts ``--conventional`` for the baseline ranking,
``--disjunctive`` for OR-semantics top-k, and ``--model`` to pick the
ranking function.  ``batch`` evaluates a whole query file (one query
per line) through the engine's ``search_many`` — for a flat index, the
:class:`~repro.core.engine.BatchExecutor`, sharing context
materialisations and posting columns across queries::

    python -m repro batch --index index.bin --queries workload.txt

``index --shards N`` partitions the collection and writes a sharded
index (manifest + one file per shard); ``search``/``batch``/``stats``
auto-detect sharded artefacts and run the
:class:`~repro.core.sharded_engine.ShardedEngine`, the in-process
reference for the cluster (``worker``/``route``).  A flat index can also
be re-sharded at load time with ``search --shards N``.

``serve`` runs the asyncio query service (JSON lines over TCP) with
micro-batching, admission control, deadlines, and the serving cache;
``bench-serve`` starts a server in-process and drives it with the
closed-loop load generator::

    python -m repro serve --index index.bin --catalog catalog.json.gz \
                          --port 7070
    python -m repro bench-serve --index index.bin \
                          --queries workload.txt --threads 8

``serve --adaptive`` adds continuous workload-adaptive view selection:
served queries feed a bounded decayed workload recorder, a background
thread re-runs workload-driven selection when coverage drops (or the
collection grows), and the new catalog is hot-swapped atomically —
rankings are unchanged, only cost.  ``--save-catalog`` persists the
final catalog with its hot-swap generation and reselection stats, which
``info --catalog`` reports back::

    python -m repro serve --index index.bin --adaptive \
                          --adaptive-budget 4096 --save-catalog cat.json.gz
    python -m repro info  --catalog cat.json.gz

``worker`` and ``route`` run the distributed serving tier: each index
shard behind its own worker process, with a router scatter-gathering
queries across replica groups (rankings bit-identical to the in-process
sharded engine) and failing over on worker loss.  A new replica
bootstraps its artefact from a peer with ``--bootstrap-from``::

    python -m repro worker --index idx.shard0 --shard-id 0 --port 7101
    python -m repro route  --cluster cluster.json --port 7070
    python -m repro worker --index copy.d --shard-id 0 \
                           --bootstrap-from 127.0.0.1:7101 --port 7103

A **segmented index directory** (the mutable lifecycle form: WAL +
immutable segments + manifest) is managed with ``ingest``, ``compact``
and ``info``, and is accepted by every ``--index`` flag — loading one
performs crash recovery (manifest load + WAL replay) and serves through
snapshot-isolated engines::

    python -m repro ingest  --index idx.d --corpus corpus.json.gz --flush
    python -m repro compact --index idx.d --full
    python -m repro info    --index idx.d
    python -m repro search  --index idx.d "pancreas | DigestiveSystem"

Operational failures (missing or corrupt artefacts, bad queries, ports
in use) exit with code 2 and a one-line message on stderr, not a
traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .core.engine import ContextSearchEngine
from .errors import ReproError
from .core.ranking import ALL_RANKING_FUNCTIONS
from .core.sharded_engine import ShardedEngine
from .data.corpus import CorpusConfig, generate_corpus
from .index.sharded import ShardedInvertedIndex
from .selection.hybrid import select_views
from .storage import (
    load_any_index,
    load_catalog,
    load_catalog_info,
    load_documents,
    load_index,
    save_catalog,
    save_documents,
    save_index,
    save_sharded_index,
)
from .views.sharding import replicate_catalog


def _cmd_generate(args: argparse.Namespace) -> int:
    config = CorpusConfig(
        num_docs=args.docs,
        seed=args.seed,
        vocabulary_size=args.vocabulary,
    )
    corpus = generate_corpus(config)
    save_documents(corpus.documents, args.out)
    print(
        f"wrote {len(corpus)} documents "
        f"({len(corpus.ontology)} ontology terms) to {args.out}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .index.inverted_index import build_index

    documents = load_documents(args.corpus)
    if args.shards > 1:
        sharded = ShardedInvertedIndex.build(
            documents, args.shards, partitioner=args.partitioner
        )
        save_sharded_index(sharded, args.out)
        sizes = [shard.index.num_docs for shard in sharded.shards]
        print(
            f"indexed {sharded.num_docs} documents into {args.shards} "
            f"{args.partitioner}-partitioned shards {sizes} "
            f"(binary-v4) -> {args.out}"
        )
        return 0
    index = build_index(documents)
    save_index(index, args.out)
    print(
        f"indexed {index.num_docs} documents: "
        f"{len(index.vocabulary)} content terms, "
        f"{len(index.predicate_vocabulary)} predicates "
        f"(binary-v4) -> {args.out}"
    )
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    try:
        t_c = max(int(index.num_docs * args.t_c_percent / 100.0), 1)
        catalog, report = select_views(
            index, t_c=t_c, t_v=args.t_v, strategy=args.strategy
        )
        save_catalog(catalog, args.out)
    finally:
        index.close()
    stats = catalog.stats()
    print(
        f"selected {report.num_views} views at T_C={t_c}, T_V={args.t_v} "
        f"({report.views_from_decomposition} decomposition, "
        f"{report.views_from_mining} mining); "
        f"{stats.total_tuples} tuples, "
        f"{stats.total_storage_bytes / 1e6:.2f} MB -> {args.out}"
    )
    return 0


def _load_engine(args: argparse.Namespace):
    """Build the right engine for ``--index``: flat, sharded, or lifecycle.

    A sharded artefact always gets the :class:`ShardedEngine`; a flat one
    gets it only when ``--shards N`` asks for load-time re-sharding.  A
    segmented index *directory* gets a
    :class:`~repro.lifecycle.engine.LifecycleEngine` over the recovered
    index (``--shards N`` makes its per-snapshot engines sharded).  A
    persisted single-collection catalog is re-materialised per shard
    (definitions replicate; tuples do not).

    Returns ``(engine, needs_close)`` — engines owning an mmap-backed
    index or a WAL handle must be closed by the caller.
    """
    from .lifecycle import LifecycleEngine, SegmentedIndex

    index = load_any_index(args.index)
    shards = getattr(args, "shards", 0) or 0
    ranking = ALL_RANKING_FUNCTIONS[args.model]()
    catalog = load_catalog(args.catalog) if args.catalog else None
    if isinstance(index, SegmentedIndex):
        engine = LifecycleEngine(
            index,
            ranking=ranking,
            catalog=catalog,
            num_shards=shards if shards > 1 else 0,
            partitioner=getattr(args, "partitioner", "hash"),
        )
        return engine, True
    if isinstance(index, ShardedInvertedIndex):
        sharded = index
    elif shards > 1:
        sharded = ShardedInvertedIndex.from_index(
            index, shards, partitioner=args.partitioner
        )
    else:
        sharded = None
    if sharded is not None:
        catalogs = replicate_catalog(sharded, catalog) if catalog else None
        return ShardedEngine(sharded, ranking=ranking, catalogs=catalogs), True
    # Flat engines own the loaded index's resources (a v4 artefact holds
    # an mmap), so the caller must close them too.
    return ContextSearchEngine(index, ranking=ranking, catalog=catalog), True


def _cmd_search(args: argparse.Namespace) -> int:
    engine, needs_close = _load_engine(args)

    if args.conventional:
        results = engine.search_conventional(args.query, top_k=args.top_k)
    elif args.disjunctive:
        results = engine.search_disjunctive(
            args.query,
            top_k=args.top_k,
            block_max=getattr(args, "block_max", "on") == "on",
        )
    else:
        results = engine.search(args.query, top_k=args.top_k)

    mode = (
        "conventional"
        if args.conventional
        else "disjunctive" if args.disjunctive else "context-sensitive"
    )
    print(f"{mode} results for: {args.query}")
    if not results.hits:
        print("  (no matches)")
    for rank, hit in enumerate(results.hits, start=1):
        print(f"  {rank:>3}. {hit.external_id}  score={hit.score:.4f}")
    report = results.report
    extra = (
        f" shards={engine.sharded_index.num_shards}"
        if engine.kind == "sharded"
        else ""
    )
    print(
        f"path={report.resolution.path} "
        f"context={report.context_size} "
        f"elapsed={report.elapsed_seconds * 1000:.1f}ms "
        f"model_cost={report.counter.model_cost}"
        f"{extra}"
    )
    if needs_close:
        engine.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Print the optimizer's decision record for one query.

    Runs the query for real (the plan's ``actual`` counter is the live
    execution counter), then renders the logical tree, every candidate
    path with its predicted cost, the chosen path, and predicted vs.
    actual operation counts.  For sharded indexes the per-shard choices
    are listed too.
    """
    engine, needs_close = _load_engine(args)
    mode = (
        "conventional"
        if args.conventional
        else "disjunctive" if args.disjunctive else "context"
    )
    results = engine.explain(
        args.query,
        top_k=args.top_k,
        mode=mode,
        path=args.path,
        block_max=getattr(args, "block_max", "on") == "on",
    )
    report = results.report
    print(f"explain: {args.query}")
    if report.plan is not None:
        print(report.plan.render())
    if report.topk is not None:
        topk = report.topk
        print(
            f"top-k pruning: block_max="
            f"{'on' if topk.get('block_max') else 'off'} "
            f"scored={topk.get('candidates_scored')}"
            f"/{topk.get('candidates_seen')} "
            f"pruned={topk.get('candidates_pruned')} "
            f"blocks_considered={topk.get('blocks_considered')} "
            f"blocks_skipped={topk.get('blocks_skipped')}"
        )
    if report.per_shard:
        print("per-shard execution:")
        for shard in report.per_shard:
            print(
                f"  shard {shard.shard_id}: path={shard.path} "
                f"predicted={shard.predicted_cost} "
                f"actual={shard.counter.model_cost} "
                f"results={shard.result_size}"
            )
    print(
        f"path={report.resolution.path} "
        f"context={report.context_size} "
        f"results={report.result_size} "
        f"elapsed={report.elapsed_seconds * 1000:.1f}ms"
    )
    if needs_close:
        engine.close()
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    engine, needs_close = _load_engine(args)

    with open(args.queries, "r", encoding="utf-8") as handle:
        queries = [line.strip() for line in handle if line.strip()]
    if not queries:
        print(f"no queries in {args.queries}", file=sys.stderr)
        return 1

    report = engine.search_many(
        queries, top_k=args.top_k, mode=args.mode, max_workers=args.workers
    )
    if needs_close:
        engine.close()

    for outcome in report.outcomes:
        if outcome.ok:
            top = outcome.results.hits[0] if outcome.results.hits else None
            head = (
                f"{top.external_id} ({top.score:.4f})" if top else "(no matches)"
            )
            print(
                f"ok    {outcome.query}  "
                f"hits={len(outcome.results.hits)} top={head}"
            )
        else:
            print(f"error {outcome.query}  {outcome.error}")
    total = report.aggregate_counter()
    print(
        f"batch: {len(report)} queries mode={report.mode} "
        f"workers={report.workers} "
        f"contexts={report.distinct_contexts} "
        f"shared_hits={report.shared_context_hits} "
        f"elapsed={report.elapsed_seconds * 1000:.1f}ms "
        f"model_cost={total.model_cost}"
    )
    return 1 if report.errors and not any(o.ok for o in report.outcomes) else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .lifecycle import SegmentedIndex

    index = load_any_index(args.index)
    print(f"index: {args.index}")
    if isinstance(index, SegmentedIndex):
        info = index.info()
        snapshot = index.snapshot()
        index.close()
        print(
            f"  segmented: {len(info['segments'])} segments "
            f"(version={info['version']}, "
            f"memtable={info['memtable_docs']} docs, "
            f"tombstones={info['tombstones']}, "
            f"wal_records={info['wal_records']})"
        )
        print(f"  documents: {snapshot.num_docs}")
        print(f"  total length: {snapshot.total_length} tokens")
        print(f"  avg doc length: {snapshot.average_document_length():.1f}")
        print(f"  content terms: {len(snapshot.vocabulary)}")
        print(f"  predicates: {len(snapshot.predicate_vocabulary)}")
        return 0
    if isinstance(index, ShardedInvertedIndex):
        sizes = [shard.index.num_docs for shard in index.shards]
        print(
            f"  shards: {index.num_shards} "
            f"({index.partitioner.name}-partitioned) sizes={sizes}"
        )
        print(f"  documents: {index.num_docs}")
        print(f"  total length: {index.total_length} tokens")
        print(f"  avg doc length: {index.average_document_length():.1f}")
        index.close()
        return 0
    print(f"  documents: {index.num_docs}")
    print(f"  total length: {index.total_length} tokens")
    print(f"  avg doc length: {index.average_document_length():.1f}")
    print(f"  content terms: {len(index.vocabulary)}")
    print(f"  predicates: {len(index.predicate_vocabulary)}")
    index.close()
    if args.catalog:
        catalog = load_catalog(args.catalog)
        stats = catalog.stats()
        print(f"catalog: {args.catalog}")
        print(f"  views: {stats.num_views}")
        print(f"  tuples: total={stats.total_tuples} max={stats.max_tuples}")
        print(f"  storage: {stats.total_storage_bytes / 1e6:.2f} MB")
    return 0


def _open_segmented(path: str, must_exist: bool = True):
    """Open a segmented index directory for a lifecycle command."""
    from pathlib import Path

    from .lifecycle import SegmentedIndex
    from .storage import StorageError

    if must_exist and not (Path(path) / "manifest.json").exists():
        raise StorageError(
            f"not a segmented index directory (no manifest): {path}"
        )
    return SegmentedIndex.open(path)


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Append documents to a segmented index (WAL + memtable)."""
    documents = load_documents(args.corpus)
    index = _open_segmented(args.index, must_exist=False)
    try:
        index.add_documents(documents)
        if args.flush:
            index.flush()
        info = index.info()
    finally:
        index.close()
    print(
        f"ingested {len(documents)} documents into {args.index} "
        f"(version={info['version']}, live_docs={info['live_docs']}, "
        f"segments={len(info['segments'])}, "
        f"wal_records={info['wal_records']})"
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """Merge segments and physically drop deleted documents."""
    index = _open_segmented(args.index)
    try:
        report = index.compact(full=args.full)
        info = index.info()
    finally:
        index.close()
    if report.changed:
        merged = ", ".join(
            "+".join(run) for run in report.merged
        ) or "(none)"
        print(
            f"compacted {args.index}: {report.segments_before} -> "
            f"{report.segments_after} segments (merged {merged}), "
            f"dropped {report.dropped_documents} deleted documents, "
            f"version={info['version']}"
        )
    else:
        print(f"nothing to compact in {args.index}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    """Print a segmented index's manifest/WAL/segment state as JSON,
    and/or a saved catalog's provenance (views, hot-swap generation,
    last-reselection stats)."""
    import json

    if not args.index and not args.catalog:
        print("error: info needs --index and/or --catalog", file=sys.stderr)
        return 2
    payload: dict = {}
    if args.index:
        index = _open_segmented(args.index)
        try:
            payload = index.info()
        finally:
            index.close()
    if args.catalog:
        payload["catalog"] = load_catalog_info(args.catalog)
    # The unified coherence token (repro.core.backend.VersionVector):
    # data epoch from the index's clock, catalog generation from the
    # saved catalog's provenance; placement only moves on a router.
    payload["version_vector"] = {
        "epoch": payload.get("version", 0),
        "catalog_generation": (payload.get("catalog") or {}).get(
            "generation", 0
        ),
        "placement_generation": 0,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _service_config(args: argparse.Namespace):
    from .service import ServiceConfig

    return ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers or 0,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        degrade_depth=args.degrade_depth,
        default_timeout_ms=args.timeout_ms,
        default_top_k=args.top_k,
        cache_entries=args.cache_entries,
        cache_enabled=not args.no_cache,
    )


_ADAPTIVE_FLAGS = (
    "adaptive_interval",
    "adaptive_min_queries",
    "adaptive_coverage",
    "adaptive_growth",
    "adaptive_budget",
    "reference_index",
)


def _check_adaptive_args(args: argparse.Namespace) -> None:
    """Adaptive knobs without ``--adaptive`` are a configuration bug the
    operator should hear about, not silently-ignored flags."""
    if getattr(args, "adaptive", False):
        return
    for flag in _ADAPTIVE_FLAGS:
        if getattr(args, flag, None) is not None:
            raise ReproError(
                f"--{flag.replace('_', '-')} requires --adaptive"
            )
    if getattr(args, "save_catalog", None):
        raise ReproError("--save-catalog requires --adaptive")


def _adaptive_controller(args: argparse.Namespace, engine, metrics):
    """Build the workload recorder + reselection controller for
    ``serve --adaptive`` (flat, re-sharded, and lifecycle engines)."""
    from .index.inverted_index import InvertedIndex
    from .selection.adaptive import IncrementalReselector
    from .service import AdaptiveConfig, AdaptiveSelectionController

    config = AdaptiveConfig(
        interval_seconds=(
            args.adaptive_interval
            if args.adaptive_interval is not None
            else 30.0
        ),
        min_queries=(
            args.adaptive_min_queries
            if args.adaptive_min_queries is not None
            else 32
        ),
        coverage_threshold=(
            args.adaptive_coverage
            if args.adaptive_coverage is not None
            else 0.8
        ),
        growth_threshold=(
            args.adaptive_growth if args.adaptive_growth is not None else 0.2
        ),
    )
    reference = None
    if getattr(engine, "needs_reference_index", False):
        # Selection needs the whole collection; per-shard sub-indexes
        # (and the router, which holds no index at all) cannot provide
        # it.  A flat artefact re-sharded at load time still has the
        # flat form on disk — reload it as the reference; the router
        # takes it explicitly via --reference-index.
        source = getattr(args, "reference_index", None) or getattr(
            args, "index", None
        )
        if not source:
            raise ReproError(
                "route --adaptive needs --reference-index (the "
                "whole-collection index artefact view selection scans)"
            )
        reference = load_any_index(source)
        if not isinstance(reference, InvertedIndex):
            reference.close()
            raise ReproError(
                "--adaptive over a sharded artefact is not "
                "supported: view selection needs the whole collection; "
                "point it at the flat index artefact instead"
            )
    reselector = IncrementalReselector(
        storage_budget=(
            args.adaptive_budget if args.adaptive_budget is not None else 4096
        )
    )
    controller = AdaptiveSelectionController(
        engine,
        reselector,
        config=config,
        metrics=metrics,
        reference_index=reference,
    )
    return controller, reference


def _save_adaptive_catalog(args: argparse.Namespace, engine, controller) -> None:
    """Persist the serving catalog with its hot-swap provenance."""
    catalog = getattr(engine, "catalog", None)
    if catalog is None:
        print(
            f"note: no catalog to save to {args.save_catalog} "
            "(engine has none installed)",
            file=sys.stderr,
        )
        return
    selection = (
        controller.last_report.to_dict()
        if controller is not None and controller.last_report is not None
        else None
    )
    save_catalog(
        catalog,
        args.save_catalog,
        generation=getattr(engine, "catalog_generation", 0),
        selection=selection,
    )
    print(
        f"saved catalog ({len(catalog)} views, "
        f"generation={getattr(engine, 'catalog_generation', 0)}) "
        f"-> {args.save_catalog}"
    )


def _restore_workload_state(args: argparse.Namespace, recorder) -> None:
    """Load a saved workload snapshot into the serving recorder, if the
    state file exists (a fresh deployment starts empty, not with an
    error)."""
    from pathlib import Path

    from .service import load_workload_state

    if not Path(args.workload_state).exists():
        print(f"workload state {args.workload_state} not found; "
              "starting with an empty workload")
        return
    recorder.restore(load_workload_state(args.workload_state))
    print(
        f"restored workload state from {args.workload_state} "
        f"({recorder.distinct_contexts} contexts, "
        f"{recorder.total_recorded} queries recorded)"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the query service in the foreground until interrupted."""
    from .service import QueryServer, WorkloadRecorder, save_workload_state

    _check_adaptive_args(args)
    engine, needs_close = _load_engine(args)
    controller = reference = recorder = None
    try:
        if args.save_catalog and engine.kind == "sharded":
            raise ReproError(
                "--save-catalog needs an engine with a single-collection "
                "catalog (flat or lifecycle, not sharded)"
            )
        server = QueryServer(engine, _service_config(args))
        if args.adaptive:
            controller, reference = _adaptive_controller(
                args, engine, server.service.metrics
            )
            server.service.recorder = controller.recorder
            server.service.adaptive = controller
        if args.workload_state:
            # With --adaptive the controller owns the recorder; without
            # it, recording still runs so the state keeps accumulating
            # across restarts either way.
            recorder = server.service.recorder
            if recorder is None:
                recorder = WorkloadRecorder()
                server.service.recorder = recorder
            _restore_workload_state(args, recorder)

        _serve_until_interrupted(
            server,
            "serving on {host}:{port} "
            f"({engine.kind} engine, "
            f"workers={server.config.effective_workers()}, "
            f"max_batch={server.config.max_batch}, "
            f"max_pending={server.config.max_pending}"
            f"{_adaptive_note(controller)})",
            controller,
        )
        if args.save_catalog:
            _save_adaptive_catalog(args, engine, controller)
        if args.workload_state and recorder is not None:
            save_workload_state(recorder, args.workload_state)
            print(
                f"saved workload state "
                f"({recorder.distinct_contexts} contexts) "
                f"-> {args.workload_state}"
            )
    finally:
        if controller is not None:
            controller.stop()
        if reference is not None:
            reference.close()
        if needs_close:
            engine.close()
    return 0


def _adaptive_note(controller) -> str:
    if controller is None:
        return ""
    return f", adaptive every {controller.config.interval_seconds:g}s"


def _serve_until_interrupted(server, banner: str, controller=None) -> None:
    """Start ``server``, print the bound address, run until Ctrl-C.

    ``controller`` (an adaptive-selection controller) starts only after
    the bind: it bridges ``install_catalog`` onto the serving loop, which
    the server captures when it starts.
    """
    import asyncio

    async def run() -> None:
        host, port = await server.start()
        print(banner.format(host=host, port=port))
        if controller is not None:
            controller.start()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one cluster shard worker in the foreground.

    With ``--bootstrap-from`` the worker first ships the peer replica's
    sealed artefact files into ``--index`` (treated as a directory) and
    serves the shipped copy — no re-ingest.
    """
    from pathlib import Path

    from .service import QueryServer
    from .service.cluster import fetch_artifact
    from .service.cluster.worker import worker_service_factory
    from .storage import load_shard

    index_path = Path(args.index)
    if args.bootstrap_from:
        index_path, copied = fetch_artifact(
            args.bootstrap_from, index_path,
            timeout=args.bootstrap_timeout,
        )
        print(
            f"bootstrapped shard artefact from {args.bootstrap_from} "
            f"({copied} files shipped) -> {index_path}"
        )
    ranking = ALL_RANKING_FUNCTIONS[args.model]()
    shard = load_shard(index_path, shard_id=args.shard_id)
    engine = ContextSearchEngine(shard.index, ranking)
    try:
        server = QueryServer(
            engine,
            _service_config(args),
            service_class=worker_service_factory(shard, artifact=index_path),
        )
        _serve_until_interrupted(
            server,
            f"shard worker {args.shard_id} serving {index_path} "
            f"({shard.index.num_docs} docs, {ranking.name}) "
            "on {host}:{port}",
        )
    finally:
        engine.close()
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    """Run the cluster query router in the foreground.

    With ``--adaptive`` the router closes the selection loop cluster-wide:
    served queries feed the workload recorder, reselection runs over the
    ``--reference-index`` (the whole-collection artefact), and each new
    catalog is shipped to every shard worker over the ``install_catalog``
    op — workers re-materialise partial views locally and adopt the
    router's catalog generation, so the whole cluster reports one
    version vector.
    """
    from .service import QueryServer, load_cluster_config
    from .service.cluster import router_service_factory

    _check_adaptive_args(args)
    cluster = load_cluster_config(args.cluster)
    ranking = ALL_RANKING_FUNCTIONS[args.model]()
    server = QueryServer(
        None,
        _service_config(args),
        service_class=router_service_factory(cluster, ranking),
    )
    controller = reference = None
    try:
        if args.adaptive:
            controller, reference = _adaptive_controller(
                args, server.service, server.service.metrics
            )
            server.service.recorder = controller.recorder
            server.service.adaptive = controller
            server.service._predicate_analyzer = reference.predicate_analyzer

        _serve_until_interrupted(
            server,
            f"routing {cluster.num_shards} shards x "
            f"{cluster.replication} replicas ({ranking.name}) "
            "on {host}:{port}" + _adaptive_note(controller),
            controller,
        )
    finally:
        if controller is not None:
            controller.stop()
        if reference is not None:
            reference.close()
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    """Start an in-process server and drive it with the load generator.

    With ``--target`` no server is started: the load generator drives
    the given already-running endpoint(s) — e.g. a cluster router, or
    several routers round-robin — and reports per-endpoint latency.
    """
    import json

    from .service import ServerThread, run_load

    with open(args.queries, "r", encoding="utf-8") as handle:
        queries = [line.strip() for line in handle if line.strip()]
    if not queries:
        print(f"no queries in {args.queries}", file=sys.stderr)
        return 1

    if args.target:
        from .service.cluster import parse_address

        endpoints = [parse_address(t) for t in args.target]
        report = run_load(
            endpoints,
            queries,
            threads=args.threads,
            top_k=args.top_k,
            mode=args.mode,
            timeout_ms=args.timeout_ms,
            repeat=args.repeat,
        )
        snapshot = None
    else:
        if not args.index:
            print("error: bench-serve needs --index (or --target)",
                  file=sys.stderr)
            return 2
        engine, needs_close = _load_engine(args)
        try:
            with ServerThread(engine, _service_config(args)) as st:
                report = run_load(
                    st.address,
                    queries,
                    threads=args.threads,
                    top_k=args.top_k,
                    mode=args.mode,
                    timeout_ms=args.timeout_ms,
                    repeat=args.repeat,
                )
                snapshot = st.service.metrics.snapshot()
        finally:
            if needs_close:
                engine.close()

    print(
        f"bench-serve: {report.ok}/{report.sent} ok "
        f"(errors={report.errors} shed={report.shed} "
        f"timeouts={report.timeouts}) in {report.elapsed_seconds:.2f}s"
    )
    print(
        f"  throughput: {report.qps:.1f} qps  "
        f"latency p50={report.latency_ms(50):.1f}ms "
        f"p95={report.latency_ms(95):.1f}ms "
        f"p99={report.latency_ms(99):.1f}ms"
    )
    if snapshot is not None:
        batches = snapshot["batches"]
        print(
            f"  batches: {batches['count']} "
            f"(mean_size={batches['mean_size']:.2f} "
            f"max_size={batches['max_size']} "
            f"coalesced={batches['coalesced_requests']})"
        )
    if len(report.endpoints) > 1:
        for addr, stats in sorted(report.endpoints.items()):
            print(
                f"  endpoint {addr}: {stats.ok}/{stats.sent} ok "
                f"p50={stats.latency_ms(50):.1f}ms "
                f"p99={stats.latency_ms(99):.1f}ms"
            )
    if args.out:
        payload = {"load": report.to_dict(), "server": snapshot}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"  wrote {args.out}")
    return 0 if report.ok and not report.errors else 1


def _add_service_options(p: argparse.ArgumentParser) -> None:
    """The serving knobs shared by ``serve`` and ``bench-serve``."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = pick an ephemeral port)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: min(8, cpu count))")
    p.add_argument("--max-batch", type=int, default=16,
                   help="coalescer flush size")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="upper bound on the batching wait; a request with "
                        "no concurrent traffic does not wait")
    p.add_argument("--max-pending", type=int, default=256,
                   help="admission cap; past it requests are shed")
    p.add_argument("--degrade-depth", type=int, default=None,
                   help="queue depth that forces the cheap planner path "
                        "(default: max-pending / 2)")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="default per-request deadline")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--cache-entries", type=int, default=1024,
                   help="serving-cache capacity (full query results)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the serving cache")


def _add_sharding_options(p: argparse.ArgumentParser) -> None:
    """Options shared by the commands that can run a sharded engine."""
    p.add_argument("--shards", type=int, default=0,
                   help="re-shard a flat index into N shards at load time "
                        "(sharded artefacts are auto-detected)")
    p.add_argument("--partitioner", choices=("hash", "range"), default="hash")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-sensitive ranking for document retrieval "
        "(SIGMOD 2011 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--docs", type=int, default=5000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--vocabulary", type=int, default=4000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("index", help="build and save an inverted index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shards", type=int, default=1,
                   help="partition into N shards (1 = flat single index)")
    p.add_argument("--partitioner", choices=("hash", "range"), default="hash")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("select", help="select and materialise views")
    p.add_argument("--index", required=True)
    p.add_argument("--t-c-percent", type=float, default=1.0,
                   help="context threshold as %% of the collection (paper: 1)")
    p.add_argument("--t-v", type=int, default=4096,
                   help="view-size threshold in tuples (paper: 4096)")
    p.add_argument("--strategy", choices=("hybrid", "mining"), default="hybrid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("search", help="run a context-sensitive query")
    p.add_argument("query", help='e.g. "pancreas leukemia | DigestiveSystem"')
    p.add_argument("--index", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf")
    p.add_argument("--conventional", action="store_true",
                   help="baseline ranking (whole-collection statistics)")
    p.add_argument("--disjunctive", action="store_true",
                   help="OR-semantics top-k (MaxScore)")
    p.add_argument("--block-max", choices=("on", "off"), default="on",
                   help="per-block score bounds for top-k skipping "
                        "(rankings are identical either way)")
    _add_sharding_options(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "explain", help="show the planner's path choice for a query"
    )
    p.add_argument("query", help='e.g. "pancreas leukemia | DigestiveSystem"')
    p.add_argument("--index", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf")
    p.add_argument("--conventional", action="store_true",
                   help="explain the conventional baseline")
    p.add_argument("--disjunctive", action="store_true",
                   help="explain OR-semantics top-k")
    p.add_argument("--path", choices=("auto", "views", "straightforward"),
                   default="auto",
                   help="force a physical path instead of cost-based choice")
    p.add_argument("--block-max", choices=("on", "off"), default="on",
                   help="per-block score bounds for top-k skipping "
                        "(rankings are identical either way)")
    _add_sharding_options(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("batch", help="evaluate a file of queries as one batch")
    p.add_argument("--index", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--queries", required=True,
                   help="text file, one 'keywords | predicates' query per line")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf")
    p.add_argument("--mode", choices=("context", "conventional", "disjunctive"),
                   default="context")
    p.add_argument("--workers", type=int, default=None,
                   help="thread-pool size of a flat or lifecycle engine "
                        "(default: min(8, cpu count)); a sharded engine "
                        "runs its shards in the calling thread")
    _add_sharding_options(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("stats", help="print index/catalog statistics")
    p.add_argument("--index", required=True)
    p.add_argument("--catalog", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "ingest",
        help="append documents to a segmented index directory (WAL-backed)",
    )
    p.add_argument("--index", required=True,
                   help="segmented index directory (created if absent)")
    p.add_argument("--corpus", required=True,
                   help="documents file written by 'generate'")
    p.add_argument("--flush", action="store_true",
                   help="seal the memtable into an immutable segment "
                        "after ingesting")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "compact",
        help="merge segments and drop tombstoned documents",
    )
    p.add_argument("--index", required=True,
                   help="segmented index directory")
    p.add_argument("--full", action="store_true",
                   help="merge everything into one segment "
                        "(default: size-tiered adjacent runs)")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser(
        "info",
        help="print a segmented index's segment/WAL/version state "
             "and/or a saved catalog's provenance",
    )
    p.add_argument("--index", default=None,
                   help="segmented index directory")
    p.add_argument("--catalog", default=None,
                   help="saved catalog: reports views, hot-swap generation, "
                        "and last-reselection stats")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "serve", help="run the asyncio query service (JSON lines over TCP)"
    )
    p.add_argument("--index", required=True)
    p.add_argument("--catalog", default=None)
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf")
    p.add_argument("--adaptive", action="store_true",
                   help="continuously reselect views from the live workload "
                        "and hot-swap the catalog (background thread)")
    p.add_argument("--adaptive-interval", type=float, default=None,
                   help="seconds between trigger checks (default: 30)")
    p.add_argument("--adaptive-min-queries", type=int, default=None,
                   help="new queries before the coverage trigger can fire "
                        "(default: 32)")
    p.add_argument("--adaptive-coverage", type=float, default=None,
                   help="reselect when the catalog covers less than this "
                        "fraction of the recorded workload (default: 0.8)")
    p.add_argument("--adaptive-growth", type=float, default=None,
                   help="reselect when the collection grew by this fraction "
                        "(default: 0.2)")
    p.add_argument("--adaptive-budget", type=int, default=None,
                   help="view storage budget in tuples (default: 4096)")
    p.add_argument("--save-catalog", default=None,
                   help="on shutdown, save the serving catalog with its "
                        "hot-swap generation and reselection stats")
    p.add_argument("--workload-state", default=None,
                   help="JSON file to restore the workload recorder from "
                        "at startup and save it to at shutdown, so the "
                        "observed workload survives restarts")
    _add_service_options(p)
    _add_sharding_options(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run one cluster shard worker (JSON lines over TCP)",
    )
    p.add_argument("--index", required=True,
                   help="per-shard artefact file written by "
                        "'index --shards N' — or, with --bootstrap-from, "
                        "the directory to ship the peer's artefact into")
    p.add_argument("--shard-id", type=int, default=0,
                   help="this worker's logical shard id in the cluster")
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf")
    p.add_argument("--bootstrap-from", default=None,
                   help="peer replica host:port to ship sealed artefact "
                        "files from (no re-ingest)")
    p.add_argument("--bootstrap-timeout", type=float, default=30.0,
                   help="per-request timeout for segment shipping")
    _add_service_options(p)
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "route",
        help="run the cluster query router over shard workers",
    )
    p.add_argument("--cluster", required=True,
                   help="cluster config JSON (workers, placement, "
                        "failover knobs)")
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf",
                   help="ranking model — must match the workers'")
    p.add_argument("--adaptive", action="store_true",
                   help="continuously reselect views from the routed "
                        "workload and ship each new catalog to every "
                        "shard worker (background thread)")
    p.add_argument("--reference-index", default=None,
                   help="whole-collection index artefact view selection "
                        "scans (required with --adaptive)")
    p.add_argument("--adaptive-interval", type=float, default=None,
                   help="seconds between trigger checks (default: 30)")
    p.add_argument("--adaptive-min-queries", type=int, default=None,
                   help="new queries before the coverage trigger can fire "
                        "(default: 32)")
    p.add_argument("--adaptive-coverage", type=float, default=None,
                   help="reselect when the catalog covers less than this "
                        "fraction of the recorded workload (default: 0.8)")
    p.add_argument("--adaptive-growth", type=float, default=None,
                   help="reselect when the collection grew by this fraction "
                        "(default: 0.2)")
    p.add_argument("--adaptive-budget", type=int, default=None,
                   help="view storage budget in tuples (default: 4096)")
    _add_service_options(p)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser(
        "bench-serve",
        help="start an in-process server and measure serving throughput",
    )
    p.add_argument("--index", default=None,
                   help="index artefact (omit with --target)")
    p.add_argument("--target", action="append", default=None,
                   help="drive an already-running endpoint (host:port) "
                        "instead of starting a server; repeat for "
                        "round-robin multi-endpoint load")
    p.add_argument("--catalog", default=None)
    p.add_argument("--queries", required=True,
                   help="text file, one 'keywords | predicates' query per line")
    p.add_argument("--model", choices=sorted(ALL_RANKING_FUNCTIONS),
                   default="pivoted-tfidf")
    p.add_argument("--mode", choices=("context", "conventional", "disjunctive"),
                   default="context")
    p.add_argument("--threads", type=int, default=8,
                   help="concurrent load-generator clients")
    p.add_argument("--repeat", type=int, default=1,
                   help="times to replay the query file")
    p.add_argument("--out", default=None,
                   help="write the load + server report as JSON")
    _add_service_options(p)
    _add_sharding_options(p)
    p.set_defaults(func=_cmd_bench_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Operational failures — missing or corrupt artefacts, unparseable
    queries, a port already in use — are reported as one readable line
    on stderr with exit code 2.  Anything else is a bug and keeps its
    traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        detail = exc.strerror or str(exc)
        where = f" ({target})" if target else ""
        print(f"error: {detail}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
