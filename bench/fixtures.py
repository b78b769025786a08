"""Fixture builders: every piece of the system a workload runs against.

Each system part (corpus, index, catalog, shard files, worker cluster,
preloaded segment directory, server) is built at most once per
:class:`Fixtures`, and the wall time of building it is recorded under the
name of the layer that did the work.  A workload's ``setup_s`` is the sum
over the parts it uses, so a single-workload run reports the same value
as a run of all of them.

Query pools and reference rankings are benchmark inputs, not system
set-up; building them is not counted.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro
from repro import (
    ContextSearchEngine,
    CorpusConfig,
    IncrementalReselector,
    generate_corpus,
    save_sharded_index,
    workload_from_queries,
)
from repro.index.sharded import ShardedInvertedIndex
from repro.lifecycle import LifecycleEngine, SegmentedIndex
from repro.service import ServerThread, ServiceConfig
from repro.service.cluster import ClusterConfig, router_thread

from loadgen import wait_healthy
from pools import Pools

# The corpus generator's seed is pinned.  Corpora generated from
# different seeds differ in ontology shape and predicate skew enough to
# move latency_p50_ms by 15-30% and latency_p95_ms by 4x, which no
# regression bound could absorb; --seed draws the requests, the stream
# order and the ingest order instead.
CORPUS_SEED = 2011

WORKER_STARTUP_S = 60.0
WORKER_STOP_S = 15.0


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what the contract runs; ``CHECK`` is the
    self-test's tiny corpus."""

    num_docs: int
    large_per_count: int  # large-context population per keyword count
    contexts: int  # most requested contexts kept (one view each)
    heavy_contexts: int
    heavy_keywords: int
    requests: int  # requests per pass
    ingest_batch: int  # documents per ingest call
    flush_every: int  # batches between flushes
    delete_every: int  # batches between delete calls
    post_queries: int  # queries after the final compaction


FULL = Scale(
    num_docs=6000, large_per_count=500, contexts=40, heavy_contexts=12,
    heavy_keywords=100, requests=400, ingest_batch=50, flush_every=10,
    delete_every=4, post_queries=100,
)
CHECK = Scale(
    num_docs=1500, large_per_count=120, contexts=12, heavy_contexts=6,
    heavy_keywords=40, requests=60, ingest_batch=25, flush_every=5,
    delete_every=4, post_queries=20,
)

PRELOAD_SEGMENTS = 4
DELETES_PER_CALL = 10
QUERIES_PER_BATCH = 10


class Cluster:
    """Two ``python -m repro worker`` subprocesses on ephemeral ports and
    an in-process router, always reaped."""

    def __init__(self, shard_files: List[Path]):
        self.shard_files = shard_files
        self.procs: List[subprocess.Popen] = []
        self.worker_addresses: List[str] = []
        self.router: Optional[ServerThread] = None

    def start(self, catalog) -> None:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        try:
            for shard_id, shard_file in enumerate(self.shard_files):
                self.procs.append(
                    subprocess.Popen(
                        [
                            sys.executable, "-u", "-m", "repro", "worker",
                            "--index", str(shard_file),
                            "--shard-id", str(shard_id), "--port", "0",
                        ],
                        env=env, stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True,
                    )
                )
            # Workers import and bind in parallel; read the banners after
            # all are spawned.
            for proc in self.procs:
                self.worker_addresses.append(self._await_worker(proc))
            self.router = router_thread(
                ClusterConfig.from_payload(
                    {
                        "kind": "cluster",
                        "num_shards": len(self.shard_files),
                        "replication": 1,
                        "groups": [
                            {"shard": shard_id, "replicas": [address]}
                            for shard_id, address in enumerate(
                                self.worker_addresses
                            )
                        ],
                    }
                ),
                ServiceConfig(cache_enabled=False),
            )
            self.router.start()
            self.router.service.install_catalog(catalog)
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _await_worker(proc) -> str:
        """The worker prints one line, ``... on host:port``, once bound;
        then it must answer ``healthz``.  A watchdog kills a worker that
        stays silent past the deadline so the blocking read returns."""
        deadline = time.monotonic() + WORKER_STARTUP_S
        watchdog = threading.Timer(WORKER_STARTUP_S, proc.kill)
        watchdog.start()
        try:
            banner = proc.stdout.readline()
        finally:
            watchdog.cancel()
        try:
            address = banner.rsplit(" on ", 1)[1].strip()
            host, port = address.rsplit(":", 1)
            port = int(port)
        except (IndexError, ValueError):
            raise RuntimeError(
                f"shard worker printed no address within "
                f"{WORKER_STARTUP_S:.0f}s: {banner!r}"
            ) from None
        wait_healthy((host, port), max(1.0, deadline - time.monotonic()))
        return address

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop(timeout=WORKER_STOP_S)
            self.router = None
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=WORKER_STOP_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []


class Fixtures:
    """Lazily built, memoised system parts with recorded build times."""

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.t_c = max(2, scale.num_docs // 100)
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._parts: Dict[str, object] = {}
        self._closers: List[Callable[[], None]] = []
        workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=workdir))

    def rng(self, purpose: str) -> random.Random:
        """An independent stream per purpose, all derived from --seed."""
        return random.Random(f"{self.seed}:{purpose}")

    def _part(self, stage: str, build: Callable[[], object]):
        """Build once; charge the wall time to ``stage``."""
        if stage not in self._parts:
            started = time.perf_counter()
            self._parts[stage] = build()
            self.seconds[stage] = time.perf_counter() - started
        return self._parts[stage]

    # -- system parts (counted in setup_s) --------------------------------

    @property
    def corpus(self):
        return self._part(
            "data.corpus.generate_s",
            lambda: generate_corpus(
                CorpusConfig(num_docs=self.scale.num_docs, seed=CORPUS_SEED)
            ),
        )

    @property
    def index(self):
        corpus = self.corpus
        return self._part("index.build_s", corpus.build_index)

    @property
    def catalog(self):
        """Views chosen for this seed's large-context pool.

        Workload-driven reselection, not ``select_views``: full selection
        takes minutes at this size, this takes seconds and covers the
        pool completely.
        """
        index, queries = self.index, self.pools.large_queries

        def build():
            catalog, report = IncrementalReselector(
                storage_budget=10**9
            ).reselect(index, workload_from_queries(queries))
            if report.workload_coverage < 1.0:
                raise AssertionError(
                    f"catalog covers {report.workload_coverage:.2%} of the "
                    "large-context pool, expected all of it"
                )
            self.counts["selection.views"] = report.num_views
            return catalog

        return self._part("selection.reselect_s", build)

    @property
    def engine(self) -> ContextSearchEngine:
        """The flat engine with the catalog (construction is free)."""
        if "engine" not in self._parts:
            self._parts["engine"] = ContextSearchEngine(
                self.index, catalog=self.catalog
            )
        return self._parts["engine"]

    @property
    def shard_files(self) -> List[Path]:
        index = self.index

        def build():
            sharded = ShardedInvertedIndex.from_index(index, 2, "hash")
            manifest = self.tmp / "sharded.bin"
            save_sharded_index(sharded, manifest, format=4)
            return [self.tmp / f"sharded.shard{i}.bin" for i in range(2)]

        return self._part("storage.save_shards_s", build)

    @property
    def shard_manifest(self) -> Path:
        self.shard_files
        return self.tmp / "sharded.bin"

    @property
    def cluster(self) -> Cluster:
        shard_files, catalog = self.shard_files, self.catalog

        def build():
            cluster = Cluster(shard_files)
            self._closers.append(cluster.stop)
            cluster.start(catalog)
            return cluster

        return self._part("cluster.spawn_s", build)

    @property
    def server(self) -> ServerThread:
        """Shipped ``ServiceConfig`` defaults except the result cache: a
        repeating request list would otherwise measure the LRU."""
        engine = self.engine

        def build():
            server = ServerThread(engine, ServiceConfig(cache_enabled=False))
            self._closers.append(server.stop)
            server.start()
            return server

        return self._part("service.server.start_s", build)

    @property
    def ingest_order(self) -> list:
        """The corpus documents in this seed's arrival order."""
        if "ingest_order" not in self._parts:
            documents = list(self.corpus.documents)
            self.rng("ingest-order").shuffle(documents)
            self._parts["ingest_order"] = documents
        return self._parts["ingest_order"]

    @property
    def preload_count(self) -> int:
        per_segment = self.scale.num_docs * 2 // 3 // PRELOAD_SEGMENTS
        return per_segment * PRELOAD_SEGMENTS

    @property
    def preloaded_dir(self) -> Path:
        """A v4 segment directory holding two thirds of the corpus in four
        segments; every ingest pass starts from a copy of it."""
        documents = self.ingest_order[: self.preload_count]

        def build():
            directory = self.tmp / "preloaded"
            per_segment = len(documents) // PRELOAD_SEGMENTS
            with LifecycleEngine(SegmentedIndex(directory)) as engine:
                for lo in range(0, len(documents), per_segment):
                    engine.ingest(documents[lo: lo + per_segment])
                    engine.flush()
            return directory

        return self._part("lifecycle.preload_s", build)

    # -- benchmark inputs (not counted) ------------------------------------

    @property
    def pools(self) -> Pools:
        if "pools" not in self._parts:
            self._parts["pools"] = Pools(
                self.corpus, self.index, self.t_c, self.scale, CORPUS_SEED,
                self.rng, ContextSearchEngine(self.index),
            )
        return self._parts["pools"]

    def close(self) -> None:
        """Stop servers and workers, remove temporary files (idempotent)."""
        while self._closers:
            self._closers.pop()()
        shutil.rmtree(self.tmp, ignore_errors=True)
