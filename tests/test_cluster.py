"""Tests for the distributed serving tier (repro.service.cluster).

The load-bearing property is *bit-identity*: the router's rankings over
wire-separated shard workers must equal the in-process
:class:`~repro.core.sharded_engine.ShardedEngine` exactly — same docs,
same float scores, same error messages — across shard counts, replica
counts, and all three query modes.  On top of that: failover when a
worker dies mid-stream, clean shedding when a whole replica group is
down, replica bootstrap by segment shipping, readable errors for
protocol-violating workers (torn and garbage frames), aggregated
healthz/metrics, consistent-hash placement, the cluster config format,
workload-state persistence, and the multi-endpoint load generator.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time

import pytest

from repro import ContextSearchEngine, ViewCatalog, materialize_view
from repro.core.backend import VersionVector
from repro.core.query import analyze_query, parse_query
from repro.core.ranking import DEFAULT_RANKING_FUNCTION
from repro.core.sharded_engine import OP_SHARD_RESOLVE, ShardedEngine, ShardRuntime
from repro.errors import QueryError, ReproError, SelectionError
from repro.index.sharded import ShardedInvertedIndex
from repro.service import (
    QueryService,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    WorkloadRecorder,
    load_workload_state,
    run_load,
    save_workload_state,
)
from repro.service.cluster import (
    ClusterConfig,
    ClusterConfigError,
    HashRing,
    encode_catalog_frame,
    RouterService,
    fetch_artifact,
    load_cluster_config,
    parse_address,
    place_shards,
    router_thread,
    worker_thread,
)
from repro.service.protocol import (
    ProtocolError,
    Request,
    decode_shard_reply,
    encode_shard_entry,
    encode_shard_reply,
)
from repro.storage import load_shard, save_sharded_index
from repro.views import WideSparseTable

from .test_service import FrontEndCases, query_request

MODES = ("context", "conventional", "disjunctive")

# Ordinary queries plus ones that must *fail identically* on both paths
# (a context matching nothing, a keyword analysis removes entirely).
QUERIES = [
    "pancreas | DigestiveSystem",
    "leukemia | DigestiveSystem",
    "pancreas leukemia | DigestiveSystem",
    "leukemia | Neoplasms",
    "pancreas leukemia | Diseases Neoplasms",
    "cancer | Neoplasms",
    "pancreas | Cardiology",
]


def _worker_config(**overrides) -> ServiceConfig:
    overrides.setdefault("workers", 1)
    overrides.setdefault("drain_timeout", 0.2)
    return ServiceConfig(**overrides)


@contextlib.contextmanager
def running_cluster(
    index,
    num_shards: int,
    replication: int,
    *,
    fail_threshold: int = 2,
    health_interval_s: float = 30.0,
    attempt_timeout_ms: float = 5000.0,
):
    """Start one worker process-equivalent per replica plus the router.

    Everything runs on background threads over real sockets; the wire
    format, scatter-gather, and failover paths are exactly the deployed
    ones — only process isolation is elided (the benchmark covers that).
    """
    sharded = ShardedInvertedIndex.from_index(
        index, num_shards, partitioner="hash"
    )
    threads = []
    try:
        worker_groups = []
        groups_payload = []
        for shard_id, shard in enumerate(sharded.shards):
            replicas = []
            for _ in range(replication):
                thread = worker_thread(shard, _worker_config())
                thread.start()
                threads.append(thread)
                replicas.append(thread)
            worker_groups.append(replicas)
            groups_payload.append(
                {
                    "shard": shard_id,
                    "replicas": [
                        f"{t.address[0]}:{t.address[1]}" for t in replicas
                    ],
                }
            )
        cluster = ClusterConfig.from_payload(
            {
                "kind": "cluster",
                "num_shards": num_shards,
                "replication": replication,
                "groups": groups_payload,
                "router": {
                    "health_interval_s": health_interval_s,
                    "fail_threshold": fail_threshold,
                    "attempt_timeout_ms": attempt_timeout_ms,
                },
            }
        )
        router = router_thread(cluster, _worker_config())
        router.start()
        threads.append(router)
        yield sharded, worker_groups, router
    finally:
        for thread in reversed(threads):
            with contextlib.suppress(Exception):
                thread.stop(timeout=10.0)


def run_local(engine, query: str, mode: str, top_k: int = 10):
    """The in-process reference outcome in the router's response shape."""
    try:
        if mode == "conventional":
            results = engine.search_conventional(query, top_k=top_k)
        elif mode == "disjunctive":
            results = engine.search_disjunctive(query, top_k=top_k)
        else:
            results = engine.search(query, top_k=top_k)
    except ReproError as exc:
        return "error", f"{type(exc).__name__}: {exc}"
    return "ok", [(hit.external_id, hit.score) for hit in results.hits]


def drop_statistic_values(worker: ServerThread) -> str:
    """Make one worker send its phase-1 entries without their ``values``
    field, a reply the router must refuse; returns the worker's address."""
    service = worker.service
    resolve_one = service._resolve_one

    def without_values(*args):
        entry = resolve_one(*args)
        entry.pop("values", None)
        return entry

    service._resolve_one = without_values
    return "{}:{}".format(*worker.address)


def corrupt_features(worker: ServerThread, mutate) -> str:
    """Make one worker pass each phase-1 entry that carries candidate
    features (context, conventional) through ``mutate`` before sending
    it; returns the worker's address."""
    service = worker.service
    resolve_one = service._resolve_one

    def corrupted(*args):
        entry = resolve_one(*args)
        if "tfs" in entry:
            mutate(entry)
        return entry

    service._resolve_one = corrupted
    return "{}:{}".format(*worker.address)


def _extra_id(entry):
    entry["ids"].append(10**9)


def _float_tf(entry):
    # A whole extra candidate, every column in line, whose tf is a float.
    entry["ids"].append(10**9)
    entry["lengths"].append(3)
    entry["external_ids"].append("X")
    for column in entry["tfs"]:
        column.append(1.5)
    entry["num_results"] += 1


def _num_results_off(entry):
    entry["num_results"] += 1


# Three ways a resolve entry's features can fail to line up, each a
# ProtocolError at the router: columns of unequal length, a tf that is
# not an int, and a num_results that is not the candidate count.
BAD_FEATURES = {
    "unequal-columns": _extra_id,
    "non-int-tf": _float_tf,
    "num-results": _num_results_off,
}


def assert_router_matches(client, engine, query, mode, top_k=10):
    response = client.request(
        {"op": "query", "query": query, "mode": mode, "top_k": top_k}
    )
    status, expected = run_local(engine, query, mode, top_k)
    assert response["status"] == status, (query, mode, response)
    if status == "ok":
        got = [(hit["doc"], hit["score"]) for hit in response["hits"]]
        assert got == expected, (query, mode)
    else:
        assert response["error"] == expected, (query, mode)


# ---------------------------------------------------------------------------
# Bit-identity: router over the wire == in-process ShardedEngine


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("replication", [1, 2])
    def test_all_modes_identical(
        self, handmade_index, num_shards, replication
    ):
        with running_cluster(
            handmade_index, num_shards, replication
        ) as (sharded, _groups, router):
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                for mode in MODES:
                    for query in QUERIES:
                        assert_router_matches(client, engine, query, mode)
            finally:
                client.close()
                engine.close()

    def test_forced_paths_identical(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (
            sharded,
            _groups,
            router,
        ):
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                # Only 'straightforward' is forceable here: these
                # workers carry no view catalogs, so 'views' errors.
                for path in ("straightforward",):
                    response = client.request(
                        {
                            "op": "query",
                            "query": "pancreas | DigestiveSystem",
                            "path": path,
                            "top_k": 10,
                        }
                    )
                    local = engine.explain(
                        "pancreas | DigestiveSystem",
                        top_k=10,
                        mode="context",
                        path=path,
                    )
                    assert response["status"] == "ok"
                    got = [
                        (hit["doc"], hit["score"]) for hit in response["hits"]
                    ]
                    want = [
                        (hit.external_id, hit.score) for hit in local.hits
                    ]
                    assert got == want
                    assert (
                        response["report"]["resolution"]["path"]
                        == local.report.resolution.path
                    )
            finally:
                client.close()
                engine.close()

    def test_report_merges_like_in_process(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (
            sharded,
            _groups,
            router,
        ):
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            compared = 0
            try:
                for mode in MODES:
                    for query in QUERIES:
                        response = client.query(query, top_k=10, mode=mode)
                        status, _ = run_local(engine, query, mode)
                        assert response["status"] == status, (query, mode)
                        if status != "ok":
                            continue
                        local = engine.explain(query, top_k=10, mode=mode)
                        remote_report = dict(response["report"])
                        local_report = local.report.to_dict()
                        # Wall-clock is the one field that cannot match.
                        del remote_report["elapsed_seconds"]
                        del local_report["elapsed_seconds"]
                        assert remote_report == local_report, (query, mode)
                        assert len(remote_report["per_shard"]) == 2
                        compared += 1
            finally:
                client.close()
                engine.close()
            assert compared == 19


# ---------------------------------------------------------------------------
# Failover and shedding


class TestFailover:
    def test_killed_replica_fails_over_identically(self, handmade_index):
        with running_cluster(handmade_index, 2, 2) as (
            sharded,
            groups,
            router,
        ):
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                # Warm: both replicas answer.
                assert_router_matches(
                    client, engine, "pancreas | DigestiveSystem", "context"
                )
                # Kill one replica of shard 0 while queries keep coming.
                killer = threading.Thread(
                    target=lambda: groups[0][0].stop(timeout=10.0)
                )
                killer.start()
                for _ in range(10):
                    for mode in MODES:
                        assert_router_matches(
                            client,
                            engine,
                            "pancreas leukemia | DigestiveSystem",
                            mode,
                        )
                killer.join()
                # And after the kill has fully settled.
                for query in QUERIES:
                    assert_router_matches(client, engine, query, "context")
                metrics = client.request({"op": "metrics"})
                assert metrics["router"]["failovers"] >= 1
                assert metrics["router"]["group_down_sheds"] == 0
            finally:
                client.close()
                engine.close()

    def test_whole_group_down_sheds_readably(self, handmade_index):
        with running_cluster(
            handmade_index, 2, 1, fail_threshold=1
        ) as (sharded, groups, router):
            client = ServiceClient(*router.address)
            try:
                groups[1][0].stop(timeout=10.0)
                response = client.request(
                    {
                        "op": "query",
                        "query": "pancreas | DigestiveSystem",
                        "top_k": 5,
                    }
                )
                assert response["status"] == "shed"
                assert "shard group 1 unavailable" in response["error"]
                assert "worker 127.0.0.1:" in response["error"]
                metrics = client.request({"op": "metrics"})
                assert metrics["router"]["group_down_sheds"] >= 1
                health = client.request({"op": "healthz"})
                assert health["status"] == "degraded"
                assert health["groups_available"] == 1
            finally:
                client.close()

    def test_malformed_entries_fail_over_to_a_sibling(self, handmade_index):
        with running_cluster(handmade_index, 2, 2, fail_threshold=1) as (
            sharded,
            groups,
            router,
        ):
            # Shard 0's first replica is the first one the router tries.
            address = drop_statistic_values(groups[0][0])
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                for mode in MODES:
                    for query in QUERIES:
                        assert_router_matches(client, engine, query, mode)
                metrics = client.request({"op": "metrics"})
                health = client.request({"op": "healthz"})
            finally:
                client.close()
                engine.close()
        assert metrics["router"]["failovers"] >= 1
        (replica,) = [
            replica
            for replica in health["groups"][0]["replicas"]
            if replica["address"] == address
        ]
        assert replica["state"] == "down"
        assert "malformed" in replica["last_error"]

    def test_malformed_entries_without_a_sibling_shed(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (_s, groups, router):
            address = drop_statistic_values(groups[0][0])
            client = ServiceClient(*router.address)
            try:
                for mode in ("context", "disjunctive"):
                    response = client.query(
                        "pancreas | DigestiveSystem", top_k=10, mode=mode
                    )
                    assert response["status"] == "shed", (mode, response)
                    assert "shard group 0 unavailable" in response["error"]
                    assert address in response["error"]
                    assert "malformed" in response["error"]
            finally:
                client.close()

    @pytest.mark.parametrize("fault", sorted(BAD_FEATURES))
    def test_bad_features_fail_over_to_a_sibling(self, handmade_index, fault):
        with running_cluster(handmade_index, 2, 2, fail_threshold=1) as (
            sharded,
            groups,
            router,
        ):
            # Shard 0's first replica is the first one the router tries.
            address = corrupt_features(groups[0][0], BAD_FEATURES[fault])
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                for mode in ("context", "conventional"):
                    for query in QUERIES:
                        assert_router_matches(client, engine, query, mode)
                metrics = client.request({"op": "metrics"})
                health = client.request({"op": "healthz"})
            finally:
                client.close()
                engine.close()
        assert metrics["router"]["failovers"] >= 1
        assert metrics["router"]["group_down_sheds"] == 0
        (replica,) = [
            replica
            for replica in health["groups"][0]["replicas"]
            if replica["address"] == address
        ]
        assert replica["state"] == "down"
        assert "malformed shard_resolve entry" in replica["last_error"]

    def test_miswired_group_sheds_naming_both_shards(self, handmade_index):
        """Both groups list shard 0's worker: its replies, stamped shard
        0, are refused for group 1 instead of being merged twice."""
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        worker = worker_thread(sharded.shards[0], _worker_config())
        worker.start()
        address = "{}:{}".format(*worker.address)
        cluster = ClusterConfig.from_payload(
            {
                "kind": "cluster",
                "num_shards": 2,
                "replication": 1,
                "groups": [
                    {"shard": 0, "replicas": [address]},
                    {"shard": 1, "replicas": [address]},
                ],
                "router": {"health_interval_s": 30.0},
            }
        )
        router = router_thread(cluster, _worker_config())
        router.start()
        client = ServiceClient(*router.address)
        try:
            for mode in MODES:
                response = client.query(
                    "pancreas | DigestiveSystem", top_k=10, mode=mode
                )
                assert response["status"] == "shed", (mode, response)
                error = response["error"]
                assert "shard group 1 unavailable" in error
                assert address in error
                assert "from shard 0, not from shard group 1" in error
        finally:
            client.close()
            router.stop(timeout=10.0)
            worker.stop(timeout=10.0)


def resolve_entry(index, mode="context") -> dict:
    """Query 7's resolve entry from a runtime over the whole handmade
    index: one candidate (C1), two distinct terms."""
    query = analyze_query(
        parse_query("pancreas outcomes pancreas | DigestiveSystem"),
        index.analyzer,
        index.predicate_analyzer,
    )
    runtime = ShardRuntime(index, DEFAULT_RANKING_FUNCTION, None)
    (row,) = runtime.resolve([(7, query.keywords, query.predicates, mode, None)])
    return encode_shard_entry(OP_SHARD_RESOLVE, row, DEFAULT_RANKING_FUNCTION, mode)


def decode_entry(entry: dict, mode="context") -> tuple:
    """The router's decoding of a reply holding just ``entry``."""
    frame = encode_shard_reply([json.loads(json.dumps(entry))]) | {"shard": 0}
    return decode_shard_reply(
        OP_SHARD_RESOLVE, frame, 0, [7], DEFAULT_RANKING_FUNCTION, mode
    )[7]


class TestFeatureCodec:
    """The resolve entry's feature columns, checked where the router
    decodes a reply."""

    @pytest.mark.parametrize("mode", ["context", "conventional"])
    def test_round_trip(self, handmade_index, mode):
        entry = resolve_entry(handmade_index, mode)
        assert entry["num_results"] == 1 and len(entry["tfs"]) == 2
        assert decode_entry(entry, mode)[-4:] == (
            entry["ids"], entry["lengths"], entry["external_ids"], entry["tfs"]
        )

    @pytest.mark.parametrize("fault", sorted(BAD_FEATURES))
    @pytest.mark.parametrize("mode", ["context", "conventional"])
    def test_bad_features_raise(self, handmade_index, fault, mode):
        entry = resolve_entry(handmade_index, mode)
        BAD_FEATURES[fault](entry)
        with pytest.raises(ProtocolError, match="malformed shard_resolve"):
            decode_entry(entry, mode)

    def test_missing_tf_column_raises(self, handmade_index):
        entry = resolve_entry(handmade_index)
        entry["tfs"].pop()
        with pytest.raises(ProtocolError, match="1 tf columns for 2 terms"):
            decode_entry(entry)


# ---------------------------------------------------------------------------
# Protocol-violating workers: readable errors, never hangs


class FakeWorker:
    """A listener that answers every request line with canned bytes.

    ``reply`` is sent verbatim after one line is read; with
    ``truncate=True`` the connection closes without a trailing newline —
    a torn frame mid-response.
    """

    def __init__(self, reply: bytes, truncate: bool = False):
        self.reply = reply
        self.truncate = truncate
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = "{}:{}".format(*self._listener.getsockname())
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(5.0)
            buffered = b""
            while b"\n" not in buffered:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                buffered += chunk
            conn.sendall(self.reply)
        except OSError:
            pass
        finally:
            with contextlib.suppress(OSError):
                conn.close()

    def close(self) -> None:
        self._closing = True
        with contextlib.suppress(OSError):
            self._listener.close()
        self._thread.join(timeout=5.0)


@contextlib.contextmanager
def router_over_fake_worker(reply: bytes, truncate: bool = False):
    fake = FakeWorker(reply, truncate=truncate)
    cluster = ClusterConfig.from_payload(
        {
            "kind": "cluster",
            "num_shards": 1,
            "replication": 1,
            "groups": [{"shard": 0, "replicas": [fake.address]}],
            "router": {
                "health_interval_s": 30.0,
                "fail_threshold": 10,
                "attempt_timeout_ms": 3000.0,
            },
        }
    )
    router = router_thread(cluster, _worker_config())
    router.start()
    client = ServiceClient(*router.address)
    try:
        yield fake, client
    finally:
        client.close()
        router.stop(timeout=10.0)
        fake.close()


class TestMalformedWorkerFrames:
    def _shed_error(self, client) -> str:
        began = time.monotonic()
        response = client.request(
            {"op": "query", "query": "pancreas | DigestiveSystem", "top_k": 5}
        )
        elapsed = time.monotonic() - began
        assert elapsed < 10.0, "router hung on a protocol-violating worker"
        assert response["status"] == "shed"
        return response["error"]

    def test_non_json_frame_names_the_worker(self):
        with router_over_fake_worker(b"utter garbage, not json\n") as (
            fake,
            client,
        ):
            error = self._shed_error(client)
            assert fake.address in error
            assert "non-JSON bytes" in error
            assert "Traceback" not in error

    def test_torn_frame_names_the_worker(self):
        with router_over_fake_worker(
            b'{"status": "ok", "results": [', truncate=True
        ) as (fake, client):
            error = self._shed_error(client)
            assert fake.address in error
            assert "malformed response frame" in error

    def test_non_dict_frame_names_the_worker(self):
        with router_over_fake_worker(b"[1, 2, 3]\n") as (fake, client):
            error = self._shed_error(client)
            assert fake.address in error
            assert "malformed response frame" in error

    def test_router_refuses_cluster_ops_from_clients(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (_s, _g, router):
            client = ServiceClient(*router.address)
            try:
                response = client.request(
                    {"op": "shard_resolve", "tasks": []}
                )
                assert response["status"] == "error"
                assert "cluster-internal" in response["error"]
            finally:
                client.close()


# ---------------------------------------------------------------------------
# Worker catalog install: one shared build helper, checked block reads


INSTALL_DEFINITIONS = [
    (
        frozenset({"DigestiveSystem"}),
        frozenset({"pancreas"}),
        frozenset({"pancreas"}),
    ),
    (
        frozenset({"Diseases", "Neoplasms"}),
        frozenset({"leukemia", "cancer"}),
        frozenset(),
    ),
]


def send_install(thread, definitions, generation):
    client = ServiceClient(*thread.address)
    try:
        return client.request(
            {
                "op": "install_catalog",
                "generation": generation,
                "catalog": encode_catalog_frame(definitions),
            }
        )
    finally:
        client.close()


class TestWorkerCatalogInstall:
    def test_ack_and_views_match_the_per_view_builder(self, handmade_index):
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        shard = sharded.shards[0]
        thread = worker_thread(shard, _worker_config())
        thread.start()
        try:
            reply = send_install(thread, INSTALL_DEFINITIONS, 7)
            assert reply["status"] == "ok"
            assert reply["installed_views"] == 2
            assert reply["generation"] == 7
            assert reply["version_vector"] == {
                "epoch": 0,
                "catalog_generation": 7,
                "placement_generation": 0,
            }
            catalog, generation = thread.service.runtime.catalog_handle.get()
            assert generation == 7
            table = WideSparseTable.from_index(shard.index)
            for view, definition in zip(catalog, INSTALL_DEFINITIONS):
                oracle = materialize_view(table, *definition)
                assert view.keyword_set == oracle.keyword_set
                assert view.groups == oracle.groups
        finally:
            thread.stop(timeout=10.0)

    def test_damaged_block_fails_the_install_naming_the_file(
        self, tmp_path, corpus_index
    ):
        from .test_views import flip_block_header, shard_definitions

        sharded = ShardedInvertedIndex.from_index(corpus_index, 2, "hash")
        save_sharded_index(sharded, tmp_path / "idx.bin")
        shard_path = tmp_path / "idx.shard0.bin"
        definitions = shard_definitions(sharded.shards[0].index)
        flip_block_header(shard_path, definitions[0][1])

        shard = load_shard(shard_path, shard_id=0)
        thread = worker_thread(shard, _worker_config())
        thread.start()
        try:
            reply = send_install(thread, definitions, 1)
            assert reply["status"] == "error"
            assert reply["error"].startswith("StorageError: ")
            assert shard_path.name in reply["error"]
            # Nothing was built or installed.
            catalog, generation = thread.service.runtime.catalog_handle.get()
            assert catalog is None or len(catalog) == 0
            assert generation == 0
        finally:
            thread.stop(timeout=10.0)
            shard.index.close()


# ---------------------------------------------------------------------------
# Replica bootstrap by segment shipping


class TestBootstrap:
    def test_shipped_replica_serves_identical_rankings(
        self, tmp_path, handmade_index
    ):
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        save_sharded_index(sharded, tmp_path / "idx.bin")
        shard_path = tmp_path / "idx.shard0.bin"
        shard = load_shard(shard_path, shard_id=0)
        source = worker_thread(
            shard, _worker_config(), artifact=shard_path
        )
        source.start()
        try:
            address = "{}:{}".format(*source.address)
            local, copied = fetch_artifact(address, tmp_path / "boot")
            assert copied == 1
            assert local == tmp_path / "boot" / "idx.shard0.bin"
            # A second pull verifies checksums and ships nothing.
            _, copied_again = fetch_artifact(address, tmp_path / "boot")
            assert copied_again == 0
            # A tampered local copy is detected and re-shipped.
            local.write_bytes(b"corrupted beyond recognition")
            _, reshipped = fetch_artifact(address, tmp_path / "boot")
            assert reshipped == 1

            boot_shard = load_shard(local, shard_id=0)
            bootstrapped = worker_thread(boot_shard, _worker_config())
            bootstrapped.start()
            try:
                a = ServiceClient(*source.address)
                b = ServiceClient(*bootstrapped.address)
                try:
                    request = {
                        "op": "query",
                        "query": "pancreas | DigestiveSystem",
                        "top_k": 10,
                    }
                    first = a.request(dict(request))
                    second = b.request(dict(request))
                    assert first["status"] == second["status"] == "ok"
                    assert first["hits"] == second["hits"]
                finally:
                    a.close()
                    b.close()
            finally:
                bootstrapped.stop(timeout=10.0)
        finally:
            source.stop(timeout=10.0)

    def test_worker_without_artifact_refuses_shipping(self, handmade_index):
        sharded = ShardedInvertedIndex.from_index(
            handmade_index, 2, partitioner="hash"
        )
        thread = worker_thread(sharded.shards[0], _worker_config())
        thread.start()
        try:
            client = ServiceClient(*thread.address)
            try:
                response = client.request({"op": "segment_manifest"})
                assert response["status"] == "error"
                assert "no artefact files to ship" in response["error"]
            finally:
                client.close()
        finally:
            thread.stop(timeout=10.0)


# ---------------------------------------------------------------------------
# Router healthz / metrics aggregation


class TestRouterObservability:
    def test_healthz_aggregates_replica_states(self, handmade_index):
        with running_cluster(handmade_index, 2, 2) as (_s, _g, router):
            client = ServiceClient(*router.address)
            try:
                health = client.request({"op": "healthz"})
                assert health["status"] == "ok"
                assert health["engine"] == "router"
                assert health["num_shards"] == 2
                assert health["replication"] == 2
                assert health["groups_available"] == 2
                assert health["num_docs"] == handmade_index.num_docs
                assert len(health["groups"]) == 2
                for group in health["groups"]:
                    assert group["available"] is True
                    assert group["consistent"] is True
                    states = [r["state"] for r in group["replicas"]]
                    assert states == ["up", "up"]
            finally:
                client.close()

    def test_lone_queries_flush_idle(self, handmade_index):
        queries = QUERIES[:4]  # distinct, so the result cache never answers
        with running_cluster(handmade_index, 2, 1) as (_s, _g, router):
            client = ServiceClient(*router.address)
            try:
                for query in queries:
                    response = client.query(query, top_k=5)
                    assert response["status"] == "ok"
                batches = client.request({"op": "metrics"})["batches"]
            finally:
                client.close()
        # One caller, one key: every batch goes out at the end of its
        # loop tick, none waits for the coalescing timer.
        assert batches["count"] == len(queries)
        assert batches["idle_flushes"] == len(queries)
        assert batches["timer_flushes"] == 0

    def test_metrics_aggregate_per_shard_latency(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (_s, _g, router):
            client = ServiceClient(*router.address)
            try:
                # Distinct top_k per request: the router's result cache
                # would absorb identical repeats before any shard attempt.
                for top_k in (5, 6, 7):
                    client.request(
                        {
                            "op": "query",
                            "query": "pancreas | DigestiveSystem",
                            "top_k": top_k,
                        }
                    )
                metrics = client.request({"op": "metrics"})
                assert metrics["status"] == "ok"
                router_stats = metrics["router"]
                assert router_stats["failovers"] == 0
                per_shard = router_stats["per_shard"]
                assert set(per_shard) == {"0", "1"}
                for stats in per_shard.values():
                    assert stats["attempts"] >= 3
                    assert stats["errors"] == 0
                    assert stats["latency_ms"]["p95"] >= 0.0
                assert len(router_stats["replicas"]) == 2
                assert metrics["requests"] == 3
                assert metrics["ok"] == 3
            finally:
                client.close()


    @pytest.mark.parametrize(
        "mode, exchanges",
        [("context", 1), ("conventional", 1), ("disjunctive", 2)],
    )
    def test_exchanges_per_query(self, handmade_index, mode, exchanges):
        """A context or conventional query costs one attempt per shard
        (the resolve carries the candidates' features); a disjunctive
        query costs two (the top-k needs the merged bounds)."""
        with running_cluster(handmade_index, 2, 1) as (_s, _g, router):
            client = ServiceClient(*router.address)
            try:
                for n, query in enumerate(QUERIES[:3], start=1):
                    response = client.query(query, top_k=10, mode=mode)
                    assert response["status"] == "ok", response
                    per_shard = client.request({"op": "metrics"})["router"][
                        "per_shard"
                    ]
                    for stats in per_shard.values():
                        assert stats["attempts"] == n * exchanges
            finally:
                client.close()


# ---------------------------------------------------------------------------
# Front-end parity: the router runs the single-node request lifecycle


class RouterFrontEnd:
    """The router tier of ``FrontEndCases``: a fresh :class:`RouterService`
    per case over shared in-process workers, driven transport-free on a
    private event loop (its replica connections outlive one request)."""

    def __init__(self, cluster: ClusterConfig):
        self.cluster = cluster
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self._thread.start()

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout=30.0
        )

    @contextlib.contextmanager
    def serving(self, **overrides):
        service = RouterService(self.cluster, _worker_config(**overrides))
        self.run(service.on_start())
        try:
            yield service
        finally:
            self.run(service.drain())
            self.run(service.on_stop())
            service.close()

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()
        self.loop.close()


def key_paths(payload: dict, prefix: str = "") -> set:
    """Every key of a nested JSON object, as dotted paths."""
    paths = set()
    for key, value in payload.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= key_paths(value, f"{prefix}{key}.")
    return paths


class TestRouterFrontEnd(FrontEndCases):
    @pytest.fixture(scope="class")
    def front_end(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (_s, _g, router):
            tier = RouterFrontEnd(router.service.cluster)
            try:
                yield tier
            finally:
                tier.close()

    def test_deadline_runs_from_arrival_and_skips_scatter(self, front_end):
        """An expired request answers ``timeout`` and is never scattered."""
        with front_end.serving(max_batch=64, max_wait_ms=200.0) as service:
            original = service._scatter_gather

            async def drive():
                release = asyncio.Event()

                async def held(*args):
                    await release.wait()  # hold the first batch in flight
                    return await original(*args)

                service._scatter_gather = held
                first = asyncio.ensure_future(
                    service.handle_request(query_request("leukemia | Neoplasms"))
                )
                await asyncio.sleep(0.05)
                # The key is busy, so this request waits in the 200ms
                # bucket and its 5ms deadline expires there.
                response = await service.handle_request(
                    query_request("pancreas | DigestiveSystem", timeout_ms=5)
                )
                release.set()
                first_response = await first
                await service.drain()
                metrics = await service.handle_request(Request(op="metrics"))
                return response, first_response, metrics

            response, first_response, metrics = front_end.run(drive())
        assert first_response["status"] == "ok"
        assert response["status"] == "timeout"
        assert "deadline" in response["error"]
        assert metrics["timeouts"] == 1
        # Only the first query went out: one resolve exchange per shard.
        for stats in metrics["router"]["per_shard"].values():
            assert stats["attempts"] == 1

    def test_metrics_keep_every_single_node_key(
        self, front_end, handmade_engine
    ):
        single = QueryService(handmade_engine)
        try:
            expected = asyncio.run(single.handle_request(Request(op="metrics")))
        finally:
            single.close()
        with front_end.serving() as service:
            payload = front_end.run(service.handle_request(Request(op="metrics")))
        assert key_paths(expected) <= key_paths(payload)
        assert set(payload["router"]) >= {
            "failovers",
            "group_down_sheds",
            "health_probes",
            "per_shard",
            "replicas",
        }


# ---------------------------------------------------------------------------
# Cluster-wide version coherence: shipped catalogs, swap under traffic,
# placement changes — every event rank-safe, every cache vector-guarded


def whole_collection_catalog(index) -> ViewCatalog:
    """A one-view catalog over the reference (unsharded) index; the
    router ships its *definitions* and workers re-materialise locally."""
    table = WideSparseTable.from_index(index)
    view = materialize_view(
        table,
        {"DigestiveSystem"},
        df_terms=["pancreas"],
        tc_terms=["pancreas"],
    )
    return ViewCatalog([view])


class TestClusterCoherence:
    def test_install_is_bit_identical_and_acked_by_every_worker(
        self, handmade_index
    ):
        with running_cluster(handmade_index, 2, 2) as (
            sharded,
            _groups,
            router,
        ):
            flat = ContextSearchEngine(handmade_index)
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                # Before: cluster == in-process sharded == single-node.
                for query in QUERIES:
                    assert_router_matches(client, engine, query, "context")
                status, flat_ranking = run_local(
                    flat, "pancreas | DigestiveSystem", "context"
                )

                generation = router.service.install_catalog(
                    whole_collection_catalog(handmade_index),
                    info={"trigger": "test-install"},
                )
                assert generation == 1

                # The router's vector moved exactly one catalog step,
                # and every worker acked with the shipped generation.
                vector = router.service.version
                assert isinstance(vector, VersionVector)
                assert vector.catalog_generation == 1
                assert vector.placement_generation == 0
                health = client.request({"op": "healthz"})
                assert health["catalog_generation"] == 1
                assert health["version_vector"]["catalog_generation"] == 1
                assert (
                    health["catalog"]["provenance"]["trigger"]
                    == "test-install"
                )
                for group in health["groups"]:
                    for replica in group["replicas"]:
                        acked = replica["version_vector"]
                        assert acked["catalog_generation"] == 1

                # After: rankings bit-identical to both references —
                # the install redirected statistics resolution only.
                for query in QUERIES:
                    assert_router_matches(client, engine, query, "context")
                response = client.request(
                    {
                        "op": "query",
                        "query": "pancreas | DigestiveSystem",
                        "top_k": 10,
                    }
                )
                assert status == "ok"
                got = [(h["doc"], h["score"]) for h in response["hits"]]
                assert got == flat_ranking
                # The shipped views now resolve the context's statistics.
                resolution = response["report"]["resolution"]
                assert resolution["path"] == "sharded-views"
            finally:
                client.close()
                engine.close()
                flat.close()

    def test_swap_under_traffic_with_replica_kill(self, handmade_index):
        """Interleave catalog installs, a replica kill, and live queries:
        every response the clients see must match the reference ranking
        (no stale ranking from any cache) and every worker thread must
        finish (no hung future)."""
        with running_cluster(handmade_index, 2, 2) as (
            _sharded,
            groups,
            router,
        ):
            flat = ContextSearchEngine(handmade_index)
            traffic_queries = [
                "pancreas | DigestiveSystem",
                "pancreas leukemia | DigestiveSystem",
                "leukemia | Neoplasms",
            ]
            expected = {
                query: run_local(flat, query, "context", top_k=8)
                for query in traffic_queries
            }
            flat.close()

            stop = threading.Event()
            mismatches = []
            errors = []

            def drive(thread_id: int):
                client = ServiceClient(*router.address)
                try:
                    while not stop.is_set():
                        query = traffic_queries[
                            thread_id % len(traffic_queries)
                        ]
                        response = client.request(
                            {"op": "query", "query": query, "top_k": 8}
                        )
                        if response["status"] != "ok":
                            errors.append((query, response))
                            continue
                        got = [
                            (h["doc"], h["score"]) for h in response["hits"]
                        ]
                        if got != expected[query][1]:
                            mismatches.append((query, got))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append((f"thread-{thread_id}", repr(exc)))
                finally:
                    client.close()

            threads = [
                threading.Thread(target=drive, args=(i,), daemon=True)
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                catalog = whole_collection_catalog(handmade_index)
                # Swap 1 with all replicas healthy.
                assert router.service.install_catalog(catalog) == 1
                # Kill one replica of shard 0 mid-traffic; failover
                # absorbs it.
                groups[0][0].stop(timeout=10.0)
                # Swap 2 with the replica dead: healthy workers install,
                # the dead one is reported by name — generation still
                # advances and rankings stay exact.
                try:
                    generation = router.service.install_catalog(catalog)
                except QueryError as exc:
                    assert "did not reach every worker" in str(exc)
                    generation = router.service.catalog_generation
                assert generation == 2
                # Drop every catalog again (swap 3) — still rank-safe.
                try:
                    router.service.install_catalog(None)
                except QueryError as exc:
                    assert "did not reach every worker" in str(exc)
                assert router.service.catalog_generation == 3
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads), (
                "hung traffic thread"
            )
            assert mismatches == [], mismatches[:3]
            assert errors == [], errors[:3]

    def test_update_placement_is_rank_safe_and_bumps_generation(
        self, handmade_index
    ):
        with running_cluster(handmade_index, 2, 2) as (
            sharded,
            _groups,
            router,
        ):
            engine = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                for query in QUERIES:
                    assert_router_matches(client, engine, query, "context")
                assert router.service.placement_generation == 0

                # Shrink every group to its first replica — a placement
                # change that keeps the data identical.
                new_groups = {
                    shard_id: [addresses[0]]
                    for shard_id, addresses in router.service.cluster
                    .groups.items()
                }
                generation = router.service.update_placement(new_groups)
                assert generation == 1

                health = client.request({"op": "healthz"})
                assert health["placement_generation"] == 1
                assert (
                    health["version_vector"]["placement_generation"] == 1
                )
                assert health["replication"] == 2  # config unchanged
                for group in health["groups"]:
                    assert len(group["replicas"]) == 1

                # Rankings are placement-independent: still bit-identical.
                for query in QUERIES:
                    assert_router_matches(client, engine, query, "context")

                # A placement cover gap is refused readably.
                with pytest.raises(QueryError, match="placement"):
                    router.service.update_placement({0: ["127.0.0.1:1"]})
            finally:
                client.close()
                engine.close()


# ---------------------------------------------------------------------------
# Placement and cluster config


class TestPlacement:
    WORKERS = [f"10.0.0.{i}:7100" for i in range(1, 7)]

    def test_deterministic(self):
        first = place_shards(self.WORKERS, 8, 2)
        second = place_shards(self.WORKERS, 8, 2)
        assert first == second

    def test_groups_are_distinct_workers(self):
        groups = place_shards(self.WORKERS, 8, 3)
        assert set(groups) == set(range(8))
        for replicas in groups.values():
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert set(replicas) <= set(self.WORKERS)

    def test_replication_capped_at_cluster_size(self):
        groups = place_shards(["a:1", "b:2"], 2, 5)
        for replicas in groups.values():
            assert len(replicas) == 2

    def test_removal_moves_only_affected_shards(self):
        before = place_shards(self.WORKERS, 16, 1)
        after = place_shards(self.WORKERS[:-1], 16, 1)
        lost = self.WORKERS[-1]
        for shard_id, replicas in before.items():
            if lost not in replicas:
                assert after[shard_id] == replicas

    def test_ring_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            HashRing(["a:1", "a:1"])


class TestClusterConfig:
    def payload(self, **overrides):
        payload = {
            "kind": "cluster",
            "num_shards": 2,
            "replication": 2,
            "workers": ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"],
        }
        payload.update(overrides)
        return payload

    def test_ring_placement_from_workers(self):
        config = ClusterConfig.from_payload(self.payload())
        assert set(config.groups) == {0, 1}
        for shard_id in (0, 1):
            assert len(config.groups[shard_id]) == 2
            assert config.replicas(shard_id)[0][0] == "127.0.0.1"

    def test_explicit_groups_override_ring(self):
        config = ClusterConfig.from_payload(
            self.payload(
                groups=[
                    {"shard": 0, "replicas": ["127.0.0.1:9001"]},
                    {"shard": 1, "replicas": ["127.0.0.1:9002"]},
                ]
            )
        )
        assert config.groups[0] == ["127.0.0.1:9001"]
        assert config.groups[1] == ["127.0.0.1:9002"]

    def test_round_trips_through_payload(self):
        config = ClusterConfig.from_payload(self.payload())
        again = ClusterConfig.from_payload(config.to_payload())
        assert again.groups == config.groups
        assert again.router.fail_threshold == config.router.fail_threshold

    @pytest.mark.parametrize(
        ("mutation", "match"),
        [
            ({"kind": "nope"}, "kind='cluster'"),
            ({"num_shards": 0}, "num_shards"),
            ({"replication": 0}, "replication"),
            ({"workers": ["no-port"]}, "host:port"),
            ({"workers": ["h:not-a-number"]}, "non-numeric"),
            ({"workers": ["h:99999"]}, "out-of-range"),
            ({"workers": []}, "workers"),
            ({"router": {"fail_threshold": 0}}, "fail_threshold"),
            ({"router": {"health_interval_s": 0}}, "health_interval_s"),
            ({"router": {"attempt_timeout_ms": 0}}, "attempt_timeout_ms"),
            (
                {"groups": [{"shard": 0, "replicas": []}]},
                "empty replica group",
            ),
            (
                {"groups": [{"shard": 0, "replicas": ["h:1"]}]},
                "missing for shards",
            ),
        ],
    )
    def test_validation_errors_are_readable(self, mutation, match):
        with pytest.raises(ClusterConfigError, match=match):
            ClusterConfig.from_payload(self.payload(**mutation))

    def test_load_cluster_config_names_the_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ClusterConfigError, match="nope.json"):
            load_cluster_config(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ClusterConfigError, match="not valid JSON"):
            load_cluster_config(bad)
        good = tmp_path / "cluster.json"
        good.write_text(
            json.dumps(
                {
                    "kind": "cluster",
                    "num_shards": 1,
                    "workers": ["127.0.0.1:7101"],
                }
            )
        )
        config = load_cluster_config(good)
        assert config.groups[0] == ["127.0.0.1:7101"]

    def test_parse_address(self):
        assert parse_address("example.org:7070") == ("example.org", 7070)
        with pytest.raises(ClusterConfigError, match="host:port"):
            parse_address("7070")


# ---------------------------------------------------------------------------
# Workload-state persistence (satellite of the serving tier: survive
# restarts and failovers)


class TestWorkloadPersistence:
    def build_recorder(self) -> WorkloadRecorder:
        recorder = WorkloadRecorder(capacity=8, floor=0.1)
        for _ in range(3):
            recorder.record(["DigestiveSystem"], context_size=4)
        recorder.record(["Neoplasms", "Diseases"], context_size=3)
        recorder.decay(0.5)
        recorder.record(["Blood"], context_size=2)
        return recorder

    @staticmethod
    def entries(recorder):
        return [
            (sorted(e.predicates), e.frequency, e.context_size)
            for e in recorder.to_workload()
        ]

    def test_payload_round_trip_is_exact(self):
        recorder = self.build_recorder()
        clone = WorkloadRecorder.from_payload(recorder.to_payload())
        assert self.entries(clone) == self.entries(recorder)
        assert clone.total_recorded == recorder.total_recorded
        assert clone.capacity == recorder.capacity
        assert clone.floor == recorder.floor
        # Weights survive as decayed floats, not rounded frequencies.
        assert clone.to_payload() == recorder.to_payload()

    def test_restore_in_place(self):
        recorder = self.build_recorder()
        target = WorkloadRecorder(capacity=8)
        target.record(["Stale"], context_size=9)
        target.restore(recorder.to_payload())
        assert self.entries(target) == self.entries(recorder)
        assert target.recorded_since_mark == 0

    def test_restore_respects_own_capacity(self):
        recorder = self.build_recorder()
        tiny = WorkloadRecorder(capacity=1)
        tiny.restore(recorder.to_payload())
        assert len(tiny) == 1

    def test_save_and_load_state_file(self, tmp_path):
        recorder = self.build_recorder()
        state = tmp_path / "workload.json"
        save_workload_state(recorder, state)
        loaded = WorkloadRecorder.from_payload(load_workload_state(state))
        assert self.entries(loaded) == self.entries(recorder)

    def test_load_errors_name_the_file(self, tmp_path):
        with pytest.raises(SelectionError, match="workload.json"):
            load_workload_state(tmp_path / "workload.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        with pytest.raises(SelectionError, match="not valid JSON"):
            load_workload_state(bad)

    def test_rejects_foreign_payloads(self):
        with pytest.raises(SelectionError, match="workload-recorder"):
            WorkloadRecorder.from_payload({"kind": "cluster"})
        with pytest.raises(SelectionError, match="malformed"):
            WorkloadRecorder.from_payload(
                {
                    "kind": "workload-recorder",
                    "contexts": [{"predicates": ["A"]}],
                }
            )


# ---------------------------------------------------------------------------
# Multi-endpoint load generation


class TestMultiEndpointLoad:
    QUERIES = ["pancreas | DigestiveSystem", "leukemia | Neoplasms"] * 4

    def test_round_robin_with_per_endpoint_breakdown(self, handmade_index):
        with ServerThread(
            ContextSearchEngine(handmade_index), _worker_config()
        ) as first, ServerThread(
            ContextSearchEngine(handmade_index), _worker_config()
        ) as second:
            report = run_load(
                [first.address, second.address], self.QUERIES, threads=4
            )
            assert report.ok == report.sent == len(self.QUERIES)
            keys = {
                "{}:{}".format(*first.address),
                "{}:{}".format(*second.address),
            }
            assert set(report.endpoints) == keys
            assert (
                sum(s.sent for s in report.endpoints.values()) == report.sent
            )
            for stats in report.endpoints.values():
                assert stats.sent > 0
                assert len(stats.latencies) == stats.sent
            assert set(report.to_dict()["endpoints"]) == keys

    def test_single_endpoint_report_shape_is_unchanged(self, handmade_index):
        with ServerThread(
            ContextSearchEngine(handmade_index), _worker_config()
        ) as only:
            report = run_load(only.address, self.QUERIES, threads=2)
            assert report.ok == report.sent
            assert "endpoints" not in report.to_dict()
