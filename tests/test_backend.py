"""SearchBackend conformance: one contract, four engine shapes.

Every engine in the repo — flat :class:`ContextSearchEngine`, in-process
:class:`ShardedEngine`, :class:`LifecycleEngine`, and the cluster
:class:`RouterService` — must satisfy the same structural protocol from
:mod:`repro.core.backend`: a hashable :class:`VersionVector` ``version``
property, an ``install_catalog`` entry point that bumps exactly the
vector's catalog component and never changes a ranking, and an
idempotent ``close``.  This suite runs the identical checklist against
all four, the shared batch contract (``search_many``, ``kind``,
``version``) against every in-process shape, plus unit coverage for the coherence primitives themselves
(:class:`VersionClock`, :class:`VersionVector`,
:class:`VersionAuthority`) and the deprecated swap shims.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import (
    ContextSearchEngine,
    IncrementalReselector,
    ShardedEngine,
    ShardedInvertedIndex,
    ViewCatalog,
    build_index,
    materialize_view,
)
from repro.core.backend import (
    SearchBackend,
    VersionAuthority,
    VersionClock,
    VersionVector,
)
from repro.lifecycle import LifecycleEngine, SegmentedIndex
from repro.selection.workload_driven import WorkloadEntry
from repro.service import QueryService, ServiceClient
from repro.service.protocol import Request
from repro.views import WideSparseTable

from .conftest import HANDMADE_DOCS
from .test_cluster import running_cluster

QUERY = "pancreas | DigestiveSystem"


def digestive_catalog(index) -> ViewCatalog:
    table = WideSparseTable.from_index(index)
    view = materialize_view(
        table,
        {"DigestiveSystem"},
        df_terms=["pancreas"],
        tc_terms=["pancreas"],
    )
    return ViewCatalog([view])


def ranking_of(engine, query=QUERY, top_k=6):
    results = engine.search(query, top_k=top_k)
    return [(h.external_id, h.score) for h in results.hits]


def assert_conforms(backend, catalog, ranking_before):
    """The shared conformance checklist, identical for every shape."""
    assert isinstance(backend, SearchBackend)

    vector = backend.version
    assert isinstance(vector, VersionVector)
    assert backend.version == vector  # stable across reads
    assert {vector: "cache-entry"}[vector] == "cache-entry"  # hashable

    generation = backend.install_catalog(
        catalog, info={"trigger": "conformance"}
    )
    assert isinstance(generation, int)

    after = backend.version
    assert after.catalog_generation == generation
    assert after.catalog_generation > vector.catalog_generation
    assert after.placement_generation == vector.placement_generation
    assert after != vector  # any component moving invalidates caches
    assert backend.last_reselection == {"trigger": "conformance"}
    return generation


# ---------------------------------------------------------------------------
# Coherence primitives


class TestVersionClock:
    def test_monotonic_advance(self):
        clock = VersionClock()
        assert clock.version == 0
        assert clock.advance() == 1
        assert clock.advance() == 2

    def test_advance_to_never_moves_backwards(self):
        clock = VersionClock(5)
        assert clock.advance_to(3) == 5
        assert clock.advance_to(9) == 9
        assert clock.version == 9

    def test_thread_safety(self):
        clock = VersionClock()

        def bump():
            for _ in range(200):
                clock.advance()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert clock.version == 8 * 200

    def test_shim_module_reexports_same_class(self):
        from repro.lifecycle.version import VersionClock as Shimmed

        assert Shimmed is VersionClock


class TestVersionVector:
    def test_equality_and_hash_key(self):
        a = VersionVector(epoch=3, catalog_generation=1)
        b = VersionVector(epoch=3, catalog_generation=1)
        assert a == b and hash(a) == hash(b)
        # Every component participates in inequality.
        assert a != VersionVector(epoch=4, catalog_generation=1)
        assert a != VersionVector(epoch=3, catalog_generation=2)
        assert a != VersionVector(
            epoch=3, catalog_generation=1, placement_generation=1
        )

    def test_opaque_epoch_supports_cluster_tuples(self):
        vector = VersionVector(epoch=(2, 5), catalog_generation=1)
        assert hash(vector) is not None
        assert vector != VersionVector(epoch=(2, 6), catalog_generation=1)

    def test_dict_roundtrip_int_and_tuple_epochs(self):
        for epoch in (7, (1, 2, 3)):
            vector = VersionVector(
                epoch=epoch, catalog_generation=4, placement_generation=2
            )
            payload = vector.to_dict()
            # Wire form is JSON-safe: tuples become lists.
            assert payload["epoch"] == (
                list(epoch) if isinstance(epoch, tuple) else epoch
            )
            assert VersionVector.from_dict(payload) == vector

    def test_as_tuple(self):
        assert VersionVector(1, 2, 3).as_tuple() == (1, 2, 3)


class TestVersionAuthority:
    def test_reads_epoch_from_source(self):
        state = {"epoch": 10}
        authority = VersionAuthority(epoch_source=lambda: state["epoch"])
        assert authority.vector() == VersionVector(epoch=10)
        state["epoch"] = 11
        assert authority.vector().epoch == 11

    def test_bumps_are_independent(self):
        authority = VersionAuthority()
        assert authority.bump_catalog() == 1
        assert authority.bump_placement() == 1
        assert authority.bump_placement() == 2
        assert authority.vector() == VersionVector(
            epoch=0, catalog_generation=1, placement_generation=2
        )

    def test_bump_adopts_shipped_generation(self):
        authority = VersionAuthority()
        assert authority.bump_catalog(generation=7) == 7
        # Never backwards: a stale shipped generation is absorbed.
        assert authority.bump_catalog(generation=4) == 7


# ---------------------------------------------------------------------------
# The conformance checklist, per shape


class TestFlatConformance:
    def test_contract(self):
        index = build_index(HANDMADE_DOCS)
        with ContextSearchEngine(index) as engine:
            before = ranking_of(engine)
            assert_conforms(engine, digestive_catalog(index), before)
            assert ranking_of(engine) == before  # bit-identical post-swap
        engine.close()  # idempotent


class TestShardedConformance:
    def test_contract(self):
        index = build_index(HANDMADE_DOCS)
        sharded = ShardedInvertedIndex.from_index(
            index, 2, partitioner="hash"
        )
        with ShardedEngine(sharded) as engine:
            before = ranking_of(engine)
            # A whole-collection catalog: definitions re-materialise
            # per shard inside install_catalog.
            assert_conforms(engine, digestive_catalog(index), before)
            assert ranking_of(engine) == before
            engine.close()  # idempotent


class TestLifecycleConformance:
    def test_contract(self):
        with LifecycleEngine(SegmentedIndex()) as engine:
            engine.ingest(HANDMADE_DOCS)
            engine.flush()
            before = ranking_of(engine)

            reselector = IncrementalReselector(storage_budget=100_000)
            catalog, _report = reselector.reselect(
                engine.index.snapshot(),
                [WorkloadEntry(frozenset({"DigestiveSystem"}), frequency=4)],
                trigger="conformance",
            )
            epoch_before = engine.version.epoch
            assert_conforms(engine, catalog, before)
            # Lifecycle installs happen at a snapshot-version boundary,
            # so (uniquely among the shapes) the data epoch moves too.
            assert engine.version.epoch > epoch_before
            assert ranking_of(engine) == before
        engine.close()  # idempotent


class TestClusterConformance:
    def test_contract(self, handmade_index):
        with running_cluster(handmade_index, 2, 1) as (
            sharded,
            _groups,
            router,
        ):
            service = router.service
            reference = ShardedEngine(sharded)
            client = ServiceClient(*router.address)
            try:
                client.request({"op": "healthz"})  # populate replica info
                before = [
                    (hit["doc"], hit["score"])
                    for hit in client.request(
                        {"op": "query", "query": QUERY, "top_k": 6}
                    )["hits"]
                ]
                assert before == ranking_of(reference)

                generation = assert_conforms(
                    service, digestive_catalog(handmade_index), before
                )

                # The cluster vector's epoch is the tuple of per-shard
                # worker epochs.
                assert isinstance(service.version.epoch, tuple)
                assert len(service.version.epoch) == 2

                # Every worker acked with the router's generation.
                health = client.request({"op": "healthz"})
                for group in health["groups"]:
                    for replica in group["replicas"]:
                        assert (
                            replica["version_vector"]["catalog_generation"]
                            == generation
                        )

                after = [
                    (hit["doc"], hit["score"])
                    for hit in client.request(
                        {"op": "query", "query": QUERY, "top_k": 6}
                    )["hits"]
                ]
                assert after == before  # bit-identical post-install
            finally:
                client.close()
                reference.close()


# ---------------------------------------------------------------------------
# The batch contract, once for every in-process shape


def _lifecycle(num_shards):
    engine = LifecycleEngine(SegmentedIndex(), num_shards=num_shards)
    engine.ingest(HANDMADE_DOCS)
    return engine, engine.close


def _flat():
    engine = ContextSearchEngine(build_index(HANDMADE_DOCS))
    return engine, engine.close


def _sharded():
    sharded = ShardedInvertedIndex.from_index(
        build_index(HANDMADE_DOCS), 2, partitioner="hash"
    )
    engine = ShardedEngine(sharded)
    return engine, engine.close


@pytest.fixture(
    params=[
        ("flat", _flat, "flat"),
        ("sharded", _sharded, "sharded"),
        ("lifecycle", lambda: _lifecycle(0), "lifecycle"),
        ("lifecycle-sharded", lambda: _lifecycle(2), "lifecycle"),
    ],
    ids=lambda param: param[0],
)
def batch_shape(request):
    _name, build, kind = request.param
    engine, close = build()
    yield engine, kind
    close()


class TestBatchContract:
    @pytest.mark.parametrize("mode", ["context", "conventional", "disjunctive"])
    def test_search_many_matches_single_queries(self, batch_shape, mode):
        engine, _kind = batch_shape
        single = {
            "context": engine.search,
            "conventional": engine.search_conventional,
            "disjunctive": engine.search_disjunctive,
        }[mode]
        expected = [(h.external_id, h.score) for h in single(QUERY).hits]
        report = engine.search_many(
            [QUERY, "no separator here", QUERY], mode=mode
        )
        assert [outcome.ok for outcome in report.outcomes] == [
            True, False, True,
        ]
        assert report.outcomes[1].error.startswith("QueryError")
        for slot in (0, 2):
            hits = report.outcomes[slot].results.hits
            assert [(h.external_id, h.score) for h in hits] == expected

    def test_kind_is_the_healthz_label(self, batch_shape):
        engine, kind = batch_shape
        assert engine.kind == kind
        assert isinstance(engine.version, VersionVector)
        service = QueryService(engine)
        try:
            health = asyncio.run(
                service.handle_request(Request(op="healthz"))
            )
        finally:
            service.close()
        assert health["engine"] == kind
        assert health["version_vector"] == engine.version.to_dict()
