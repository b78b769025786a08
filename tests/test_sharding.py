"""Sharded index + engine: exact merging, bit-identical parallel ranking.

The load-bearing property (ISSUE 2): for ANY shard count, partitioner,
ranking model, and evaluation mode, the sharded engine returns
byte-for-byte the single-shard :class:`ContextSearchEngine` answer —
same statistics, same float scores, same ranked order including docid
tie-breaks.  Everything here asserts exact equality (``==`` on floats),
never approximate.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    ContextSearchEngine,
    CorpusConfig,
    EmptyContextError,
    QueryError,
    ShardedEngine,
    ShardedInvertedIndex,
    WideSparseTable,
    ViewCatalog,
    fork_available,
    generate_corpus,
    load_any_index,
    load_index,
    load_sharded_index,
    make_partitioner,
    materialize_view,
    replicate_catalog,
    save_index,
    save_sharded_index,
)
from repro.core.ranking import ALL_RANKING_FUNCTIONS
from repro.core.operators import StatsMerge
from repro.core.statistics import UNIQUE_TERMS, StatisticSpec
from repro.data import generate_performance_workload
from repro.errors import IndexError_
from repro.storage import StorageError
from repro.index.sharded import (
    HashPartitioner,
    RangePartitioner,
    shard_documents,
)

SHARD_COUNTS = (1, 2, 3, 8)
PARTITIONERS = ("hash", "range")


def hit_tuples(results):
    """The full bit-identity signature of a ranked answer."""
    return [(h.doc_id, h.external_id, h.score) for h in results.hits]


def stats_tuple(stats):
    return (
        stats.cardinality,
        stats.total_length,
        dict(stats.df),
        dict(stats.tc),
        stats.unique_terms,
    )


# ---------------------------------------------------------------------------
# Partitioners


class TestPartitioners:
    def test_hash_is_stable_and_in_range(self):
        part = HashPartitioner(4)
        first = [part.assign(f"D{i}", i, 100) for i in range(100)]
        second = [part.assign(f"D{i}", 999, 1) for i in range(100)]
        assert first == second  # position-independent
        assert all(0 <= s < 4 for s in first)
        assert len(set(first)) > 1  # actually spreads

    def test_range_is_contiguous_and_balanced(self):
        part = RangePartitioner(4)
        assigned = [part.assign("x", pos, 100) for pos in range(100)]
        assert assigned == sorted(assigned)  # arrival-order ranges
        assert [assigned.count(s) for s in range(4)] == [25, 25, 25, 25]

    def test_range_handles_remainders(self):
        part = RangePartitioner(3)
        assigned = [part.assign("x", pos, 10) for pos in range(10)]
        assert assigned == sorted(assigned)
        assert set(assigned) == {0, 1, 2}

    def test_make_partitioner_rejects_unknown(self):
        with pytest.raises(IndexError_, match="unknown partitioner"):
            make_partitioner("round-robin", 2)

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(IndexError_, match="num_shards"):
            HashPartitioner(0)

    def test_shard_documents_partitions_exactly(self, corpus):
        docs = corpus.documents[:200]
        for name in PARTITIONERS:
            buckets = shard_documents(docs, make_partitioner(name, 3))
            flattened = [d.doc_id for bucket in buckets for d in bucket]
            assert sorted(flattened) == sorted(d.doc_id for d in docs)
            assert len(flattened) == len(set(flattened))


# ---------------------------------------------------------------------------
# Global statistics of the sharded index (exact additive merges)


class TestGlobalStatistics:
    @pytest.fixture(scope="class", params=PARTITIONERS)
    def sharded(self, request, corpus_index):
        return ShardedInvertedIndex.from_index(
            corpus_index, 3, partitioner=request.param
        )

    def test_cardinality_and_length(self, sharded, corpus_index):
        assert sharded.num_docs == corpus_index.num_docs
        assert sharded.total_length == corpus_index.total_length
        assert (
            sharded.average_document_length()
            == corpus_index.average_document_length()
        )
        assert len(sharded) == len(corpus_index)

    def test_per_term_statistics(self, sharded, corpus_index):
        terms = sorted(corpus_index.vocabulary)[::50]  # every 50th term
        assert terms
        for term in terms:
            assert sharded.document_frequency(
                term
            ) == corpus_index.document_frequency(term)
            assert sharded.term_count(term) == sum(
                tf for _, tf in corpus_index.postings(term)
            )
            assert sharded.max_tf(term) == corpus_index.postings(term).max_tf

    def test_shards_partition_the_collection(self, sharded, corpus_index):
        seen = []
        for shard in sharded.shards:
            seen.extend(shard.global_ids)
        assert sorted(seen) == list(range(corpus_index.num_docs))

    def test_build_matches_from_index(self, corpus):
        docs = corpus.documents[:300]
        built = ShardedInvertedIndex.build(docs, 3, partitioner="hash")
        from repro import build_index

        flat = build_index(docs)
        resharded = ShardedInvertedIndex.from_index(flat, 3, partitioner="hash")
        assert [s.index.num_docs for s in built.shards] == [
            s.index.num_docs for s in resharded.shards
        ]
        assert built.total_length == resharded.total_length
        for term in sorted(flat.vocabulary)[::40]:
            assert built.document_frequency(term) == flat.document_frequency(term)


# ---------------------------------------------------------------------------
# The headline property: bit-identical ranking for every configuration


@pytest.fixture(scope="module", params=(31, 77), ids=("corpus-a", "corpus-b"))
def random_stack(request):
    """A random corpus, its flat index, and a mixed query workload."""
    corpus = generate_corpus(CorpusConfig(num_docs=550, seed=request.param))
    index = corpus.build_index()
    t_c = max(index.num_docs // 50, 10)
    workload = generate_performance_workload(
        corpus,
        index,
        t_c=t_c,
        kind="large",
        keyword_counts=(2, 3),
        queries_per_count=3,
        seed=5,
    )
    queries = [wq.query for wq in workload.all_queries()]
    assert queries
    return {"corpus": corpus, "index": index, "queries": queries}


@pytest.fixture(scope="module")
def sharded_variants(random_stack):
    """Every (shard count, partitioner) re-sharding of the random corpus."""
    return {
        (n, name): ShardedInvertedIndex.from_index(
            random_stack["index"], n, partitioner=name
        )
        for n in SHARD_COUNTS
        for name in PARTITIONERS
    }


class TestBitIdenticalProperty:
    @pytest.mark.parametrize("model_name", sorted(ALL_RANKING_FUNCTIONS))
    def test_all_modes_match_single_shard(
        self, random_stack, sharded_variants, model_name
    ):
        model_cls = ALL_RANKING_FUNCTIONS[model_name]
        ranking = model_cls()
        reference = ContextSearchEngine(random_stack["index"], ranking=ranking)
        queries = random_stack["queries"]

        expected = {}
        for i, query in enumerate(queries):
            ctx = reference.search(query)
            conv = reference.search_conventional(query)
            expected[i] = {
                "context": (hit_tuples(ctx), ctx.report.context_size,
                            ctx.report.result_size),
                "conventional": (hit_tuples(conv), conv.report.result_size),
            }
            if ranking.decomposable:
                dis = reference.search_disjunctive(query, top_k=10)
                expected[i]["disjunctive"] = hit_tuples(dis)

        for (n, name), sharded in sharded_variants.items():
            with ShardedEngine(
                sharded, ranking=model_cls(), executor="serial"
            ) as engine:
                for i, query in enumerate(queries):
                    ctx = engine.search(query)
                    assert (
                        hit_tuples(ctx),
                        ctx.report.context_size,
                        ctx.report.result_size,
                    ) == expected[i]["context"], (
                        f"context mismatch: {n} shards/{name}, query {i}"
                    )
                    conv = engine.search_conventional(query)
                    assert (
                        hit_tuples(conv),
                        conv.report.result_size,
                    ) == expected[i]["conventional"], (
                        f"conventional mismatch: {n} shards/{name}, query {i}"
                    )
                    if ranking.decomposable:
                        dis = engine.search_disjunctive(query, top_k=10)
                        assert hit_tuples(dis) == expected[i]["disjunctive"], (
                            f"disjunctive mismatch: {n} shards/{name}, query {i}"
                        )

    def test_context_statistics_merge_exactly(
        self, random_stack, sharded_variants
    ):
        reference = ContextSearchEngine(random_stack["index"])
        contexts = [q.context for q in random_stack["queries"][:4]]
        keyword_sets = [list(q.keywords) for q in random_stack["queries"][:4]]
        for (n, name), sharded in sharded_variants.items():
            with ShardedEngine(sharded, executor="serial") as engine:
                for context, keywords in zip(contexts, keyword_sets):
                    assert stats_tuple(
                        engine.context_statistics(context, keywords)
                    ) == stats_tuple(
                        reference.context_statistics(context, keywords)
                    ), f"stats mismatch: {n} shards/{name}"

    def test_top_k_truncation_matches(self, random_stack, sharded_variants):
        reference = ContextSearchEngine(random_stack["index"])
        query = random_stack["queries"][0]
        sharded = sharded_variants[(3, "hash")]
        with ShardedEngine(sharded, executor="serial") as engine:
            for k in (1, 3, 10):
                assert hit_tuples(engine.search(query, top_k=k)) == hit_tuples(
                    reference.search(query, top_k=k)
                )


# ---------------------------------------------------------------------------
# Execution backends never change answers


MODES = ("context", "conventional", "disjunctive")


def answer_signature(results, mode):
    """Hits plus the whole report, bar the wall-clock field.

    Disjunctive top-k also drops its pruning work counts: backends that
    share memory pass shards one live threshold, a pruning accelerator
    whose effect depends on shard order and thread timing, and the fork
    backend has none.  Hits and every other report field still match.
    """
    report = results.report.to_dict()
    del report["elapsed_seconds"]
    if mode == "disjunctive":
        del report["counter"], report["topk"]
        for shard in report["per_shard"]:
            del shard["counter"], shard["result_size"]
    return hit_tuples(results), report


def batch_signature(batch):
    """Every slot of a ``search_many`` batch: its error or its answer."""
    return [
        answer_signature(o.results, batch.mode) if o.ok else o.error
        for o in batch.outcomes
    ]


EXECUTORS = (
    "thread",
    pytest.param(
        "fork",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method missing"
        ),
    ),
)


class TestBackends:
    @pytest.fixture(scope="class")
    def sharded(self, random_stack):
        return ShardedInvertedIndex.from_index(
            random_stack["index"], 3, partitioner="hash"
        )

    @pytest.fixture(scope="class")
    def serial_answers(self, random_stack, sharded):
        with ShardedEngine(sharded, executor="serial") as engine:
            return {
                mode: [
                    answer_signature(engine.explain(q, mode=mode), mode)
                    for q in random_stack["queries"]
                ]
                for mode in MODES
            }

    def assert_backend_identical(self, executor, queries, sharded, serial_answers):
        with ShardedEngine(sharded, executor=executor) as engine:
            assert engine.executor_name == executor
            for mode in MODES:
                got = [
                    answer_signature(engine.explain(q, mode=mode), mode)
                    for q in queries
                ]
                assert got == serial_answers[mode], mode

    def test_thread_backend_identical(
        self, random_stack, sharded, serial_answers
    ):
        self.assert_backend_identical(
            "thread", random_stack["queries"], sharded, serial_answers
        )

    @pytest.mark.skipif(not fork_available(), reason="fork start method missing")
    def test_fork_backend_identical(
        self, random_stack, sharded, serial_answers
    ):
        self.assert_backend_identical(
            "fork", random_stack["queries"], sharded, serial_answers
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_concurrent_batches_stay_apart(
        self, random_stack, sharded, executor, mode
    ):
        """Two threads drive different batches through one engine at
        once; every answer equals the single-threaded serial one (shard
        ops keep no per-query state that batches could share)."""
        queries = random_stack["queries"]
        batches = [queries[: len(queries) // 2], queries[len(queries) // 2 :]]
        with ShardedEngine(sharded, executor="serial") as engine:
            expected = [
                batch_signature(engine.search_many(batch, mode=mode))
                for batch in batches
            ]
        with ShardedEngine(sharded, executor=executor) as engine:

            def run(slot):
                return [
                    (slot, round_no)
                    for round_no in range(50)
                    if batch_signature(
                        engine.search_many(batches[slot], mode=mode)
                    )
                    != expected[slot]
                ]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)  # interleave the batches finely
            try:
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [pool.submit(run, slot) for slot in (0, 1)]
                    mismatches = [
                        m for future in futures for m in future.result(300)
                    ]
            finally:
                sys.setswitchinterval(interval)
        assert mismatches == []

    def test_close_is_idempotent(self, sharded):
        engine = ShardedEngine(sharded, executor="thread")
        engine.close()
        engine.close()


# ---------------------------------------------------------------------------
# Views path: replicated catalogs, identical answers, per-shard coverage


class TestShardedViews:
    @pytest.fixture(scope="class")
    def stack(self, random_stack):
        index = random_stack["index"]
        query = random_stack["queries"][0]
        table = WideSparseTable.from_index(index)
        view = materialize_view(
            table,
            set(query.context.predicates),
            df_terms=list(query.keywords),
            tc_terms=list(query.keywords),
        )
        catalog = ViewCatalog([view])
        sharded = ShardedInvertedIndex.from_index(index, 3, partitioner="hash")
        return {
            "index": index,
            "query": query,
            "catalog": catalog,
            "sharded": sharded,
        }

    def test_views_path_matches_straightforward(self, stack):
        flat_views = ContextSearchEngine(stack["index"], catalog=stack["catalog"])
        flat_plain = ContextSearchEngine(stack["index"])
        catalogs = replicate_catalog(stack["sharded"], stack["catalog"])
        with ShardedEngine(
            stack["sharded"], catalogs=catalogs, executor="serial"
        ) as engine:
            sharded_result = engine.search(stack["query"])
            path = sharded_result.report.resolution.path
        flat = flat_views.search(stack["query"])
        plain = flat_plain.search(stack["query"])
        assert flat.report.resolution.path == "views"
        assert path == "sharded-views"
        assert hit_tuples(sharded_result) == hit_tuples(flat) == hit_tuples(plain)

    def test_catalog_count_must_match_shards(self, stack):
        catalogs = replicate_catalog(stack["sharded"], stack["catalog"])
        with pytest.raises(QueryError, match="catalogs for"):
            ShardedEngine(stack["sharded"], catalogs=catalogs[:1])


# ---------------------------------------------------------------------------
# Error parity with the single-shard engine


class TestErrorParity:
    @pytest.fixture(scope="class")
    def engines(self, corpus_index):
        sharded = ShardedInvertedIndex.from_index(corpus_index, 3)
        engine = ShardedEngine(sharded, executor="serial")
        yield ContextSearchEngine(corpus_index), engine
        engine.close()

    def test_empty_context(self, engines):
        flat, sharded = engines
        query = "therapy | NoSuchPredicateAnywhere"
        with pytest.raises(EmptyContextError):
            flat.search(query)
        with pytest.raises(EmptyContextError):
            sharded.search(query)

    def test_stopword_only_keywords(self, engines):
        flat, sharded = engines
        query = "the | Diseases"
        with pytest.raises(QueryError) as flat_exc:
            flat.search(query)
        with pytest.raises(QueryError) as sharded_exc:
            sharded.search(query)
        assert str(sharded_exc.value) == str(flat_exc.value)

    def test_disjunctive_needs_decomposable_model(self, engines, corpus_index):
        _, _ = engines
        dirichlet = ALL_RANKING_FUNCTIONS["dirichlet-lm"]()
        flat = ContextSearchEngine(corpus_index, ranking=dirichlet)
        sharded_index = ShardedInvertedIndex.from_index(corpus_index, 2)
        with pytest.raises(QueryError) as flat_exc:
            flat.search_disjunctive("therapy | Diseases")
        with ShardedEngine(
            sharded_index,
            ranking=ALL_RANKING_FUNCTIONS["dirichlet-lm"](),
            executor="serial",
        ) as engine:
            with pytest.raises(QueryError) as sharded_exc:
                engine.search_disjunctive("therapy | Diseases")
        assert str(sharded_exc.value) == str(flat_exc.value)

    def test_non_additive_statistic_rejected(self):
        with pytest.raises(QueryError, match="not additive"):
            StatsMerge.check_additive([StatisticSpec(UNIQUE_TERMS)])

    def test_uncommitted_shards_rejected(self, corpus):
        from repro import InvertedIndex
        from repro.index.sharded import IndexShard
        from array import array

        index = InvertedIndex()
        index.add(corpus.documents[0])
        shard = IndexShard(0, index, array("q", [0]))
        sharded = ShardedInvertedIndex(
            [shard], make_partitioner("hash", 1)
        )
        with pytest.raises(QueryError, match="committed"):
            ShardedEngine(sharded)


# ---------------------------------------------------------------------------
# Batched execution (search_many)


class TestSearchMany:
    @pytest.fixture(scope="class")
    def engines(self, random_stack):
        sharded = ShardedInvertedIndex.from_index(random_stack["index"], 3)
        engine = ShardedEngine(sharded, executor="serial")
        yield ContextSearchEngine(random_stack["index"]), engine
        engine.close()

    def test_batch_equals_per_query(self, random_stack, engines):
        _, engine = engines
        queries = random_stack["queries"]
        report = engine.search_many(queries, top_k=10)
        assert len(report) == len(queries)
        assert report.workers == 1  # the serial backend runs one shard at a time
        for query, outcome in zip(queries, report.outcomes):
            assert outcome.ok
            single = engine.search(query, top_k=10)
            assert hit_tuples(outcome.results) == hit_tuples(single)

    @pytest.mark.parametrize(
        "executor, max_workers, expected",
        [("serial", None, 1), ("serial", 3, 1), ("thread", None, 3),
         ("thread", 2, 2), ("thread", 8, 3)],
    )
    def test_report_counts_backend_parallelism(
        self, random_stack, executor, max_workers, expected
    ):
        """``workers`` is how many shard slices run at once, not the
        shard count."""
        sharded = ShardedInvertedIndex.from_index(random_stack["index"], 3)
        with ShardedEngine(
            sharded, executor=executor, max_workers=max_workers
        ) as engine:
            report = engine.search_many(random_stack["queries"][:2])
        assert report.workers == expected

    def test_invalid_max_workers_rejected(self, random_stack):
        sharded = ShardedInvertedIndex.from_index(random_stack["index"], 3)
        with pytest.raises(QueryError, match="max_workers"):
            ShardedEngine(sharded, executor="thread", max_workers=0)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_backend_honours_max_workers(self, random_stack, engines):
        _, serial = engines
        queries = random_stack["queries"][:3]
        sharded = ShardedInvertedIndex.from_index(random_stack["index"], 3)
        with ShardedEngine(sharded, executor="fork", max_workers=2) as engine:
            report = engine.search_many(queries, top_k=10)
        assert report.workers == 2
        for query, outcome in zip(queries, report.outcomes):
            assert hit_tuples(outcome.results) == hit_tuples(
                serial.search(query, top_k=10)
            )

    def test_batch_records_failures_in_order(self, random_stack, engines):
        _, engine = engines
        good = random_stack["queries"][0]
        bad = "therapy | NoSuchPredicateAnywhere"
        report = engine.search_many([good, bad, good])
        assert [o.ok for o in report.outcomes] == [True, False, True]
        assert report.outcomes[1].error.startswith("EmptyContextError:")

    def test_batch_modes(self, random_stack, engines):
        flat, engine = engines
        queries = random_stack["queries"][:3]
        for mode, run in (
            ("conventional", lambda q: flat.search_conventional(q, top_k=10)),
            ("disjunctive", lambda q: flat.search_disjunctive(q, top_k=10)),
        ):
            report = engine.search_many(queries, top_k=10, mode=mode)
            assert report.mode == mode
            for query, outcome in zip(queries, report.outcomes):
                assert outcome.ok, outcome.error
                assert hit_tuples(outcome.results) == hit_tuples(run(query))

    def test_unknown_mode_rejected(self, engines):
        _, engine = engines
        with pytest.raises(QueryError, match="unknown batch mode"):
            engine.search_many(["a | B"], mode="fanout")


# ---------------------------------------------------------------------------
# Persistence: shard manifests


class TestShardedStorage:
    def test_roundtrip_preserves_answers(self, tmp_path, random_stack):
        sharded = ShardedInvertedIndex.from_index(
            random_stack["index"], 3, partitioner="range"
        )
        path = tmp_path / "corpus.idx.json.gz"
        save_sharded_index(sharded, path)
        assert path.exists()
        for shard_id in range(3):
            assert (tmp_path / f"corpus.shard{shard_id}.idx.json.gz").exists()

        loaded = load_sharded_index(path)
        assert loaded.num_shards == 3
        assert loaded.partitioner.name == "range"
        assert loaded.num_docs == sharded.num_docs
        query = random_stack["queries"][0]
        with ShardedEngine(sharded, executor="serial") as a, ShardedEngine(
            loaded, executor="serial"
        ) as b:
            assert hit_tuples(a.search(query)) == hit_tuples(b.search(query))

    def test_load_any_index_dispatches(self, tmp_path, random_stack):
        flat_path = tmp_path / "flat.json.gz"
        save_index(random_stack["index"], flat_path)
        sharded_path = tmp_path / "sharded.json.gz"
        save_sharded_index(
            ShardedInvertedIndex.from_index(random_stack["index"], 2),
            sharded_path,
        )
        assert load_any_index(flat_path).num_docs == random_stack["index"].num_docs
        loaded = load_any_index(sharded_path)
        assert isinstance(loaded, ShardedInvertedIndex)
        assert loaded.num_shards == 2

    def test_flat_loader_rejects_sharded_manifest(self, tmp_path, random_stack):
        path = tmp_path / "sharded.json.gz"
        save_sharded_index(
            ShardedInvertedIndex.from_index(random_stack["index"], 2), path
        )
        with pytest.raises(StorageError):
            load_index(path)
