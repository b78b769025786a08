"""Tests for the materialized-view subsystem: table, views, usability, answers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ContextSpecification
from repro.core.statistics import (
    cardinality_spec,
    df_spec,
    tc_spec,
    total_length_spec,
)
from repro.errors import ViewError, ViewNotUsableError
from repro.index.postings import CostCounter
from repro.views import (
    MaterializedView,
    ViewCatalog,
    WideSparseTable,
    materialize_many,
    materialize_view,
)


@pytest.fixture(scope="module")
def handmade_table(handmade_index):
    return WideSparseTable.from_index(handmade_index)


@pytest.fixture(scope="module")
def full_view(handmade_table, handmade_index):
    return materialize_view(
        handmade_table,
        {"Diseases", "DigestiveSystem", "Neoplasms", "Blood", "Nutrition"},
        df_terms=list(handmade_index.vocabulary),
        tc_terms=["leukemia", "pancrea"],
    )


class TestWideSparseTable:
    def test_one_row_per_document(self, handmade_table, handmade_index):
        assert len(handmade_table) == handmade_index.num_docs

    def test_row_contents(self, handmade_table, handmade_index):
        doc = handmade_index.store.by_external_id("C5")
        row = handmade_table.row(doc.internal_id)
        assert row.predicates == frozenset({"Diseases", "Neoplasms", "Blood"})
        assert row.length == doc.length

    def test_group_key_restricts_to_k(self, handmade_table, handmade_index):
        doc = handmade_index.store.by_external_id("C5")
        key = handmade_table.group_key(doc.internal_id, frozenset({"Blood", "Nutrition"}))
        assert key == frozenset({"Blood"})

    def test_group_keys_column(self, handmade_table):
        keys = handmade_table.group_keys(frozenset({"Diseases"}))
        assert len(keys) == len(handmade_table)
        assert all(k == frozenset({"Diseases"}) for k in keys)


class TestMaterializeView:
    def test_example_41_partition_semantics(self, handmade_table):
        """Example 4.1: groups partition the collection; COUNT sums to |D|."""
        view = materialize_view(
            handmade_table, {"DigestiveSystem", "Neoplasms"}
        )
        assert sum(g.count for g in view.groups.values()) == len(handmade_table)

    def test_group_aggregates_match_scan(self, handmade_table, full_view):
        for pattern, group in full_view.groups.items():
            rows = [
                row
                for row in handmade_table
                if row.predicates & full_view.keyword_set == pattern
            ]
            assert group.count == len(rows)
            assert group.sum_len == sum(r.length for r in rows)

    def test_view_size_counts_nonempty_tuples(self, handmade_table):
        view = materialize_view(handmade_table, {"DigestiveSystem", "Neoplasms"})
        # Patterns present: {DS}, {N}, {DS,N} — every doc has Diseases but
        # the grouped keys here are only over K.  C5 has N; C6 has DS...
        assert view.size == len(
            {
                row.predicates & frozenset({"DigestiveSystem", "Neoplasms"})
                for row in handmade_table
            }
        )

    def test_empty_keyword_set_rejected(self):
        with pytest.raises(ViewError):
            MaterializedView(frozenset(), {})


class TestUsability:
    """Theorem 4.1's two conditions."""

    def test_covered_context_usable(self, full_view):
        ctx = ContextSpecification(["DigestiveSystem", "Neoplasms"])
        assert full_view.is_usable_for(cardinality_spec(), ctx)

    def test_uncovered_context_not_usable(self, full_view):
        ctx = ContextSpecification(["SomethingElse"])
        assert not full_view.is_usable_for(cardinality_spec(), ctx)

    def test_missing_parameter_column_not_usable(self, handmade_table):
        view = materialize_view(handmade_table, {"Diseases"}, df_terms=["cancer"])
        ctx = ContextSpecification(["Diseases"])
        assert view.is_usable_for(df_spec("cancer"), ctx)
        assert not view.is_usable_for(df_spec("leukemia"), ctx)
        assert not view.is_usable_for(tc_spec("cancer"), ctx)

    def test_answer_raises_when_unusable(self, full_view):
        with pytest.raises(ViewNotUsableError):
            full_view.answer(
                cardinality_spec(), ContextSpecification(["Missing"])
            )


class TestAnswers:
    """View answers must equal ground-truth aggregations (Section 4.1)."""

    @pytest.mark.parametrize(
        "predicates",
        [
            ["Diseases"],
            ["DigestiveSystem"],
            ["Neoplasms"],
            ["DigestiveSystem", "Neoplasms"],
            ["Diseases", "Blood"],
        ],
    )
    def test_all_statistics_match_plan(
        self, full_view, handmade_engine, predicates
    ):
        ctx = ContextSpecification(predicates)
        truth = handmade_engine.context_statistics(ctx, ["leukemia", "pancreas"])
        assert full_view.answer(cardinality_spec(), ctx) == truth.cardinality
        assert full_view.answer(total_length_spec(), ctx) == truth.total_length
        assert full_view.answer(df_spec("leukemia"), ctx) == truth.df_for("leukemia")
        assert full_view.answer(df_spec("pancrea"), ctx) == truth.df_for("pancrea")

    def test_answer_many_single_scan(self, full_view):
        ctx = ContextSpecification(["DigestiveSystem"])
        counter = CostCounter()
        specs = [cardinality_spec(), total_length_spec(), df_spec("leukemia")]
        values = full_view.answer_many(specs, ctx, counter)
        assert len(values) == 3
        # One scan of the view, not one per spec.
        assert counter.entries_scanned == full_view.size

    def test_tc_column(self, full_view, handmade_engine):
        ctx = ContextSpecification(["Neoplasms"])
        # C3 has leukemia x4, C5 has leukemia x1, C1 none => tc = 5.
        assert full_view.answer(tc_spec("leukemia"), ctx) == 5


class TestStorage:
    def test_parameter_columns_counted(self, handmade_table):
        view = materialize_view(
            handmade_table, {"Diseases"}, df_terms=["a", "b"], tc_terms=["a"]
        )
        assert view.num_parameter_columns == 2 + 2 + 1

    def test_storage_scales_with_tuples(self, handmade_table):
        small = materialize_view(handmade_table, {"Diseases"})
        large = materialize_view(
            handmade_table, {"Diseases", "DigestiveSystem", "Neoplasms", "Blood"}
        )
        assert large.storage_bytes() > small.storage_bytes()


class TestCatalog:
    def test_picks_minimal_usable_view(self, handmade_table):
        big = materialize_view(
            handmade_table, {"Diseases", "DigestiveSystem", "Neoplasms"}
        )
        small = materialize_view(handmade_table, {"Diseases", "DigestiveSystem"})
        catalog = ViewCatalog([big, small])
        ctx = ContextSpecification(["DigestiveSystem"])
        chosen = catalog.find_usable(cardinality_spec(), ctx)
        assert chosen is small  # fewer tuples

    def test_resolve_splits_resolved_and_unresolved(self, handmade_table):
        view = materialize_view(handmade_table, {"Diseases"}, df_terms=["cancer"])
        catalog = ViewCatalog([view])
        ctx = ContextSpecification(["Diseases"])
        values, unresolved, used = catalog.resolve(
            [cardinality_spec(), df_spec("cancer"), df_spec("leukemia")], ctx
        )
        assert cardinality_spec() in values
        assert df_spec("cancer") in values
        assert unresolved == [df_spec("leukemia")]
        assert len(used) == 1

    def test_resolve_empty_catalog(self):
        catalog = ViewCatalog()
        ctx = ContextSpecification(["Diseases"])
        values, unresolved, used = catalog.resolve([cardinality_spec()], ctx)
        assert not values and not used
        assert unresolved == [cardinality_spec()]

    def test_stats(self, handmade_table):
        views = [
            materialize_view(handmade_table, {"Diseases"}),
            materialize_view(handmade_table, {"Neoplasms", "Blood"}),
        ]
        stats = ViewCatalog(views).stats()
        assert stats.num_views == 2
        assert stats.total_tuples == sum(v.size for v in views)
        assert stats.max_tuples == max(v.size for v in views)
        assert stats.total_storage_bytes > 0

    def test_empty_stats(self):
        stats = ViewCatalog().stats()
        assert stats.num_views == 0
        assert stats.total_storage_bytes == 0


class TestViewAnswerProperty:
    """Property: for random contexts over the synthetic corpus, a covering
    view answers exactly what the straightforward plan computes."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_view_equals_plan(self, data, corpus_table, corpus_index, corpus_engine):
        predicates = sorted(
            corpus_index.predicate_vocabulary,
            key=corpus_index.predicate_frequency,
            reverse=True,
        )[:6]
        subset = data.draw(
            st.lists(st.sampled_from(predicates), min_size=1, max_size=3, unique=True)
        )
        view = materialize_view(corpus_table, predicates, df_terms=["therapy"])
        ctx = ContextSpecification(subset)
        truth = corpus_engine.context_statistics(ctx, ["therapy"])
        assert view.answer(cardinality_spec(), ctx) == truth.cardinality
        assert view.answer(total_length_spec(), ctx) == truth.total_length
        assert view.answer(df_spec("therapy"), ctx) == truth.df_for("therapy")


class TestVectorizedAnswerMany:
    """The columnar answer_many fast path must be invisible: same values,
    same CostCounter charges as the tuple-scan reference, on every path
    (numpy, python fallback, post-maintenance rebuild)."""

    CONTEXTS = [
        ["Diseases"],
        ["DigestiveSystem", "Neoplasms"],
        ["Diseases", "Blood"],
        ["Nutrition"],
    ]

    def _specs(self, view):
        specs = [cardinality_spec(), total_length_spec()]
        specs += [df_spec(t) for t in sorted(view.df_terms)[:3]]
        specs += [tc_spec(t) for t in sorted(view.tc_terms)]
        return specs

    def assert_matches_reference(self, view):
        for predicates in self.CONTEXTS:
            ctx = ContextSpecification(predicates)
            fast_counter, ref_counter = CostCounter(), CostCounter()
            fast = view.answer_many(self._specs(view), ctx, fast_counter)
            ref = view._answer_many_reference(
                self._specs(view), ctx, ref_counter
            )
            assert fast == ref
            assert fast_counter.entries_scanned == ref_counter.entries_scanned
            assert fast_counter.model_cost == ref_counter.model_cost

    def test_numpy_path(self, full_view):
        self.assert_matches_reference(full_view)
        if __import__("repro.views.view", fromlist=["_np"])._np is not None:
            assert full_view._columns.use_numpy

    def test_python_fallback(self, full_view, monkeypatch):
        import repro.views.view as view_mod

        monkeypatch.setattr(view_mod, "_np", None)
        full_view.invalidate_columns()
        try:
            self.assert_matches_reference(full_view)
            assert not full_view._columns.use_numpy
        finally:
            full_view.invalidate_columns()  # rebuild with numpy next time

    def test_wide_keyword_sets_skip_numpy(self, handmade_table):
        import repro.views.view as view_mod

        view = materialize_view(
            handmade_table,
            {"Diseases"} | {f"Pad{i}" for i in range(70)},
            df_terms=["leukemia"],
        )
        ctx = ContextSpecification(["Diseases"])
        fast = view.answer_many([cardinality_spec()], ctx)
        assert fast == view._answer_many_reference([cardinality_spec()], ctx)
        if view_mod._np is not None:
            assert not view._columns.use_numpy  # >63 keyword bits

    def test_maintenance_invalidates_columns(self, handmade_table):
        from repro.views.maintenance import apply_document

        view = materialize_view(
            handmade_table,
            {"Diseases", "Neoplasms"},
            df_terms=["leukemia"],
            tc_terms=["leukemia"],
        )
        ctx = ContextSpecification(["Diseases"])
        before = view.answer_many(self._specs(view), ctx)
        assert view._columns is not None  # columns built and cached
        apply_document(
            view,
            frozenset({"Diseases"}),
            length=12,
            term_frequencies={"leukemia": 3},
        )
        after = view.answer_many(self._specs(view), ctx)
        assert after == view._answer_many_reference(self._specs(view), ctx)
        assert after != before  # the insert is visible through the cache


# ---------------------------------------------------------------------------
# materialize_many: the one-pass builder equals the per-view oracle


TABLE_KINDS = ["flat", "shards1", "shards2", "shards3", "v4", "lifecycle"]


@pytest.fixture(scope="module")
def many_tables(corpus, corpus_index, tmp_path_factory):
    """Every table shape a catalog is built over, as lists of tables:
    the flat index, 1/2/3 in-memory shards, v4-loaded shards, and a
    lifecycle snapshot whose global docids have tombstone gaps."""
    from repro.index.sharded import ShardedInvertedIndex
    from repro.lifecycle import LifecycleEngine, SegmentedIndex
    from repro.storage import load_sharded_index, save_sharded_index

    tables = {"flat": [corpus_index]}
    for n in (1, 2, 3):
        sharded = ShardedInvertedIndex.from_index(corpus_index, n, "hash")
        tables[f"shards{n}"] = [shard.index for shard in sharded.shards]
    manifest = tmp_path_factory.mktemp("v4") / "sharded.bin"
    save_sharded_index(sharded, manifest)
    loaded = load_sharded_index(manifest)
    tables["v4"] = [shard.index for shard in loaded.shards]

    segmented = SegmentedIndex(tmp_path_factory.mktemp("lifecycle"))
    engine = LifecycleEngine(segmented)
    docs = corpus.documents[:400]
    engine.ingest(docs[:200])
    engine.flush()
    engine.ingest(docs[200:])
    engine.flush()
    engine.delete([doc.doc_id for doc in docs[::37]])
    snapshot = segmented.snapshot()
    assert snapshot.tombstones
    tables["lifecycle"] = [snapshot]
    yield {
        kind: [WideSparseTable.from_index(index) for index in indexes]
        for kind, indexes in tables.items()
    }
    engine.close()
    loaded.close()


@pytest.fixture(scope="module")
def definition_pools(corpus_index):
    """Keyword and term pools: frequent and rare entries, a predicate no
    document carries, a term held by exactly one document (absent from
    most shards) and a term absent from the vocabulary."""
    predicates = sorted(
        corpus_index.predicate_vocabulary,
        key=lambda p: (-corpus_index.predicate_frequency(p), p),
    )
    by_df = sorted(
        corpus_index.vocabulary,
        key=lambda t: (-corpus_index.document_frequency(t), t),
    )
    singleton = next(
        t for t in by_df if corpus_index.document_frequency(t) == 1
    )
    keywords = predicates[:6] + predicates[-2:] + ["NoSuchPredicate"]
    terms = by_df[:6] + by_df[200:203] + [singleton, "zzznotaterm"]
    return keywords, terms


def assert_many_matches_oracle(table, definitions, use_numpy):
    import repro.views.view as view_mod

    with pytest.MonkeyPatch.context() as patch:
        if not use_numpy:
            patch.setattr(view_mod, "_np", None)
        many = materialize_many(table, definitions)
    assert len(many) == len(definitions)
    for view, (keywords, df_terms, tc_terms) in zip(many, definitions):
        oracle = materialize_view(table, keywords, df_terms, tc_terms)
        assert view.keyword_set == oracle.keyword_set
        assert view.df_terms == oracle.df_terms
        assert view.tc_terms == oracle.tc_terms
        assert view.groups == oracle.groups


@pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "python"])
@pytest.mark.parametrize("kind", TABLE_KINDS)
class TestMaterializeMany:
    """Every view ``materialize_many`` builds has exactly the groups of
    ``materialize_view`` — on every table shape, with and without numpy."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_property_equals_oracle(
        self, data, kind, use_numpy, many_tables, definition_pools
    ):
        keywords, terms = definition_pools
        definition = st.tuples(
            st.frozensets(st.sampled_from(keywords), min_size=1, max_size=3),
            st.frozensets(st.sampled_from(terms), max_size=5),
            st.frozensets(st.sampled_from(terms), max_size=3),
        )
        definitions = data.draw(st.lists(definition, max_size=5))
        for table in many_tables[kind]:
            assert_many_matches_oracle(table, definitions, use_numpy)

    def test_edge_cases(self, kind, use_numpy, many_tables, definition_pools):
        keywords, terms = definition_pools
        frequent, rare, singleton, absent = terms[:3], terms[6:9], terms[9], terms[10]
        definitions = [
            # a keyword set no document carries: one all-absent group
            ({"NoSuchPredicate"}, frequent, ()),
            # a term with postings on one shard at most, and none at all
            (keywords[:2], [singleton, absent], [singleton, absent]),
            # overlapping df/tc sets across views...
            (keywords[:3], frequent + rare, frequent[:1]),
            (keywords[1:4], frequent[1:], frequent + rare[:1]),
            # ...and disjoint ones
            (keywords[4:6], rare, ()),
            (keywords[-3:-1], (), frequent),
        ]
        for table in many_tables[kind]:
            assert materialize_many(table, []) == []
            assert_many_matches_oracle(table, definitions, use_numpy)


# ---------------------------------------------------------------------------
# The bulk v4 read keeps the block checks and the laziness


def flip_block_header(path, terms):
    """Flip the first byte of the first block frame of the first of
    ``terms`` stored bit-packed in the v4 file at ``path``; return it.

    A bit-packed frame opens with its docid-gap bit width (at most 63);
    the flipped byte reads as a width above 63, which the block loader
    rejects."""
    from repro.index.blockstore import BlockFile

    data = bytearray(path.read_bytes())
    with BlockFile(path) as block_file:
        records = block_file._space_records("content_index")
        base = block_file._sections["blocks"][0]
    for term in terms:
        if term not in records:
            continue
        offset = base + records[term][3]
        if 1 <= data[offset] <= 63:
            data[offset] ^= 0xFF
            path.write_bytes(bytes(data))
            return term
    raise AssertionError("no bit-packed block among the candidate terms")


@pytest.fixture(scope="module")
def v4_shard_file(corpus_index, tmp_path_factory):
    from repro.index.sharded import ShardedInvertedIndex
    from repro.storage import save_sharded_index

    sharded = ShardedInvertedIndex.from_index(corpus_index, 2, "hash")
    directory = tmp_path_factory.mktemp("bulk-v4")
    save_sharded_index(sharded, directory / "sharded.bin")
    return directory / "sharded.shard0.bin"


def shard_definitions(index):
    """Three views over the shard's frequent terms (df and tc columns)."""
    predicates = sorted(
        index.predicate_vocabulary,
        key=lambda p: (-index.predicate_frequency(p), p),
    )
    frequent = sorted(
        index.vocabulary, key=lambda t: (-index.document_frequency(t), t)
    )[:20]
    return [
        (predicates[:3], frequent, frequent[:3]),
        (predicates[2:5], frequent[5:], ()),
        (predicates[:1], frequent[:10], frequent[:10]),
    ]


class TestBulkV4Read:
    def test_lists_stay_lazy(self, v4_shard_file, tmp_path):
        import shutil

        from repro.index.postings import LazyPostingList
        from repro.storage import load_shard

        path = shutil.copy(v4_shard_file, tmp_path / v4_shard_file.name)
        shard = load_shard(path)
        try:
            index = shard.index
            definitions = shard_definitions(index)
            read = {
                term: index.postings(term)
                for _, df_terms, tc_terms in definitions
                for term in (*df_terms, *tc_terms)
            }
            many = materialize_many(WideSparseTable.from_index(index), definitions)
            assert all(isinstance(p, LazyPostingList) for p in read.values())
            assert all(p.materialized is False for p in read.values())
            table = WideSparseTable.from_index(index)
            for view, definition in zip(many, definitions):
                assert view.groups == materialize_view(table, *definition).groups
        finally:
            shard.index.close()

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "python"])
    def test_damaged_frame_raises_naming_the_file(
        self, v4_shard_file, tmp_path, use_numpy
    ):
        import shutil

        import repro.views.view as view_mod
        from repro.storage import StorageError, load_shard

        path = shutil.copy(v4_shard_file, tmp_path / "damaged.shard0.bin")
        shard = load_shard(path)
        definitions = shard_definitions(shard.index)
        shard.index.close()
        flip_block_header(path, definitions[0][1])

        shard = load_shard(path)
        try:
            table = WideSparseTable.from_index(shard.index)
            with pytest.MonkeyPatch.context() as patch:
                if not use_numpy:
                    patch.setattr(view_mod, "_np", None)
                with pytest.raises(StorageError, match="damaged.shard0.bin"):
                    materialize_many(table, definitions)
        finally:
            shard.index.close()
