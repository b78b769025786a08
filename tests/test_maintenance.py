"""Tests for incremental index updates and view maintenance."""

import pytest

from repro import (
    ContextSearchEngine,
    CorpusConfig,
    Document,
    build_index,
    generate_corpus,
    materialize_view,
    select_views,
)
from repro.errors import ReproError
from repro.views import (
    WideSparseTable,
    maintain_catalog,
    maintain_views,
    needs_reselection,
)
from repro.views.maintenance import MaintenanceReport

from .conftest import HANDMADE_DOCS

NEW_DOCS = [
    Document(
        "N1",
        {
            "title": "pancreas imaging in leukemia survivors",
            "abstract": "imaging outcomes for pancreas and liver",
            "mesh": "Diseases DigestiveSystem Neoplasms",
        },
    ),
    Document(
        "N2",
        {
            "title": "novel lymphoma therapies",
            "abstract": "therapy outcomes in lymphoma cohorts",
            "mesh": "Diseases Blood",
        },
    ),
]


class TestIndexAppend:
    def test_postings_extend_correctly(self):
        index = build_index(HANDMADE_DOCS)
        before_df = index.document_frequency("pancrea")
        stored = index.append_documents(NEW_DOCS)
        assert len(stored) == 2
        assert index.num_docs == len(HANDMADE_DOCS) + 2
        assert index.document_frequency("pancrea") == before_df + 1
        assert index.predicate_frequency("Blood") == 2

    def test_docids_stay_sorted(self):
        index = build_index(HANDMADE_DOCS)
        index.append_documents(NEW_DOCS)
        for term in index.vocabulary:
            ids = list(index.postings(term).doc_ids)
            assert ids == sorted(ids)

    def test_total_length_updates(self):
        index = build_index(HANDMADE_DOCS)
        before = index.total_length
        stored = index.append_documents(NEW_DOCS)
        assert index.total_length == before + sum(s.length for s in stored)

    def test_append_before_commit_rejected(self):
        from repro.index import InvertedIndex

        index = InvertedIndex()
        with pytest.raises(ReproError):
            index.append_documents(NEW_DOCS)

    def test_appended_docs_searchable(self):
        index = build_index(HANDMADE_DOCS)
        index.append_documents(NEW_DOCS)
        engine = ContextSearchEngine(index)
        hits = engine.search("lymphoma | Blood").external_ids()
        assert "N2" in hits


class TestViewMaintenance:
    def _fresh_stack(self):
        index = build_index(HANDMADE_DOCS)
        table = WideSparseTable.from_index(index)
        view = materialize_view(
            table,
            {"Diseases", "DigestiveSystem", "Neoplasms", "Blood"},
            df_terms=list(index.vocabulary),
            tc_terms=["leukemia"],
        )
        return index, view

    def test_maintained_view_equals_rebuilt_view(self):
        """The gold-standard check: incremental deltas produce exactly the
        view a full rebuild would."""
        index, view = self._fresh_stack()
        stored = index.append_documents(NEW_DOCS)
        maintain_views([view], index, stored)

        rebuilt = materialize_view(
            WideSparseTable.from_index(index),
            view.keyword_set,
            df_terms=view.df_terms,
            tc_terms=view.tc_terms,
        )
        assert set(view.groups) == set(rebuilt.groups)
        for key, group in view.groups.items():
            other = rebuilt.groups[key]
            assert group.count == other.count
            assert group.sum_len == other.sum_len
            assert group.df == other.df
            assert group.tc == other.tc

    def test_new_group_tuple_counted(self):
        index, view = self._fresh_stack()
        # A document with a never-seen predicate pattern within K.
        novel = Document(
            "N3",
            {"title": "standalone blood study", "abstract": "x", "mesh": "Blood"},
        )
        stored = index.append_documents([novel])
        report = maintain_views([view], index, stored)
        assert report.new_group_tuples == 1

    def test_tv_violation_reported(self):
        index, view = self._fresh_stack()
        novel = Document(
            "N4", {"title": "a", "abstract": "b", "mesh": "Neoplasms Blood"}
        )
        stored = index.append_documents([novel])
        report = maintain_views([view], index, stored, t_v=view.size - 1)
        assert view.keyword_set in report.views_over_tv
        assert needs_reselection(report)

    def test_growth_triggers_reselection(self):
        report = MaintenanceReport(growth_since_selection=0.5)
        assert needs_reselection(report, growth_threshold=0.2)
        assert not needs_reselection(
            MaintenanceReport(growth_since_selection=0.1)
        )


class TestEndToEndMaintenance:
    def test_maintained_catalog_answers_match_fresh_build(self):
        """Pipeline form: insert a batch into a selected system, maintain,
        and require identical rankings to a from-scratch system over the
        enlarged corpus."""
        corpus = generate_corpus(
            CorpusConfig(num_docs=900, seed=31, num_roots=4, depth=2)
        )
        split = 800
        initial, extra = corpus.documents[:split], corpus.documents[split:]

        index = build_index(initial)
        t_c = 20
        catalog, report = select_views(index, t_c=t_c, t_v=256)
        baseline = index.num_docs

        stored = index.append_documents(extra)
        maintenance = maintain_catalog(
            catalog, index, stored, t_v=256, baseline_num_docs=baseline
        )
        assert maintenance.documents_applied == len(extra)
        assert maintenance.growth_since_selection == pytest.approx(
            len(extra) / split
        )

        fresh_index = build_index(corpus.documents)
        engine_maintained = ContextSearchEngine(index, catalog=catalog)
        engine_fresh = ContextSearchEngine(fresh_index)

        # Compare rankings for a context covered by the catalog.
        covered = next(iter(catalog)).keyword_set
        predicate = max(sorted(covered), key=index.predicate_frequency)
        term = max(
            list(index.vocabulary)[:300], key=index.document_frequency
        )
        query = f"{term} | {predicate}"
        a = engine_maintained.search(query)
        b = engine_fresh.search(query)
        assert a.external_ids() == b.external_ids()
        for ha, hb in zip(a.hits, b.hits):
            assert ha.score == pytest.approx(hb.score, abs=1e-10)
