"""repro — Context-sensitive Ranking for Document Retrieval (SIGMOD 2011).

A full reproduction of Chen & Papakonstantinou's context-sensitive
ranking system: a text-search substrate with skip-pointer posting lists,
the ``Q_k | P`` query model with per-context ranking statistics,
OLAP-style materialized views for query-time statistics, and the
mining-, decomposition-, and hybrid-based view-selection algorithms —
plus the synthetic PubMed/MeSH/TREC data stack the evaluation runs on.

Quickstart::

    from repro import CorpusConfig, generate_corpus, ContextSearchEngine, select_views

    corpus = generate_corpus(CorpusConfig(num_docs=5000, seed=7))
    index = corpus.build_index()
    catalog, report = select_views(index, t_c=len(corpus) // 100, t_v=256)
    engine = ContextSearchEngine(index, catalog=catalog)
    results = engine.search("pancreas leukemia | Diseases")
    for hit in results.hits[:10]:
        print(hit.external_id, hit.score)
"""

# Defined before the subpackage imports: repro.service.server imports it
# back from the partially initialised package.
__version__ = "1.0.0"

from .errors import (
    BudgetExceededError,
    DataGenerationError,
    EmptyContextError,
    MiningError,
    QueryError,
    ReproError,
    SelectionError,
    ViewError,
    ViewNotUsableError,
)
from .errors import IndexError_ as IndexingError
from .index import (
    Analyzer,
    BooleanSearcher,
    CostCounter,
    Document,
    InvertedIndex,
    KeywordAnalyzer,
    PostingList,
    build_index,
)
from .core import (
    BM25,
    ContextQuery,
    ContextSearchEngine,
    ContextSpecification,
    DirichletLanguageModel,
    KeywordQuery,
    PivotedNormalizationTFIDF,
    RankingFunction,
    SearchHit,
    SearchResults,
    StraightforwardPlan,
    parse_query,
)
from .views import (
    MaterializedView,
    ViewCatalog,
    ViewSizeEstimator,
    WideSparseTable,
    materialize_many,
    materialize_view,
)
from .selection import (
    KeywordAssociationGraph,
    TransactionDatabase,
    apriori,
    eclat,
    fpgrowth,
    greedy_view_selection,
    hybrid_selection,
    mining_based_selection,
    select_views,
    verify_selection,
)
from .data import (
    AutomaticTermMapper,
    CorpusConfig,
    MeshOntology,
    QualityBenchmark,
    SyntheticCorpus,
    generate_benchmark,
    generate_corpus,
    generate_performance_workload,
)
from .eval import (
    QualityComparison,
    precision_at_k,
    reciprocal_rank,
    run_quality_comparison,
)
from .views import maintain_catalog, maintain_views, needs_reselection
from .selection import (
    evaluate_coverage,
    workload_driven_selection,
    workload_from_queries,
)
from .core import MaxScoreScorer, exhaustive_disjunctive
from .core import BatchExecutor, BatchReport
from .index import (
    HashPartitioner,
    RangePartitioner,
    ShardedInvertedIndex,
    make_partitioner,
)
from .core import ShardedEngine, fork_available
from .views import CatalogHandle, materialize_sharded_catalogs, replicate_catalog
from .selection import IncrementalReselector, ReselectionReport
from .service import (
    AdaptiveConfig,
    AdaptiveSelectionController,
    WorkloadRecorder,
)
from .storage import (
    load_any_index,
    load_catalog,
    load_catalog_info,
    load_documents,
    load_index,
    load_sharded_index,
    save_catalog,
    save_documents,
    save_index,
    save_sharded_index,
)
from .temporal import (
    NumericAttributeIndex,
    TemporalContextQuery,
    TemporalSearchEngine,
    materialize_temporal_view,
)

__all__ = [
    # errors
    "ReproError",
    "IndexingError",
    "QueryError",
    "EmptyContextError",
    "ViewError",
    "ViewNotUsableError",
    "SelectionError",
    "MiningError",
    "BudgetExceededError",
    "DataGenerationError",
    # index
    "Analyzer",
    "KeywordAnalyzer",
    "Document",
    "InvertedIndex",
    "build_index",
    "BooleanSearcher",
    "PostingList",
    "CostCounter",
    # core
    "ContextQuery",
    "ContextSpecification",
    "KeywordQuery",
    "parse_query",
    "RankingFunction",
    "PivotedNormalizationTFIDF",
    "BM25",
    "DirichletLanguageModel",
    "StraightforwardPlan",
    "ContextSearchEngine",
    "SearchHit",
    "SearchResults",
    # views
    "WideSparseTable",
    "MaterializedView",
    "materialize_many",
    "materialize_view",
    "ViewCatalog",
    "ViewSizeEstimator",
    # selection
    "TransactionDatabase",
    "apriori",
    "fpgrowth",
    "eclat",
    "greedy_view_selection",
    "KeywordAssociationGraph",
    "mining_based_selection",
    "hybrid_selection",
    "select_views",
    "verify_selection",
    # data
    "CorpusConfig",
    "SyntheticCorpus",
    "generate_corpus",
    "MeshOntology",
    "AutomaticTermMapper",
    "QualityBenchmark",
    "generate_benchmark",
    "generate_performance_workload",
    # eval
    "precision_at_k",
    "reciprocal_rank",
    "QualityComparison",
    "run_quality_comparison",
    # maintenance
    "maintain_catalog",
    "maintain_views",
    "needs_reselection",
    # workload-driven baseline
    "workload_driven_selection",
    "workload_from_queries",
    "evaluate_coverage",
    # top-k
    "MaxScoreScorer",
    "exhaustive_disjunctive",
    # batched execution
    "BatchExecutor",
    "BatchReport",
    # sharding
    "ShardedInvertedIndex",
    "ShardedEngine",
    "HashPartitioner",
    "RangePartitioner",
    "make_partitioner",
    "fork_available",
    "materialize_sharded_catalogs",
    "replicate_catalog",
    # adaptive selection
    "CatalogHandle",
    "WorkloadRecorder",
    "IncrementalReselector",
    "ReselectionReport",
    "AdaptiveConfig",
    "AdaptiveSelectionController",
    # persistence
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_sharded_index",
    "load_any_index",
    "save_catalog",
    "load_catalog",
    "load_catalog_info",
    "save_documents",
    "load_documents",
    # temporal extension
    "NumericAttributeIndex",
    "TemporalSearchEngine",
    "TemporalContextQuery",
    "materialize_temporal_view",
    "__version__",
]
