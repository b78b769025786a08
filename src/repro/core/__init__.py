"""The paper's primary contribution: context-sensitive query evaluation.

Query model (Section 2.1), statistics framework and ranking functions
(Section 2.2), the straightforward execution plan and cost model
(Section 3), and the engine that routes statistics through materialized
views (Sections 4, 6.3).
"""

from .backend import (
    SearchBackend,
    VersionAuthority,
    VersionClock,
    VersionVector,
)
from .query import (
    ContextQuery,
    ContextSpecification,
    KeywordQuery,
    parse_query,
)
from .statistics import (
    CARDINALITY,
    DOC_FREQUENCY,
    TERM_COUNT,
    TOTAL_LENGTH,
    UNIQUE_TERMS,
    CollectionStatistics,
    DocumentStatistics,
    QueryStatistics,
    StatisticSpec,
    cardinality_spec,
    df_spec,
    tc_spec,
    total_length_spec,
)
from .ranking import (
    ALL_RANKING_FUNCTIONS,
    BM25,
    DEFAULT_RANKING_FUNCTION,
    DirichletLanguageModel,
    PivotedNormalizationTFIDF,
    RankingFunction,
)
from .plan import PlanExecution, StraightforwardPlan
from .logical import (
    ALL_MODES,
    MODE_CONTEXT,
    MODE_CONVENTIONAL,
    MODE_DISJUNCTIVE,
    LogicalNode,
    LogicalPlan,
    compile_query,
)
from .optimizer import (
    FORCEABLE_PATHS,
    PATH_AUTO,
    PATH_CONVENTIONAL,
    PATH_PER_SHARD,
    PATH_STRAIGHTFORWARD,
    PATH_VIEWS,
    ExplainedPlan,
    Optimizer,
    PathCandidate,
    selective_first_bound,
)
from .operators import (
    ContextMaterialise,
    ExecutionContext,
    MaxScoreTopK,
    SelectiveFirstIntersect,
    StatsMerge,
    StraightforwardResolve,
    ViewScan,
)
from .report import ShardReport
from .scoring import rank_candidates, score_candidates
from .cost import (
    QueryCostEstimate,
    context_materialization_bound,
    estimate_straightforward_cost,
    estimate_view_cost,
    pairwise_intersection_cost,
)
from .engine import (
    BatchExecutor,
    BatchOutcome,
    BatchReport,
    ContextSearchEngine,
    ExecutionReport,
    SearchHit,
    SearchResults,
    SharedContextStore,
)
from .topk import (
    MaxScoreScorer,
    ScoredDocument,
    SharedTopKThreshold,
    TopKDiagnostics,
    exhaustive_disjunctive,
)
from .sharded_engine import ShardedEngine

__all__ = [
    "SearchBackend",
    "VersionAuthority",
    "VersionClock",
    "VersionVector",
    "ContextQuery",
    "ContextSpecification",
    "KeywordQuery",
    "parse_query",
    "CARDINALITY",
    "DOC_FREQUENCY",
    "TERM_COUNT",
    "TOTAL_LENGTH",
    "UNIQUE_TERMS",
    "CollectionStatistics",
    "DocumentStatistics",
    "QueryStatistics",
    "StatisticSpec",
    "cardinality_spec",
    "df_spec",
    "tc_spec",
    "total_length_spec",
    "RankingFunction",
    "PivotedNormalizationTFIDF",
    "BM25",
    "DirichletLanguageModel",
    "DEFAULT_RANKING_FUNCTION",
    "ALL_RANKING_FUNCTIONS",
    "PlanExecution",
    "StraightforwardPlan",
    "ALL_MODES",
    "MODE_CONTEXT",
    "MODE_CONVENTIONAL",
    "MODE_DISJUNCTIVE",
    "LogicalNode",
    "LogicalPlan",
    "compile_query",
    "FORCEABLE_PATHS",
    "PATH_AUTO",
    "PATH_CONVENTIONAL",
    "PATH_PER_SHARD",
    "PATH_STRAIGHTFORWARD",
    "PATH_VIEWS",
    "ExplainedPlan",
    "Optimizer",
    "PathCandidate",
    "selective_first_bound",
    "ContextMaterialise",
    "ExecutionContext",
    "MaxScoreTopK",
    "SelectiveFirstIntersect",
    "StatsMerge",
    "StraightforwardResolve",
    "ViewScan",
    "ShardReport",
    "rank_candidates",
    "score_candidates",
    "QueryCostEstimate",
    "context_materialization_bound",
    "estimate_straightforward_cost",
    "estimate_view_cost",
    "pairwise_intersection_cost",
    "ContextSearchEngine",
    "ExecutionReport",
    "SearchHit",
    "SearchResults",
    "BatchExecutor",
    "BatchOutcome",
    "BatchReport",
    "SharedContextStore",
    "MaxScoreScorer",
    "ScoredDocument",
    "SharedTopKThreshold",
    "TopKDiagnostics",
    "exhaustive_disjunctive",
    "ShardedEngine",
]
