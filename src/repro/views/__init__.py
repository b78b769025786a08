"""Materialized-view subsystem (Section 4).

Models the document collection as a wide sparse table, materialises
GROUP BY views over keyword subsets, checks usability (Theorem 4.1),
answers statistics by view scans (Theorem 4.2), estimates view sizes by
sampling, and matches queries to the smallest usable view.
"""

from .handle import CatalogHandle
from .wide_table import TableRow, WideSparseTable
from .view import GroupTuple, MaterializedView, materialize_many, materialize_view
from .estimator import DEFAULT_SAMPLE_SIZE, ViewSizeEstimator
from .catalog import CatalogStats, ViewCatalog
from .rewrite import ResolutionReport, compute_rare_term_statistics
from .sharding import (
    catalog_definitions,
    materialize_catalog,
    materialize_sharded_catalogs,
    replicate_catalog,
)
from .maintenance import (
    MaintenanceReport,
    apply_document,
    document_delta,
    maintain_catalog,
    maintain_views,
    needs_reselection,
)

__all__ = [
    "CatalogHandle",
    "MaintenanceReport",
    "apply_document",
    "document_delta",
    "maintain_catalog",
    "maintain_views",
    "needs_reselection",
    "TableRow",
    "WideSparseTable",
    "GroupTuple",
    "MaterializedView",
    "materialize_many",
    "materialize_view",
    "ViewSizeEstimator",
    "DEFAULT_SAMPLE_SIZE",
    "CatalogStats",
    "ViewCatalog",
    "ResolutionReport",
    "compute_rare_term_statistics",
    "catalog_definitions",
    "materialize_catalog",
    "materialize_sharded_catalogs",
    "replicate_catalog",
]
