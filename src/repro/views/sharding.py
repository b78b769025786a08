"""Per-shard view materialization and catalog replication.

A materialized view ``V_K`` is a GROUP BY over the wide sparse table;
restricting the table to one shard's documents and grouping gives a
*partial* view whose every parameter column (COUNT, SUM) is an exact
partial aggregate.  Replicating the same view **definitions** — keyword
set plus df/tc parameter columns — across shards therefore preserves both
halves of the paper's machinery:

* **usability** (Theorem 4.1) is a syntactic test on the definition, so a
  context covered on one shard is covered on all of them and every shard
  takes the same resolution path;
* **exactness**: per-shard view answers sum to the whole-collection
  answer, because shards partition the documents and the aggregates are
  distributive.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

from ..index.sharded import ShardedInvertedIndex
from .catalog import ViewCatalog
from .view import materialize_many
from .wide_table import WideSparseTable

# A view definition: (keyword set, df parameter terms, tc parameter terms).
ViewDefinition = Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]


def catalog_definitions(catalog: ViewCatalog) -> List[ViewDefinition]:
    """Extract the replicable definitions of a catalog's views."""
    return [
        (view.keyword_set, view.df_terms, view.tc_terms) for view in catalog
    ]


def materialize_catalog(
    index, definitions: Iterable[Sequence[Iterable[str]]]
) -> ViewCatalog:
    """Materialize every definition over one index, in one pass.

    The one build path of a shard's catalog: in-process replication and
    a cluster worker's ``install_catalog`` both end here.
    """
    return ViewCatalog(
        materialize_many(WideSparseTable.from_index(index), definitions)
    )


def materialize_sharded_catalogs(
    sharded_index: ShardedInvertedIndex,
    definitions: Iterable[Sequence[Iterable[str]]],
) -> List[ViewCatalog]:
    """Materialize every definition over every shard — one catalog each.

    ``definitions`` is an iterable of ``(keyword_set, df_terms, tc_terms)``
    triples (e.g. from :func:`catalog_definitions`, or straight from a
    view-selection run).  Returns the per-shard catalogs positionally
    aligned with ``sharded_index.shards``, ready to hand to
    :class:`~repro.core.sharded_engine.ShardedEngine`.
    """
    definitions = list(definitions)
    return [
        materialize_catalog(shard.index, definitions)
        for shard in sharded_index.shards
    ]


def replicate_catalog(
    sharded_index: ShardedInvertedIndex,
    catalog: ViewCatalog,
) -> List[ViewCatalog]:
    """Re-materialize an existing catalog's definitions per shard.

    The single-collection catalog's *tuples* are useless to a shard (they
    aggregate the whole collection); only the definitions replicate.
    """
    return materialize_sharded_catalogs(
        sharded_index, catalog_definitions(catalog)
    )
