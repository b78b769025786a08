"""The wide sparse table ``T`` of Section 4.1.

The document collection is modelled as a table with one row per document,
a 0/1 *keyword column* per context predicate, and *parameter columns*
(``len(d)``, ``tf(d, w)``) that collection-specific statistics aggregate.
The table is never stored densely — rows keep only their set of present
predicates — but the relational semantics (GROUP BY a keyword subset,
aggregate parameters per group) is exactly the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional

from ..index.inverted_index import InvertedIndex


@dataclass(frozen=True)
class TableRow:
    """One row of ``T``: a document's predicates and scalar parameters."""

    doc_id: int
    predicates: FrozenSet[str]
    length: int


class WideSparseTable:
    """Sparse row store over an :class:`InvertedIndex`.

    Rows are derived once from the index's predicate field and document
    lengths; term-frequency parameter columns are *not* copied — they are
    read straight from the index's posting lists at materialisation time,
    which is both faster and closer to how a real system would build a
    view (a scan of ``L_w`` is the column ``tf(d, w)``).
    """

    def __init__(self, rows: List[TableRow], index: InvertedIndex):
        self._rows = rows
        self._index = index
        # Docid-addressed slots: a lifecycle snapshot's global docids have
        # gaps where documents were deleted, so row position != docid.
        self._slots: List[Optional[TableRow]] = [None] * (
            max((row.doc_id for row in rows), default=-1) + 1
        )
        for row in rows:
            self._slots[row.doc_id] = row

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "WideSparseTable":
        rows = []
        predicate_field = index.predicate_field
        for doc in index.store:
            rows.append(
                TableRow(
                    doc_id=doc.internal_id,
                    predicates=frozenset(doc.field_tokens.get(predicate_field, ())),
                    length=doc.length,
                )
            )
        return cls(rows, index)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TableRow]:
        return iter(self._rows)

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def num_slots(self) -> int:
        """One past the largest docid: the length of a docid-keyed column."""
        return len(self._slots)

    def row(self, doc_id: int) -> TableRow:
        row = self._slots[doc_id]
        if row is None:
            raise IndexError(f"no live document with docid {doc_id}")
        return row

    def group_key(self, doc_id: int, keyword_set: FrozenSet[str]) -> FrozenSet[str]:
        """The GROUP BY key of a row under view keywords ``K``.

        Restricting the row's predicate set to ``K`` is equivalent to
        reading its 0/1 pattern over the keyword columns of ``V_K``.
        """
        return self.row(doc_id).predicates & keyword_set

    def group_keys(
        self, keyword_set: FrozenSet[str]
    ) -> List[Optional[FrozenSet[str]]]:
        """Group key column indexed by docid (one table scan).

        ``None`` marks a docid with no live row (a deleted document);
        posting lists never carry such docids.
        """
        return [
            None if row is None else row.predicates & keyword_set
            for row in self._slots
        ]

    def predicate_sets(self) -> List[FrozenSet[str]]:
        """Every row's predicate set (the transaction DB for mining)."""
        return [row.predicates for row in self._rows]
