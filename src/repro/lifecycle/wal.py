"""Append-only write-ahead log for the segmented index.

Every mutation (document add, tombstone delete) is one JSON line,
flushed before the in-memory state changes, so a crash between manifest
commits loses nothing: recovery is *manifest load + WAL replay*
(:meth:`repro.lifecycle.index.SegmentedIndex.open`).

The log stores **raw** documents (external id + raw field text), not
analysed token streams: replay re-runs the same deterministic analyzers
the live ingest ran, so a replayed collection is bit-identical to the
original — and the log stays independent of analyzer internals.

Torn writes are expected: a crash can leave a half-written final line.
:func:`replay_wal` tolerates exactly that case (an undecodable *last*
line is discarded as an uncommitted mutation); garbage anywhere earlier
is real corruption and surfaces as a
:class:`~repro.storage.StorageError` naming the file and line.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..errors import StorageError
from ..index.documents import Document

__all__ = ["WriteAheadLog", "replay_wal"]

PathLike = Union[str, Path]

OP_ADD = "add"
OP_DELETE = "delete"


class WriteAheadLog:
    """One append-only JSON-lines file of uncommitted mutations."""

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._handle = None

    # -- writes ----------------------------------------------------------

    def _writer(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _append(self, record: dict) -> None:
        handle = self._writer()
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()

    def log_add(self, document: Document) -> None:
        """Record one document insertion (raw fields, pre-analysis)."""
        self._append(
            {
                "op": OP_ADD,
                "doc_id": document.doc_id,
                "fields": dict(document.fields),
            }
        )

    def log_delete(self, external_id: str) -> None:
        """Record one tombstone delete."""
        self._append({"op": OP_DELETE, "doc_id": external_id})

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Truncate the log (called after every manifest commit: the
        manifest now owns everything the log described)."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __len__(self) -> int:
        """Number of replayable records currently in the log."""
        return len(replay_wal(self.path))


def replay_wal(path: PathLike) -> List[dict]:
    """Read every committed record from a WAL file.

    Returns ``[]`` for a missing or empty file (a fresh directory).  An
    undecodable **final** line is a torn write from a crash and is
    dropped; an undecodable earlier line, or a record without a
    recognised ``op``, raises a readable
    :class:`~repro.storage.StorageError` naming the file and line.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        raw_lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise StorageError(f"unreadable WAL {path}: {exc}") from None
    records: List[dict] = []
    lines = [line for line in raw_lines if line.strip()]
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError:
            if number == len(lines):
                break  # torn final write: the mutation never committed
            raise StorageError(
                f"corrupt WAL {path}: undecodable record at line {number}"
            ) from None
        op = record.get("op")
        if op not in (OP_ADD, OP_DELETE) or "doc_id" not in record:
            raise StorageError(
                f"corrupt WAL {path}: unknown record {record!r} "
                f"at line {number}"
            )
        records.append(record)
    return records
