"""On-disk layout and atomic commit protocol of the segmented index.

A segmented index directory looks like::

    <dir>/manifest.json            the commit point (atomic os.replace)
    <dir>/wal-<version>.jsonl      the live WAL generation
    <dir>/segments/<id>.seg        one immutable file per sealed segment
                                   (v4 binary block format)

**Commit protocol.**  Segment files are written first (each via a
temporary file + ``os.replace``; segments are immutable so a file is
written exactly once and never modified).  The manifest is then replaced
atomically — *that* replace is the commit point: it names the segment
files, the tombstone set, the docid high-water mark, the clock version,
and the WAL generation that starts empty at this commit.  Only after the
manifest lands are the previous WAL generation and any orphaned segment
files (left behind by compaction) deleted; a crash anywhere in the
sequence leaves either the old manifest (old WAL replays over the old
state) or the new manifest (old WAL is ignored garbage) — never a state
that loses an acknowledged write.

**Generational WAL.**  The manifest names its WAL file
(``wal-<version>.jsonl``) instead of reusing one path.  This is what
makes recovery idempotent without sequence numbers: operations recorded
before a commit are baked into the manifest's segments and their old WAL
generation is simply never replayed again, even if the crash happened
before the old file was unlinked.

Segment files persist **precompiled posting blocks** next to the
analysed documents and open lazily, with no re-tokenisation and no
posting accumulation.  A manifest older than version 4, or a JSON
segment (``<id>.json.gz``, formats 2-3) that older builds sealed, is
refused with a :class:`~repro.storage.StorageError` that names
``tools/upgrade_index.py``, which converts the directory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..errors import StorageError
from ..index import blockstore
from ..storage import _read_payload, _unconverted, _write_payload
from .segment import Segment

__all__ = ["SegmentStorage", "ManifestState"]

PathLike = Union[str, Path]

SEGMENT_DIR = "segments"
MANIFEST_NAME = "manifest.json"
# Segments are v4 binary block files (``<id>.seg``, see
# repro.index.blockstore): mmap-backed, bit-packed posting blocks decoded
# lazily per query.
SEGMENT_FORMAT_VERSION = 4


def _load_block_segment(
    path: Path, segment_id: str, segment_size: int
) -> Segment:
    """Open a v4 block-file segment; the reader stays attached for lazy
    block decode and is released by :meth:`Segment.close`."""
    reader = blockstore.BlockFile(path)
    try:
        if reader.kind != "segment":
            raise StorageError(
                f"expected a persisted segment in {path}, "
                f"found {reader.kind!r}"
            )
        if reader.segment_size != segment_size:
            raise StorageError(
                f"segment file {path} was sealed with segment_size "
                f"{reader.segment_size}, manifest expects {segment_size}"
            )
        stored_id = reader.header.get("segment_id", segment_id)
        if stored_id != segment_id:
            raise StorageError(
                f"segment file {path} holds segment {stored_id!r}, "
                f"manifest expects {segment_id!r}"
            )
        segment = Segment(
            segment_id,
            reader.documents(),
            reader.posting_map("content"),
            reader.posting_map("predicates"),
            segment_size=segment_size,
        )
    except Exception:
        reader.close()
        raise
    segment.attach_source(reader)
    return segment


class ManifestState:
    """Everything one manifest load yields (plus the WAL to replay)."""

    def __init__(
        self,
        segments: List[Segment],
        tombstones: Set[int],
        next_doc_id: int,
        next_segment_number: int,
        version: int,
        config: dict,
        wal_name: str,
    ):
        self.segments = segments
        self.tombstones = tombstones
        self.next_doc_id = next_doc_id
        self.next_segment_number = next_segment_number
        self.version = version
        self.config = config
        self.wal_name = wal_name


class SegmentStorage:
    """Filesystem backing of one segmented index directory."""

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / SEGMENT_DIR).mkdir(exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def exists(self) -> bool:
        return self.manifest_path.exists()

    def wal_path(self, name: str) -> Path:
        return self.directory / name

    def default_wal_name(self) -> str:
        """The generation a fresh (pre-first-commit) directory logs to."""
        return "wal-000000.jsonl"

    def _segment_file_name(self, segment_id: str) -> str:
        return f"{segment_id}.seg"

    def _write_segment(self, segment: Segment, path: Path) -> None:
        blockstore.write_block_file(
            path,
            kind="segment",
            config={"segment_size": segment.segment_size},
            segment_size=segment.segment_size,
            documents=segment.documents,
            content=segment.content,
            predicates=segment.predicates,
            header_extra={"segment_id": segment.segment_id},
            atomic=True,
        )

    # -- commit ----------------------------------------------------------

    def commit(
        self,
        segments: Sequence[Segment],
        tombstones: Iterable[int],
        next_doc_id: int,
        next_segment_number: int,
        version: int,
        config: dict,
    ) -> str:
        """Persist the index state; returns the new live WAL name.

        See the module docstring for the ordering argument.  ``segments``
        must not contain ephemeral (memtable-seal) segments.
        """
        segment_files: Dict[str, str] = {}
        for segment in segments:
            if segment.ephemeral:
                raise StorageError(
                    f"refusing to persist ephemeral segment "
                    f"{segment.segment_id!r}"
                )
            name = self._segment_file_name(segment.segment_id)
            segment_files[segment.segment_id] = name
            path = self.directory / SEGMENT_DIR / name
            if not path.exists():
                self._write_segment(segment, path)

        wal_name = f"wal-{version:06d}.jsonl"
        manifest = {
            "kind": "segmented_index",
            "version": SEGMENT_FORMAT_VERSION,
            "config": dict(config),
            "next_doc_id": next_doc_id,
            "next_segment_number": next_segment_number,
            "clock_version": version,
            "wal": wal_name,
            "tombstones": sorted(tombstones),
            "segments": [
                {
                    "segment_id": segment.segment_id,
                    "file": f"{SEGMENT_DIR}/{segment_files[segment.segment_id]}",
                    "num_docs": segment.num_docs,
                    "min_doc_id": segment.min_doc_id,
                    "max_doc_id": segment.max_doc_id,
                }
                for segment in segments
            ],
        }
        _write_payload(self.manifest_path, manifest)

        # Post-commit cleanup: stale WAL generations and segment files the
        # manifest no longer references.  Best effort — leftovers are
        # ignored by the next load, never replayed or reread.
        live_segment_files = set(segment_files.values())
        for path in (self.directory / SEGMENT_DIR).iterdir():
            if path.name not in live_segment_files:
                try:
                    path.unlink()
                except OSError:
                    pass
        for path in self.directory.glob("wal-*.jsonl"):
            if path.name != wal_name:
                try:
                    path.unlink()
                except OSError:
                    pass
        return wal_name

    # -- load ------------------------------------------------------------

    def load(self) -> Optional[ManifestState]:
        """Load the committed state, or ``None`` for a fresh directory.

        A missing or unreadable segment file named by the manifest is a
        single readable :class:`~repro.storage.StorageError` identifying
        the file — the same robustness contract the sharded-index loader
        follows.
        """
        if not self.exists():
            return None
        manifest = _read_payload(self.manifest_path)
        if (
            manifest.get("kind") != "segmented_index"
            or manifest.get("version") != SEGMENT_FORMAT_VERSION
        ):
            raise _unconverted(self.manifest_path, manifest, "segmented_index")
        config = manifest.get("config", {})
        segment_size = config.get("segment_size", 64)
        segments: List[Segment] = []
        for entry in manifest.get("segments", ()):
            path = self.directory / entry["file"]
            if not blockstore.is_block_file(path):
                try:
                    payload = _read_payload(path)
                except Exception as exc:
                    raise StorageError(
                        f"segmented index {self.directory}: segment file "
                        f"{path} is missing or unreadable ({exc})"
                    ) from None
                raise _unconverted(path, payload, "segment")
            segments.append(
                _load_block_segment(path, entry["segment_id"], segment_size)
            )
        return ManifestState(
            segments=segments,
            tombstones=set(manifest.get("tombstones", ())),
            next_doc_id=manifest.get("next_doc_id", 0),
            next_segment_number=manifest.get("next_segment_number", 0),
            version=manifest.get("clock_version", 0),
            config=config,
            wal_name=manifest.get("wal", self.default_wal_name()),
        )
