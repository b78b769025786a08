"""On-disk layout and atomic commit protocol of the segmented index.

A segmented index directory looks like::

    <dir>/manifest.json            the commit point (atomic os.replace)
    <dir>/wal-<version>.jsonl      the live WAL generation
    <dir>/segments/<id>.seg        one immutable file per sealed segment
                                   (v4 binary block format; segments
                                   sealed by older builds may persist as
                                   v2/v3 JSON <id>.json.gz and still load)

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

Segment files persist **precompiled posting columns** next to the
analysed documents, so loading a segment is O(documents + postings) —
array adoption, no re-tokenisation, no posting accumulation.  Legacy
JSON segments decode through :func:`repro.storage.decode_posting_columns`,
the same column decoder flat v2/v3 index files use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..errors import StorageError
from ..index import blockstore
from ..index.documents import StoredDocument
from ..storage import (
    LazyTokenFields,
    _read_payload,
    _write_payload,
    decode_posting_columns,
)
from .segment import Segment

__all__ = ["SegmentStorage", "ManifestState"]

PathLike = Union[str, Path]

SEGMENT_DIR = "segments"
MANIFEST_NAME = "manifest.json"
# Segments are written only as v4 binary block files (``<id>.seg``, see
# repro.index.blockstore): mmap-backed, bit-packed posting blocks decoded
# lazily per query.  v3 (JSON with max_tf and per-block maxima) and v2
# (JSON columns only) segments sealed by older builds still load; a
# directory may mix formats — each segment file is sniffed by content
# and keeps its name until compaction rewrites it as ``.seg``.
SEGMENT_FORMAT_VERSION = 4
SUPPORTED_SEGMENT_VERSIONS = (2, 3, 4)
_LEGACY_SEGMENT_SUFFIX = ".json.gz"


def _decode_segment(payload: dict, path: Path, segment_size: int) -> Segment:
    """Decode a legacy v2/v3 JSON segment payload."""
    if payload.get("kind") != "segment":
        raise StorageError(
            f"expected a persisted segment in {path}, "
            f"found {payload.get('kind')!r}"
        )
    if payload.get("version") not in (2, 3):
        raise StorageError(
            f"unsupported segment format version {payload.get('version')!r} "
            f"in {path} (this build reads JSON segment versions 2, 3)"
        )
    try:
        documents = [
            StoredDocument(
                internal_id=entry["internal_id"],
                external_id=entry["external_id"],
                field_tokens=LazyTokenFields(entry["field_tokens"]),
                length=entry["length"],
                unique_terms=entry["unique_terms"],
            )
            for entry in payload["documents"]
        ]
        content, predicates = decode_posting_columns(payload, segment_size)
        segment_id = payload["segment_id"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"malformed segment payload in {path}: {exc!r}"
        ) from None
    return Segment(
        segment_id, documents, content, predicates, segment_size=segment_size
    )


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
        """Resolve a segment's on-disk file name.

        Segment files are immutable, so a legacy JSON segment keeps its
        existing file; every other segment is a v4 ``.seg`` file.
        """
        legacy = f"{segment_id}{_LEGACY_SEGMENT_SUFFIX}"
        if (self.directory / SEGMENT_DIR / legacy).exists():
            return legacy
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
        if manifest.get("kind") != "segmented_index":
            raise StorageError(
                f"expected a segmented-index manifest in "
                f"{self.manifest_path}, found {manifest.get('kind')!r}"
            )
        if manifest.get("version") not in SUPPORTED_SEGMENT_VERSIONS:
            raise StorageError(
                f"unsupported manifest version {manifest.get('version')!r} "
                f"in {self.manifest_path} (this build reads versions "
                f"{', '.join(map(str, SUPPORTED_SEGMENT_VERSIONS))})"
            )
        config = manifest.get("config", {})
        segment_size = config.get("segment_size", 64)
        segments: List[Segment] = []
        for entry in manifest.get("segments", ()):
            path = self.directory / entry["file"]
            if blockstore.is_block_file(path):
                segment = _load_block_segment(
                    path, entry["segment_id"], segment_size
                )
            else:
                try:
                    payload = _read_payload(path)
                except Exception as exc:
                    raise StorageError(
                        f"segmented index {self.directory}: segment file "
                        f"{path} is missing or unreadable ({exc})"
                    ) from None
                segment = _decode_segment(payload, path, segment_size)
            segments.append(segment)
        return ManifestState(
            segments=segments,
            tombstones=set(manifest.get("tombstones", ())),
            next_doc_id=manifest.get("next_doc_id", 0),
            next_segment_number=manifest.get("next_segment_number", 0),
            version=manifest.get("clock_version", 0),
            config=config,
            wal_name=manifest.get("wal", self.default_wal_name()),
        )
