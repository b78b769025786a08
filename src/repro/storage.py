"""Persistence: save and load indexes and view catalogs.

A production deployment cannot re-ingest 18 M citations or re-run a
40-hour view selection on every restart (Section 6.2's selection cost is
the whole motivation for persisting its output).  This module serialises
both artefacts:

* **indexes** use the *binary block format* (version 4, see
  :mod:`repro.index.blockstore`): delta-encoded bit-packed posting
  blocks behind an mmap, a fixed-width term dictionary, and per-block
  skip/max-tf metadata, so a cold open reads only header + dictionaries
  and queries decode just the blocks they touch.  Version 4 is the only
  index format this build reads; a JSON index payload written by an
  earlier release (versions 1-3) is refused with a :class:`StorageError`
  that names ``tools/upgrade_index.py``, which converts it;
* **catalogs** and raw documents persist as versioned JSON — loading a
  catalog is O(total tuples), no corpus access required.

Every JSON artefact (gzip-compressed when the path ends in ``.gz``) is
written through :func:`_write_payload`: a temporary sibling promoted by
``os.replace``, so a failed save never destroys the previous file.

Segmented index *directories* (manifest + WAL + per-segment files) are
the lifecycle layer's concern — see :mod:`repro.lifecycle.storage` —
but :func:`load_any_index` accepts them so one ``--index`` flag serves
all three artefact kinds.
"""

from __future__ import annotations

import gzip
import json
import os
from array import array
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Union

from .errors import StorageError
from .index import blockstore
from .index.documents import Document
from .index.inverted_index import InvertedIndex
from .views.catalog import ViewCatalog
from .views.view import GroupTuple, MaterializedView

FORMAT_VERSION = 4
#: Header versions a document or catalog JSON payload may carry.
SUPPORTED_VERSIONS = (1, 2, 3, 4)
#: The JSON layouts froze at version 3; only the index artefact gained
#: the binary v4 encoding.  Documents and catalogs keep stamping 3.
_JSON_VERSION = 3

PathLike = Union[str, Path]

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "StorageError",
    "save_documents",
    "load_documents",
    "save_index",
    "load_index",
    "save_sharded_index",
    "load_shard",
    "load_sharded_index",
    "load_any_index",
    "save_catalog",
    "load_catalog",
    "load_catalog_info",
]


def _write_payload(path: Path, payload: dict) -> None:
    """Write one JSON artefact via a temporary sibling + ``os.replace``.

    The previous file at ``path`` survives a payload that fails to
    encode (or a crash mid-write); the sibling is removed on failure.
    """
    tmp = path.with_name(path.name + ".tmp")
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(tmp, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_read(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _read_payload(path: Path) -> dict:
    """Read one persisted JSON artefact; corruption is a :class:`StorageError`.

    A truncated gzip stream, a non-gzip file with a ``.gz`` name, or a
    half-written JSON body all surface as the same readable error rather
    than leaking codec internals to the caller.  Binary v4 artefacts are
    detected up front (their errors carry the exact byte offset, the way
    lifecycle WAL errors carry a line number) instead of failing as
    JSON noise at character 0.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(blockstore.MAGIC))
    except IsADirectoryError:
        raise StorageError(
            f"{path} is a directory, not a persisted artefact"
        ) from None
    if head == blockstore.MAGIC:
        raise StorageError(
            f"corrupt artefact {path} at byte 0: binary block artefact "
            f"(format v4) where a JSON artefact was expected"
        )
    if head.startswith(blockstore.MAGIC[:4]) and head != blockstore.MAGIC:
        raise StorageError(
            f"corrupt artefact {path} at byte {_magic_mismatch_offset(head)}: "
            f"damaged v4 magic {head!r}"
        )
    try:
        with _open_read(path) as handle:
            return json.load(handle)
    except (ValueError, EOFError, gzip.BadGzipFile, UnicodeDecodeError) as exc:
        raise StorageError(f"corrupt artefact {path}: {exc}") from None


def _magic_mismatch_offset(head: bytes) -> int:
    """First byte where a damaged magic diverges from the v4 magic."""
    for i, (got, want) in enumerate(zip(head, blockstore.MAGIC)):
        if got != want:
            return i
    return len(head)


def _check_header(payload: dict, expected_kind: str) -> None:
    """Validate the kind and version of a document or catalog payload."""
    kind = payload.get("kind")
    version = payload.get("version")
    if kind != expected_kind:
        raise StorageError(
            f"expected a persisted {expected_kind!r}, found {kind!r}"
        )
    if version not in SUPPORTED_VERSIONS:
        raise StorageError(
            f"unsupported format version {version!r} "
            f"(this build reads versions {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )


def _unconverted(path: Path, payload: dict, kind: str) -> StorageError:
    """The error for a JSON ``kind`` payload where a v4 index was due.

    Index formats 1-3 were JSON; this build reads none of them, and
    ``tools/upgrade_index.py`` converts them to v4.
    """
    if payload.get("kind") != kind:
        return StorageError(
            f"expected a persisted {kind!r} in {path}, "
            f"found {payload.get('kind')!r}"
        )
    return StorageError(
        f"{path} holds index format {payload.get('version')!r}; this build "
        f"reads only format {FORMAT_VERSION}: convert it with "
        f"tools/upgrade_index.py"
    )


# -- raw documents -------------------------------------------------------------


def save_documents(documents, path: PathLike) -> None:
    """Persist raw (un-analysed) documents, e.g. a generated corpus."""
    path = Path(path)
    payload = {
        "kind": "documents",
        "version": _JSON_VERSION,
        "documents": [
            {"doc_id": doc.doc_id, "fields": dict(doc.fields)}
            for doc in documents
        ],
    }
    _write_payload(path, payload)


def load_documents(path: PathLike) -> List[Document]:
    """Load documents saved by :func:`save_documents`."""
    path = Path(path)
    payload = _read_payload(path)
    _check_header(payload, "documents")
    return [
        Document(entry["doc_id"], entry["fields"])
        for entry in payload["documents"]
    ]


# -- indexes -----------------------------------------------------------------


def _write_index_file(
    path: Path, index: InvertedIndex, global_ids=None
) -> None:
    """Write one index (a shard's with its ``global_ids``) as v4."""
    blockstore.write_block_file(
        path,
        kind="index",
        config={
            "searchable_fields": list(index.searchable_fields),
            "predicate_field": index.predicate_field,
            "segment_size": index.segment_size,
        },
        segment_size=index.segment_size,
        documents=list(index.store),
        content=dict(index.content_items()),
        predicates=dict(index.predicate_items()),
        global_ids=global_ids,
    )


def save_index(index: InvertedIndex, path: PathLike) -> None:
    """Persist a committed index (configuration + analysed documents).

    Writes the binary block layout (format 4) — mmap-friendly, so it is
    stored raw even when ``path`` ends in ``.gz``.
    """
    if not index.committed:
        raise StorageError("only committed indexes can be saved")
    _write_index_file(Path(path), index)


def _index_from_block_reader(reader: "blockstore.BlockFile") -> InvertedIndex:
    if reader.kind != "index":
        raise StorageError(
            f"expected a persisted 'index', found {reader.kind!r} "
            f"in {reader.path}"
        )
    config = reader.config
    return InvertedIndex.from_restored_store(
        reader.document_store(),
        reader.posting_map("content"),
        reader.posting_map("predicates"),
        searchable_fields=tuple(config.get("searchable_fields", ())),
        predicate_field=config.get("predicate_field", "predicates"),
        segment_size=reader.segment_size,
    )


def _load_block_index(path: Path) -> InvertedIndex:
    """Open a v4 block file as a lazily-materialised flat index.

    The returned index owns the underlying mmap: ``index.close()`` (or
    using the index as a context manager) releases it deterministically.
    """
    reader = blockstore.BlockFile(path)
    try:
        index = _index_from_block_reader(reader)
    except Exception:
        reader.close()
        raise
    index.attach_resource(reader)
    return index


def load_index(path: PathLike) -> InvertedIndex:
    """Load an index saved by :func:`save_index`.

    The format is sniffed from the file itself, never the name: a v4
    block file opens as an mmap-backed lazy index; anything else is an
    error (a JSON index of an earlier release names the upgrade tool).
    """
    path = Path(path)
    if blockstore.is_block_file(path):
        return _load_block_index(path)
    raise _unconverted(path, _read_payload(path), "index")


# -- sharded indexes -----------------------------------------------------------


def _shard_file_name(manifest_name: str, shard_id: int) -> str:
    """Derive a shard file name from the manifest's: insert ``.shardK``.

    ``idx.json.gz`` → ``idx.shard0.json.gz`` (the trailing extension is
    preserved so gzip autodetection keeps working for shard files).
    """
    dot = manifest_name.find(".")
    if dot < 0:
        return f"{manifest_name}.shard{shard_id}"
    return f"{manifest_name[:dot]}.shard{shard_id}{manifest_name[dot:]}"


def save_sharded_index(
    sharded_index, path: PathLike, format: int = FORMAT_VERSION
) -> None:
    """Persist a sharded index: a JSON manifest plus one file per shard.

    The manifest (at ``path``) records the partitioner and the shard
    file names *relative to its own directory*, so the whole set of
    files can be moved together.  Each shard file is an ordinary v4
    index artefact (readable by :func:`load_index`, which ignores the
    extra global-id column) enriched with the shard's local→global
    docid map.  ``format`` accepts only 4, the one writable format.
    """
    path = Path(path)
    if format != FORMAT_VERSION:
        raise StorageError(
            f"cannot write index format {format!r} "
            f"(the writable format is {FORMAT_VERSION})"
        )
    shard_entries = []
    for shard in sharded_index.shards:
        shard_name = _shard_file_name(path.name, shard.shard_id)
        _write_index_file(
            path.parent / shard_name, shard.index, shard.global_ids
        )
        shard_entries.append(
            {"file": shard_name, "num_docs": shard.index.num_docs}
        )
    manifest = {
        "kind": "sharded_index",
        "version": FORMAT_VERSION,
        "partitioner": {
            "name": sharded_index.partitioner.name,
            "num_shards": sharded_index.partitioner.num_shards,
        },
        "shards": shard_entries,
    }
    _write_payload(path, manifest)


def _load_shard_file(shard_path: Path):
    """Load one per-shard artefact file → ``(index, global_ids array)``.

    Raises :class:`FileNotFoundError` for a missing file and
    :class:`StorageError` for a readable-but-wrong one; callers wrap
    both into their own context-naming error.
    """
    if not blockstore.is_block_file(shard_path):
        if not shard_path.exists():
            raise FileNotFoundError(shard_path)
        raise _unconverted(shard_path, _read_payload(shard_path), "index")
    reader = blockstore.BlockFile(shard_path)
    try:
        global_ids = reader.global_ids()
        if global_ids is None:
            raise StorageError(
                f"shard file {shard_path} carries no global docid map"
            )
        index = _index_from_block_reader(reader)
    except Exception:
        reader.close()
        raise
    index.attach_resource(reader)
    return index, array("q", global_ids)


def load_shard(path: PathLike, shard_id: int = 0):
    """Load one per-shard artefact file as a standalone :class:`IndexShard`.

    This is what a cluster shard worker (``repro worker``) serves: one
    shard file written by :func:`save_sharded_index` — or shipped from a
    peer replica — carrying both the sub-index and its local→global
    docid map.  ``shard_id`` is assigned by the caller (the cluster
    config decides which logical shard this worker holds).
    """
    from .index.sharded import IndexShard

    path = Path(path)
    try:
        index, global_ids = _load_shard_file(path)
    except FileNotFoundError:
        raise StorageError(f"shard file {path} is missing") from None
    return IndexShard(shard_id, index, global_ids)


def load_sharded_index(path: PathLike):
    """Load a sharded index saved by :func:`save_sharded_index`.

    A missing, truncated, or version-incompatible per-shard file
    surfaces as a single readable :class:`StorageError` naming the
    offending file — the manifest alone never names enough state to
    serve from, so a partial load is always a hard error.
    """
    from .index.sharded import IndexShard, ShardedInvertedIndex, make_partitioner

    path = Path(path)
    manifest = _read_payload(path)
    if (
        manifest.get("kind") != "sharded_index"
        or manifest.get("version") != FORMAT_VERSION
    ):
        raise _unconverted(path, manifest, "sharded_index")
    partitioner = make_partitioner(
        manifest["partitioner"]["name"], manifest["partitioner"]["num_shards"]
    )
    shards = []
    for shard_id, entry in enumerate(manifest["shards"]):
        shard_path = path.parent / entry["file"]
        try:
            index, global_ids = _load_shard_file(shard_path)
        except FileNotFoundError:
            raise StorageError(
                f"sharded index {path}: shard file {shard_path} is missing"
            ) from None
        except StorageError as exc:
            raise StorageError(
                f"sharded index {path}: shard file {shard_path} is "
                f"unreadable ({exc})"
            ) from None
        shards.append(IndexShard(shard_id, index, global_ids))
    return ShardedInvertedIndex(shards, partitioner)


def load_any_index(path: PathLike):
    """Load whichever index kind ``path`` holds (flat, sharded, segmented).

    The CLI's commands use this so one ``--index`` flag accepts all
    three artefacts.  A *directory* is a segmented index (manifest +
    WAL + per-segment files): the load performs crash recovery — the
    committed manifest plus a replay of the live WAL generation.
    """
    path = Path(path)
    if path.is_dir():
        from .lifecycle import SegmentedIndex

        return SegmentedIndex.open(path)
    if blockstore.is_block_file(path):
        return _load_block_index(path)
    payload = _read_payload(path)
    if payload.get("kind") == "sharded_index":
        return load_sharded_index(path)
    raise _unconverted(path, payload, "index")


# -- view catalogs -------------------------------------------------------------


def _encode_view(view: MaterializedView) -> dict:
    return {
        "keywords": sorted(view.keyword_set),
        "df_terms": sorted(view.df_terms),
        "tc_terms": sorted(view.tc_terms),
        "groups": [
            {
                "pattern": sorted(pattern),
                "count": group.count,
                "sum_len": group.sum_len,
                "df": group.df,
                "tc": group.tc,
            }
            for pattern, group in view.groups.items()
        ],
    }


def _decode_view(entry: dict) -> MaterializedView:
    groups: Dict[FrozenSet[str], GroupTuple] = {}
    for item in entry["groups"]:
        groups[frozenset(item["pattern"])] = GroupTuple(
            count=item["count"],
            sum_len=item["sum_len"],
            df=dict(item["df"]),
            tc=dict(item["tc"]),
        )
    return MaterializedView(
        keyword_set=entry["keywords"],
        groups=groups,
        df_terms=entry["df_terms"],
        tc_terms=entry["tc_terms"],
    )


def save_catalog(
    catalog: ViewCatalog,
    path: PathLike,
    generation: int = 0,
    selection: Optional[dict] = None,
) -> None:
    """Persist every materialized view in the catalog.

    ``generation`` and ``selection`` carry the adaptive-selection
    provenance (hot-swap generation plus the reselection pass summary)
    so ``repro info`` can report where a saved catalog came from; both
    default to "not adaptively selected".
    """
    path = Path(path)
    payload = {
        "kind": "catalog",
        "version": _JSON_VERSION,
        "generation": generation,
        "views": [_encode_view(view) for view in catalog],
    }
    if selection is not None:
        payload["selection"] = dict(selection)
    _write_payload(path, payload)


def load_catalog(path: PathLike) -> ViewCatalog:
    """Load a catalog saved by :func:`save_catalog`."""
    path = Path(path)
    payload = _read_payload(path)
    _check_header(payload, "catalog")
    return ViewCatalog(_decode_view(entry) for entry in payload["views"])


def load_catalog_info(path: PathLike) -> dict:
    """The provenance header of a saved catalog, without the views.

    Returns ``{"num_views", "generation", "selection"}`` — pre-PR-8
    files (no generation field) read as generation 0 with no selection
    record.
    """
    path = Path(path)
    payload = _read_payload(path)
    _check_header(payload, "catalog")
    return {
        "num_views": len(payload["views"]),
        "generation": payload.get("generation", 0),
        "selection": payload.get("selection"),
    }
