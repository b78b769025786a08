"""Persistence: save and load indexes and view catalogs.

A production deployment cannot re-ingest 18 M citations or re-run a
40-hour view selection on every restart (Section 6.2's selection cost is
the whole motivation for persisting its output).  This module serialises
both artefacts:

* **indexes** default to the *binary block format* (version 4, see
  :mod:`repro.index.blockstore`): delta-encoded bit-packed posting
  blocks behind an mmap, a fixed-width term dictionary, and per-block
  skip/max-tf metadata, so a cold open reads only header + dictionaries
  and queries decode just the blocks they touch.  Version-3/2/1 JSON
  payloads, written by earlier releases, all still load; the v2/v3
  posting columns (base64-packed little-endian int64) of flat files and
  of legacy JSON lifecycle segments decode through one
  :func:`decode_posting_columns`;
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

import base64
import gzip
import json
import os
import sys
from array import array
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from .errors import StorageError
from .index import blockstore
from .index.documents import Document, StoredDocument
from .index.inverted_index import InvertedIndex
from .index.postings import PostingList
from .views.catalog import ViewCatalog
from .views.view import GroupTuple, MaterializedView

FORMAT_VERSION = 4
SUPPORTED_VERSIONS = (1, 2, 3, 4)
#: The JSON layouts froze at version 3; only the index artefact gained
#: the binary v4 encoding.  Documents and catalogs keep stamping 3.
_JSON_VERSION = 3

PathLike = Union[str, Path]

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "StorageError",
    "encode_column",
    "decode_column",
    "LazyTokenFields",
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


def encode_column(values: Iterable[int]) -> str:
    """Pack an int64 column as base64 of little-endian bytes.

    One JSON string token parses orders of magnitude faster than a list
    of integers, and decoding is ``array.frombytes`` — the reason the
    v2 cold-load path is array adoption rather than number parsing.
    """
    column = values if isinstance(values, array) else array("q", values)
    if sys.byteorder != "little":
        column = array("q", column)
        column.byteswap()
    return base64.b64encode(column.tobytes()).decode("ascii")


def decode_column(text: str) -> array:
    """Inverse of :func:`encode_column`."""
    column = array("q")
    column.frombytes(base64.b64decode(text))
    if sys.byteorder != "little":
        column.byteswap()
    return column


class LazyTokenFields(dict):
    """A ``field_tokens`` mapping that unpacks joined strings on demand.

    Query execution runs entirely off the precompiled posting columns;
    the stored token lists are only read by view maintenance, re-saves,
    and per-document tf probes.  Keeping each field packed until first
    access makes cold load O(postings) instead of O(total tokens).
    Materialised fields replace the packed form in place, so the split
    happens at most once per field.
    """

    __slots__ = ()

    def _materialise(self, key, value):
        if isinstance(value, str):
            value = value.split(" ") if value else []
            dict.__setitem__(self, key, value)
        return value

    def __getitem__(self, key):
        return self._materialise(key, dict.__getitem__(self, key))

    def get(self, key, default=None):
        if key not in self:
            return default
        return self[key]

    def items(self):
        return [(key, self[key]) for key in dict.keys(self)]

    def values(self):
        return [self[key] for key in dict.keys(self)]


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


def _check_header(payload: dict, expected_kind: str) -> int:
    """Validate kind and version; returns the payload's format version."""
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
    return version


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


def _decode_index_v1(payload: dict) -> InvertedIndex:
    """Legacy decode: re-accumulate postings from the stored tokens."""
    index = InvertedIndex(
        searchable_fields=tuple(payload["searchable_fields"]),
        predicate_field=payload["predicate_field"],
        segment_size=payload["segment_size"],
    )
    for entry in payload["documents"]:
        field_tokens: Dict[str, List[str]] = {
            name: list(tokens)
            for name, tokens in entry["field_tokens"].items()
        }
        index.add_preanalyzed(entry["external_id"], field_tokens)
    return index.commit()


def decode_posting_columns(payload: dict, segment_size: int):
    """Decode the v2/v3 JSON posting columns → ``(content, predicates)``.

    One decoder for flat index files and legacy JSON lifecycle segments.
    A v3 content entry is ``[ids, tfs, max_tf, block maxima]``, adopted
    wholesale; v2 stops after ``max_tf`` (flat files) or after ``tfs``
    (segments), and freeze recomputes what is missing.  Malformed
    entries raise ``KeyError``/``TypeError``/``ValueError`` for the
    caller to name its artefact.
    """
    content = {}
    for term, (ids, tfs, *stored) in payload["content"].items():
        if len(stored) > 2:
            raise ValueError(f"posting entry {term!r} has extra fields")
        max_tf, blocks = (*stored, None, None)[:2]
        content[term] = PostingList.from_arrays(
            term,
            decode_column(ids),
            decode_column(tfs),
            segment_size=segment_size,
            validate=False,
            max_tf=max_tf,
            block_max_tfs=None if blocks is None else decode_column(blocks),
        )
    predicates = {}
    for term, packed in payload["predicates"].items():
        ids = decode_column(packed)
        predicates[term] = PostingList.from_arrays(
            term,
            ids,
            array("q", [1]) * len(ids),
            segment_size=segment_size,
            validate=False,
            max_tf=1 if ids else 0,
            block_max_tfs=array("q", [1]) * -(-len(ids) // segment_size),
        )
    return content, predicates


def _decode_index(payload: dict, version: int = FORMAT_VERSION) -> InvertedIndex:
    if version == 1:
        return _decode_index_v1(payload)
    segment_size = payload["segment_size"]
    try:
        documents = [
            StoredDocument(
                internal_id=internal_id,
                external_id=entry["external_id"],
                field_tokens=LazyTokenFields(entry["field_tokens"]),
                length=entry["length"],
                unique_terms=entry["unique_terms"],
            )
            for internal_id, entry in enumerate(payload["documents"])
        ]
        content, predicates = decode_posting_columns(payload, segment_size)
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed index payload: {exc!r}") from None
    return InvertedIndex.from_compiled(
        documents,
        content,
        predicates,
        searchable_fields=tuple(payload["searchable_fields"]),
        predicate_field=payload["predicate_field"],
        segment_size=segment_size,
    )


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

    The format is sniffed from the file itself, never the name: v4
    block files open as mmap-backed lazy indexes, version-3/2 JSON
    payloads adopt their compiled posting columns wholesale, and
    version-1 payloads fall back to the legacy rebuild from stored
    token streams.  Either way the loaded index is bit-identical in
    behaviour to the original.
    """
    path = Path(path)
    if blockstore.is_block_file(path):
        return _load_block_index(path)
    payload = _read_payload(path)
    version = _check_header(payload, "index")
    return _decode_index(payload, version)


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
    from array import array

    if blockstore.is_block_file(shard_path):
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
    else:
        if not shard_path.exists():
            raise FileNotFoundError(shard_path)
        payload = _read_payload(shard_path)
        version = _check_header(payload, "index")
        packed = payload.get("global_ids")
        if packed is None:
            raise StorageError(
                f"shard file {shard_path} carries no global docid map"
            )
        global_ids = array("q", packed)
        index = _decode_index(payload, version)
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
    _check_header(manifest, "sharded_index")
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
    version = _check_header(payload, "index")
    return _decode_index(payload, version)


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
