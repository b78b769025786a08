#!/usr/bin/env python3
"""Upgrade a JSON index (formats 1-3) to the v4 block format.

The library reads index format 4 only.  This one-shot tool converts what
older releases wrote: a flat index file, a sharded set (manifest plus
per-shard files) or a segmented index directory.  Run from the repo root:

    PYTHONPATH=src python tools/upgrade_index.py SRC DST

``SRC`` is only read; ``DST`` must not exist.  The old posting columns
are not decoded: every v1-v3 payload stores each document's analysed
token streams, so postings, ``max_tf`` and block maxima are rebuilt from
them exactly as the current builder computes them.

* flat and shard files: ``InvertedIndex.add_preanalyzed`` in stored
  order, then ``commit()``; shards keep their ``global_ids`` and the
  manifest's partitioner;
* segmented directories: each JSON segment is rebuilt by
  ``Segment.build`` from its stored documents (docids, lengths and
  unique-term counts kept) and written as a ``.seg`` file; v4 segments
  and the live WAL are copied as they are, and the manifest is
  rewritten as version 4.

Exit status 0 on success, 2 with a one-line ``error:`` message otherwise.
"""

from __future__ import annotations

import shutil
import sys
from array import array
from pathlib import Path

from repro.errors import IndexError_, StorageError
from repro.index import blockstore
from repro.index.documents import StoredDocument
from repro.index.inverted_index import InvertedIndex
from repro.index.sharded import IndexShard, ShardedInvertedIndex, make_partitioner
from repro.lifecycle.segment import Segment
from repro.lifecycle.storage import MANIFEST_NAME, SEGMENT_DIR, SegmentStorage
from repro.storage import _read_payload, _write_payload, save_index, save_sharded_index

LEGACY_VERSIONS = (1, 2, 3)
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError_)


def _read(path: Path) -> dict:
    if not path.exists():
        raise StorageError(f"{path} is missing")
    return _read_payload(path)


def _legacy_payload(path: Path, kind: str) -> dict:
    """Read one JSON artefact that must be a legacy ``kind`` payload."""
    if blockstore.is_block_file(path):
        raise StorageError(f"{path} is already index format 4")
    payload = _read(path)
    if payload.get("kind") != kind:
        raise StorageError(
            f"expected a persisted {kind!r} in {path}, found {payload.get('kind')!r}"
        )
    if payload.get("version") not in LEGACY_VERSIONS:
        raise StorageError(
            f"{path} has format version {payload.get('version')!r}; "
            f"this tool upgrades versions 1, 2, 3"
        )
    return payload


def _tokens(fields: dict) -> dict:
    """Stored field tokens: a v3 field is one space-joined string, a
    v1/v2 field (or a v3 one whose tokens would not round-trip) a list."""
    return {
        name: (value.split(" ") if value else [])
        if isinstance(value, str)
        else list(value)
        for name, value in fields.items()
    }


def _rebuild_index(path: Path) -> tuple:
    """A flat or shard payload → ``(committed index, payload)``."""
    payload = _legacy_payload(path, "index")
    try:
        index = InvertedIndex(
            searchable_fields=tuple(payload["searchable_fields"]),
            predicate_field=payload["predicate_field"],
            segment_size=payload["segment_size"],
        )
        for entry in payload["documents"]:
            index.add_preanalyzed(entry["external_id"], _tokens(entry["field_tokens"]))
    except _MALFORMED as exc:
        raise StorageError(f"malformed index payload in {path}: {exc!r}") from None
    return index.commit(), payload


def upgrade_sharded(src: Path, manifest: dict, dst: Path) -> None:
    shards = []
    try:
        partitioner = make_partitioner(
            manifest["partitioner"]["name"], manifest["partitioner"]["num_shards"]
        )
        for shard_id, entry in enumerate(manifest["shards"]):
            shard_path = src.parent / entry["file"]
            try:
                index, payload = _rebuild_index(shard_path)
            except StorageError as exc:
                raise StorageError(
                    f"sharded index {src}: shard file {shard_path} is "
                    f"unreadable ({exc})"
                ) from None
            shards.append(
                IndexShard(shard_id, index, array("q", payload["global_ids"]))
            )
        sharded = ShardedInvertedIndex(shards, partitioner)
    except _MALFORMED as exc:
        raise StorageError(f"malformed sharded index {src}: {exc!r}") from None
    save_sharded_index(sharded, dst)


def _rebuild_segment(path: Path, config: dict) -> Segment:
    payload = _legacy_payload(path, "segment")
    try:
        documents = [
            StoredDocument(
                internal_id=entry["internal_id"],
                external_id=entry["external_id"],
                field_tokens=_tokens(entry["field_tokens"]),
                length=entry["length"],
                unique_terms=entry["unique_terms"],
            )
            for entry in payload["documents"]
        ]
        return Segment.build(
            payload["segment_id"],
            documents,
            config["searchable_fields"],
            config["predicate_field"],
            segment_size=config["segment_size"],
        )
    except _MALFORMED as exc:
        raise StorageError(f"malformed segment payload in {path}: {exc!r}") from None


def upgrade_segmented(src: Path, dst: Path) -> None:
    """Convert per segment: a v4 manifest may still name JSON segments."""
    manifest = _read(src / MANIFEST_NAME)
    if manifest.get("kind") != "segmented_index":
        raise StorageError(
            f"expected a segmented-index manifest in {src / MANIFEST_NAME}, "
            f"found {manifest.get('kind')!r}"
        )
    store = SegmentStorage(dst)
    try:
        for entry in manifest["segments"]:
            source = src / entry["file"]
            if blockstore.is_block_file(source):
                shutil.copyfile(source, dst / entry["file"])
                continue
            segment = _rebuild_segment(source, manifest["config"])
            entry["file"] = f"{SEGMENT_DIR}/{segment.segment_id}.seg"
            store._write_segment(segment, dst / entry["file"])
    except _MALFORMED as exc:
        raise StorageError(
            f"malformed manifest {src / MANIFEST_NAME}: {exc!r}"
        ) from None
    wal = src / manifest.get("wal", store.default_wal_name())
    if wal.exists():
        shutil.copyfile(wal, dst / wal.name)
    manifest["version"] = 4
    _write_payload(store.manifest_path, manifest)


def upgrade(src, dst) -> str:
    """Convert ``src`` into a new v4 artefact at ``dst``; returns its kind."""
    src, dst = Path(src), Path(dst)
    if dst.exists():
        raise StorageError(f"{dst} already exists; choose a new destination")
    if not src.exists():
        raise StorageError(f"{src} does not exist")
    if src.is_dir():
        if src.resolve() in dst.resolve().parents:
            raise StorageError(f"{dst} lies inside {src}; write elsewhere")
        try:
            upgrade_segmented(src, dst)
        except BaseException:
            shutil.rmtree(dst, ignore_errors=True)
            raise
        return "segmented"
    if not blockstore.is_block_file(src):
        manifest = _read_payload(src)
        if manifest.get("kind") == "sharded_index":
            upgrade_sharded(src, manifest, dst)
            return "sharded"
    save_index(_rebuild_index(src)[0], dst)
    return "flat"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: upgrade_index.py SRC DST", file=sys.stderr)
        return 2
    try:
        kind = upgrade(*args)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"upgraded {kind} index {args[0]} -> {args[1]} (format 4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
