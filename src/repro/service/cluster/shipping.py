"""Replica bootstrap by segment shipping.

A new shard worker does not re-ingest documents: it pulls the sealed
artefact files its peer already serves — a v4 block shard file, a JSON
shard file, or a whole segmented-index directory (manifest + sealed
``segments/*.seg``) — over two protocol ops:

``segment_manifest``
    ``{"files": [{"name", "size", "crc32"}, ...], "root": "<entry file>"}``
    — the served file set with integrity metadata, names relative to the
    artefact root (``""`` for a directory artefact's root itself).

``fetch_segment``
    ``{"name", "offset", "length"}`` → ``{"data": <base64>, "eof": bool}``
    — one chunk of one file.  Chunks stay well under the cluster frame
    limit; files are sealed/immutable, so offset-ranged reads need no
    locking.

The client (:func:`fetch_artifact`) downloads into a temp sibling,
verifies size and crc32 against the peer's manifest, and promotes with
``os.replace`` — the same atomic-commit + "corrupt artefact" discipline
as :mod:`repro.lifecycle.storage`; a checksum mismatch is a hard
:class:`~repro.storage.StorageError` naming the file, never a silently
wrong index.  Files already present with matching size+crc are skipped,
so re-bootstrapping an interrupted pull only moves the missing bytes.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import StorageError
from .config import ClusterConfigError

__all__ = [
    "ArtifactShipper",
    "decode_catalog_frame",
    "encode_catalog_frame",
    "fetch_artifact",
    "ship_chunk_bytes",
]

# Raw bytes per fetch_segment chunk; base64 inflates 4/3, keeping the
# response line far below MAX_CLUSTER_LINE_BYTES.
ship_chunk_bytes = 1 << 18


def _file_crc32(path: Path) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            crc = zlib.crc32(block, crc)
    return crc & 0xFFFFFFFF


class ArtifactShipper:
    """Server side: expose one sealed artefact (file or directory).

    The served name set is computed from the artefact root; requests for
    any other name (including traversal attempts) are refused with a
    readable error.
    """

    def __init__(self, artifact: Path):
        self.root = Path(artifact)
        if not self.root.exists():
            raise StorageError(f"missing artefact {self.root}")

    def _files(self) -> Dict[str, Path]:
        if self.root.is_file():
            return {self.root.name: self.root}
        files: Dict[str, Path] = {}
        for path in sorted(self.root.rglob("*")):
            if path.is_file() and not path.name.endswith(".tmp"):
                files[path.relative_to(self.root).as_posix()] = path
        return files

    def manifest(self) -> dict:
        files: List[dict] = []
        for name, path in self._files().items():
            files.append(
                {
                    "name": name,
                    "size": path.stat().st_size,
                    "crc32": _file_crc32(path),
                }
            )
        return {
            "root": self.root.name if self.root.is_file() else "",
            "files": files,
        }

    def fetch(self, name: str, offset: int, length: Optional[int]) -> dict:
        path = self._files().get(str(name))
        if path is None:
            raise StorageError(
                f"artefact has no file named {name!r} "
                f"(serving {self.root.name})"
            )
        offset = max(int(offset), 0)
        length = ship_chunk_bytes if length is None else int(length)
        length = max(0, min(length, ship_chunk_bytes))
        size = path.stat().st_size
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
        return {
            "name": name,
            "offset": offset,
            "size": size,
            "data": base64.b64encode(data).decode("ascii"),
            "eof": offset + len(data) >= size,
        }


def fetch_artifact(
    address: str,
    dest: Path,
    timeout: float = 30.0,
) -> Tuple[Path, int]:
    """Pull a peer worker's artefact into ``dest``; returns the local
    artefact path to serve and the number of files actually copied.

    ``address`` is the peer's ``host:port``; ``dest`` is a directory
    (created if missing).  For a single-file artefact the returned path
    is that file inside ``dest``; for a directory artefact it is
    ``dest`` itself.
    """
    from ..protocol import ProtocolError, ServiceClient
    from .config import parse_address

    host, port = parse_address(address)
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    copied = 0
    try:
        client = ServiceClient(host, port, timeout=timeout)
    except OSError as exc:
        raise ClusterConfigError(
            f"cannot reach bootstrap peer {address}: {exc}"
        ) from None
    try:
        manifest = client.request({"op": "segment_manifest"})
        if manifest.get("status") != "ok":
            raise StorageError(
                f"bootstrap peer {address} refused segment_manifest: "
                f"{manifest.get('error', 'no error text')}"
            )
        for entry in manifest.get("files", []):
            name = entry["name"]
            if Path(name).is_absolute() or ".." in Path(name).parts:
                raise StorageError(
                    f"bootstrap peer {address} offered an unsafe file "
                    f"name {name!r}"
                )
            target = dest / name
            if (
                target.exists()
                and target.stat().st_size == entry["size"]
                and _file_crc32(target) == entry["crc32"]
            ):
                continue  # already shipped and verified
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(target.name + ".tmp")
            crc = 0
            written = 0
            with open(tmp, "wb") as handle:
                offset = 0
                while True:
                    chunk = client.request(
                        {
                            "op": "fetch_segment",
                            "name": name,
                            "offset": offset,
                            "length": ship_chunk_bytes,
                        }
                    )
                    if chunk.get("status") != "ok":
                        raise StorageError(
                            f"bootstrap peer {address} failed fetching "
                            f"{name!r}: {chunk.get('error', 'no error text')}"
                        )
                    try:
                        data = base64.b64decode(chunk["data"])
                    except (KeyError, binascii.Error, TypeError):
                        raise StorageError(
                            f"bootstrap peer {address} sent an undecodable "
                            f"chunk of {name!r}"
                        ) from None
                    handle.write(data)
                    crc = zlib.crc32(data, crc)
                    written += len(data)
                    offset += len(data)
                    if chunk.get("eof") or not data:
                        break
            if written != entry["size"] or (crc & 0xFFFFFFFF) != entry["crc32"]:
                tmp.unlink(missing_ok=True)
                raise StorageError(
                    f"corrupt artefact {target}: segment shipping from "
                    f"{address} got {written} bytes/crc {crc & 0xFFFFFFFF}, "
                    f"expected {entry['size']} bytes/crc {entry['crc32']}"
                )
            os.replace(tmp, target)
            copied += 1
    except ProtocolError as exc:
        raise StorageError(
            f"bootstrap peer {address} broke the shipping protocol: {exc}"
        ) from None
    finally:
        client.close()
    root = manifest.get("root") or ""
    return (dest / root if root else dest), copied


# -- catalog shipping ----------------------------------------------------------
#
# The adaptive cluster ships *view definitions*, not materialised views:
# a definition is three term sets per view (keywords, df terms, tc
# terms), a few kilobytes, and each worker re-materialises partial views
# over its own shard — exact, because df and term counts aggregate
# distributively across shards (see repro.views.sharding).  The frame
# reuses this module's integrity discipline: one JSON body, base64 on
# the wire, size + crc32 verified before anything is installed.


def encode_catalog_frame(definitions: Sequence[Tuple]) -> dict:
    """Pack view definitions into a crc-verified wire frame.

    ``definitions`` is what :func:`repro.views.sharding.
    catalog_definitions` returns: ``(keyword_set, df_terms, tc_terms)``
    triples of frozensets.  Sets are sorted so the frame (and its crc)
    is deterministic for a given catalog.
    """
    body = json.dumps(
        [
            {
                "keywords": sorted(keywords),
                "df": sorted(df_terms),
                "tc": sorted(tc_terms),
            }
            for keywords, df_terms, tc_terms in definitions
        ],
        sort_keys=True,
    ).encode("utf-8")
    return {
        "data": base64.b64encode(body).decode("ascii"),
        "size": len(body),
        "crc32": zlib.crc32(body) & 0xFFFFFFFF,
    }


def decode_catalog_frame(frame: dict) -> List[Tuple]:
    """Unpack and integrity-check a catalog frame.

    Returns the ``(keyword_set, df_terms, tc_terms)`` frozenset triples;
    raises :class:`~repro.storage.StorageError` on any size/crc mismatch
    or malformed body — a worker must never install a catalog it cannot
    prove it received intact.
    """
    if not isinstance(frame, dict) or "data" not in frame:
        raise StorageError("catalog frame missing 'data'")
    try:
        body = base64.b64decode(frame["data"], validate=True)
    except (binascii.Error, TypeError, ValueError):
        raise StorageError("catalog frame is not valid base64") from None
    size = frame.get("size")
    crc = frame.get("crc32")
    if size is not None and len(body) != int(size):
        raise StorageError(
            f"corrupt catalog frame: got {len(body)} bytes, "
            f"expected {size}"
        )
    if crc is not None and (zlib.crc32(body) & 0xFFFFFFFF) != int(crc):
        raise StorageError(
            f"corrupt catalog frame: crc {zlib.crc32(body) & 0xFFFFFFFF}, "
            f"expected {crc}"
        )
    try:
        entries = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise StorageError("catalog frame body is not valid JSON") from None
    if not isinstance(entries, list):
        raise StorageError("catalog frame body must be a list of views")
    definitions: List[Tuple] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise StorageError("catalog frame view entry must be a dict")
        try:
            definitions.append(
                (
                    frozenset(entry["keywords"]),
                    frozenset(entry["df"]),
                    frozenset(entry["tc"]),
                )
            )
        except (KeyError, TypeError):
            raise StorageError(
                "catalog frame view entry missing keywords/df/tc"
            ) from None
    return definitions
