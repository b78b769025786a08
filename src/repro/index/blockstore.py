"""Binary block storage (format v4): mmap-backed, lazily decoded.

Layout of a ``.v4`` artefact (all integers little-endian)::

    +-----------------------------------------------------------------+
    | magic "CSRX4\\r\\n\\0" (8B) | header_len u32 | header JSON       |
    +-----------------------------------------------------------------+
    | sections, at offsets recorded in header["sections"] relative    |
    | to the end of the header:                                       |
    |   doc_meta       3 x num_docs i64 (internal ids, lengths,       |
    |                  unique-term counts)                            |
    |   ext_ids        zlib, newline-joined external ids              |
    |   token_dict     zlib, newline-joined distinct tokens/fields    |
    |   token_stream   zlib varint stream of per-doc token ids        |
    |   token_offsets  num_docs i64 end offsets into the decompressed |
    |                  token stream                                   |
    |   terms_text     concatenated UTF-8 term strings                |
    |   content_index  fixed 48-byte records, one per content term    |
    |   predicate_index  same, one per predicate term                 |
    |   block_meta     per list: seg_mins, seg_maxes, seg_max_tfs,    |
    |                  block end offsets (4 x n_blocks i64)           |
    |   blocks         concatenated block frames                      |
    |                  (:func:`repro.index.compression.encode_block`) |
    |   global_ids     num_docs i64 (sharded shard files only)        |
    +-----------------------------------------------------------------+

Term record (48 bytes, ``<QIIQQQQ`` minus the reserved pad)::

    term_off u64 | term_len u32 | reserved u32 | count u64 |
    max_tf u64   | meta_off u64 | data_off u64

``term_off`` indexes ``terms_text``; ``meta_off``/``data_off`` index
``block_meta``/``blocks``.  The records are fixed width and sorted by
term, so any list — or any single block of it, via the per-block end
offsets — can be located with arithmetic, never by parsing the file.

A cold :class:`BlockFile` open reads the header, dictionaries, and
skip metadata (a few hundred KB); posting payloads stay on disk until a
query reads a list's elements, at which point the whole list decodes
once into arrays that live on the list.  The mmap is the only OS
resource: the file descriptor is closed immediately after mapping, so
an unclosed reader can never raise ``ResourceWarning``; ``close()``
releases the mapping deterministically.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import threading
import zlib
from array import array
from collections.abc import MutableMapping
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import IndexError_, StorageError
from .compression import decode_block, encode_block, encode_varint, decode_varint
from .documents import DocumentStore, StoredDocument
from .postings import LazyPostingList, PostingList

MAGIC = b"CSRX4\r\n\x00"
BLOCK_FORMAT_VERSION = 4
_HEADER_LEN_STRUCT = struct.Struct("<I")
_TERM_RECORD = struct.Struct("<QIIQQQQ")

_BIG_ENDIAN = sys.byteorder == "big"


def _column_bytes(values: Iterable[int]) -> bytes:
    col = values if isinstance(values, array) and values.typecode == "q" else array("q", values)
    if _BIG_ENDIAN:
        col = array("q", col)
        col.byteswap()
    return col.tobytes()


def _adopt_column(buf: bytes) -> array:
    col = array("q")
    col.frombytes(buf)
    if _BIG_ENDIAN:
        col.byteswap()
    return col


def _corrupt(path, offset: int, detail: str) -> StorageError:
    return StorageError(f"corrupt artefact {path} at byte {offset}: {detail}")


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------


def _encode_list(plist: PostingList, segment_size: int):
    """Encode one posting list into (meta bytes, frame bytes)."""
    if plist.segment_size != segment_size:
        raise StorageError(
            f"posting list {plist.term!r} has segment size "
            f"{plist.segment_size}, file uses {segment_size}"
        )
    ids = plist.doc_ids
    tfs = plist.tfs
    n = len(plist)
    frames = bytearray()
    ends = array("q")
    prev = -1
    for start in range(0, n, segment_size):
        count = min(segment_size, n - start)
        frames += encode_block(ids, tfs, start, count, prev)
        ends.append(len(frames))
        prev = ids[start + count - 1]
    meta = (
        _column_bytes(plist._seg_mins)
        + _column_bytes(plist._seg_maxes)
        + _column_bytes(plist._seg_max_tfs)
        + _column_bytes(ends)
    )
    return meta, bytes(frames)


def _encode_token_sections(documents: List[StoredDocument]):
    """Token-id varint stream + dictionary, or a JSON fallback.

    Returns ``(codec, token_dict, token_stream, token_offsets)`` where
    the dict/offsets entries are ``b""`` under the JSON fallback (used
    when some token embeds the dictionary's newline separator).
    """
    distinct = set()
    plain = True
    for doc in documents:
        for name, tokens in doc.field_tokens.items():
            if "\n" in name:
                plain = False
                break
            distinct.add(name)
            for token in tokens:
                if "\n" in token:
                    plain = False
                    break
                distinct.add(token)
            if not plain:
                break
        if not plain:
            break
    if not plain:
        payload = json.dumps(
            [
                {name: list(tokens) for name, tokens in doc.field_tokens.items()}
                for doc in documents
            ],
            ensure_ascii=False,
        ).encode("utf-8")
        return "json", b"", zlib.compress(payload, 6), b""
    vocab = sorted(distinct)
    token_id = {token: i for i, token in enumerate(vocab)}
    stream = bytearray()
    offsets = array("q")
    for doc in documents:
        fields = doc.field_tokens
        stream += encode_varint(len(fields))
        for name, tokens in fields.items():
            stream += encode_varint(token_id[name])
            stream += encode_varint(len(tokens))
            for token in tokens:
                stream += encode_varint(token_id[token])
        offsets.append(len(stream))
    return (
        "ids",
        zlib.compress("\n".join(vocab).encode("utf-8"), 6),
        zlib.compress(bytes(stream), 6),
        _column_bytes(offsets),
    )


def write_block_file(
    path,
    *,
    kind: str,
    config: Dict,
    segment_size: int,
    documents: Iterable[StoredDocument],
    content: Dict[str, PostingList],
    predicates: Dict[str, PostingList],
    global_ids: Optional[Iterable[int]] = None,
    header_extra: Optional[Dict] = None,
    atomic: bool = False,
) -> int:
    """Serialise one index/segment into a v4 block file; returns bytes written."""
    documents = list(documents)
    ext_ids = [doc.external_id for doc in documents]
    if any("\n" in ext for ext in ext_ids):
        ext_codec = "json"
        ext_payload = zlib.compress(
            json.dumps(ext_ids, ensure_ascii=False).encode("utf-8"), 6
        )
    else:
        ext_codec = "lines"
        ext_payload = zlib.compress("\n".join(ext_ids).encode("utf-8"), 6)

    doc_meta = (
        _column_bytes(doc.internal_id for doc in documents)
        + _column_bytes(doc.length for doc in documents)
        + _column_bytes(doc.unique_terms for doc in documents)
    )

    tokens_codec, token_dict, token_stream, token_offsets = _encode_token_sections(
        documents
    )

    terms_text = bytearray()
    block_meta = bytearray()
    blocks = bytearray()

    def encode_space(posting_map: Dict[str, PostingList]) -> bytes:
        records = bytearray()
        for term in sorted(posting_map):
            plist = posting_map[term]
            if len(plist) == 0:
                continue
            term_bytes = term.encode("utf-8")
            term_off = len(terms_text)
            terms_text.extend(term_bytes)
            meta_off = len(block_meta)
            data_off = len(blocks)
            meta, frames = _encode_list(plist, segment_size)
            block_meta.extend(meta)
            blocks.extend(frames)
            records += _TERM_RECORD.pack(
                term_off,
                len(term_bytes),
                0,
                len(plist),
                plist.max_tf,
                meta_off,
                data_off,
            )
        return bytes(records)

    content_index = encode_space(content)
    predicate_index = encode_space(predicates)

    sections: List[Tuple[str, bytes]] = [
        ("doc_meta", doc_meta),
        ("ext_ids", ext_payload),
        ("token_dict", token_dict),
        ("token_stream", token_stream),
        ("token_offsets", token_offsets),
        ("terms_text", bytes(terms_text)),
        ("content_index", content_index),
        ("predicate_index", predicate_index),
        ("block_meta", bytes(block_meta)),
        ("blocks", bytes(blocks)),
    ]
    if global_ids is not None:
        sections.append(("global_ids", _column_bytes(global_ids)))

    offsets: Dict[str, List[int]] = {}
    cursor = 0
    for name, payload in sections:
        offsets[name] = [cursor, len(payload)]
        cursor += len(payload)

    header = {
        "kind": kind,
        "version": BLOCK_FORMAT_VERSION,
        "config": dict(config),
        "num_docs": len(documents),
        "segment_size": segment_size,
        "tokens_codec": tokens_codec,
        "ext_codec": ext_codec,
        "sections": offsets,
    }
    if header_extra:
        header.update(header_extra)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    blob = bytearray()
    blob += MAGIC
    blob += _HEADER_LEN_STRUCT.pack(len(header_bytes))
    blob += header_bytes
    for _, payload in sections:
        blob += payload

    if atomic:
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    else:
        with open(path, "wb") as handle:
            handle.write(blob)
    return len(blob)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------


def is_block_file(path) -> bool:
    """Sniff the v4 magic without raising on short or missing files."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


class _LazyFieldTokens(dict):
    """Per-document ``field_tokens`` mapping decoded on first access."""

    __slots__ = ("_source", "_doc_index")

    def __init__(self, source: "BlockFile", doc_index: int):
        super().__init__()
        self._source = source
        self._doc_index = doc_index

    def _load(self) -> None:
        if self._source is not None:
            dict.update(self, self._source._doc_tokens(self._doc_index))
            self._source = None

    def __getitem__(self, key):
        self._load()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._load()
        return dict.get(self, key, default)

    def __contains__(self, key):
        self._load()
        return dict.__contains__(self, key)

    def __iter__(self):
        self._load()
        return dict.__iter__(self)

    def __len__(self):
        self._load()
        return dict.__len__(self)

    def keys(self):
        self._load()
        return dict.keys(self)

    def values(self):
        self._load()
        return dict.values(self)

    def items(self):
        self._load()
        return dict.items(self)

    def copy(self):
        self._load()
        return dict(dict.items(self))

    def __eq__(self, other):
        self._load()
        if isinstance(other, _LazyFieldTokens):
            other._load()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None

    def __repr__(self):
        self._load()
        return dict.__repr__(self)


class _LazyDocumentStore(DocumentStore):
    """A :class:`DocumentStore` over a block file; shells build on demand.

    Cold open does no per-document work at all.  Queries touch the
    store three ways, each served without hydrating the collection:

    * ``lengths()`` — bulk-decoded from the fixed-width metadata column;
    * ``get(doc_id)`` — one shell per docid, memoised;
    * ``by_external_id`` — an id map built from the external-id section.

    Anything that needs every document — iteration (save, shard
    splits, compaction) or mutation (``add``/``add_restored``) —
    hydrates the full shell list first and then behaves exactly like
    the in-memory store it subclasses.
    """

    def __init__(self, source: "BlockFile"):
        super().__init__()
        self._source = source
        self._hydrated = False
        self._memo: Dict[int, StoredDocument] = {}
        self._ext_map: Optional[Dict[str, int]] = None

    def _hydrate(self) -> None:
        if not self._hydrated:
            self._docs = list(self._source.documents())
            self._by_external = {
                doc.external_id: doc.internal_id for doc in self._docs
            }
            self._memo.clear()
            self._ext_map = None
            self._lengths_cache = None
            self._hydrated = True

    def __len__(self) -> int:
        return len(self._docs) if self._hydrated else self._source.num_docs

    def __iter__(self):
        self._hydrate()
        return iter(self._docs)

    def add(self, document, field_tokens, searchable_fields):
        self._hydrate()
        return super().add(document, field_tokens, searchable_fields)

    def add_restored(self, stored: StoredDocument) -> StoredDocument:
        self._hydrate()
        return super().add_restored(stored)

    def get(self, internal_id: int) -> StoredDocument:
        if self._hydrated:
            return super().get(internal_id)
        if not 0 <= internal_id < self._source.num_docs:
            raise IndexError_(f"unknown internal docid: {internal_id}")
        doc = self._memo.get(internal_id)
        if doc is None:
            doc = self._source.document(internal_id)
            self._memo[internal_id] = doc
        return doc

    def by_external_id(self, external_id: str) -> Optional[StoredDocument]:
        if self._hydrated:
            return super().by_external_id(external_id)
        if self._ext_map is None:
            self._ext_map = {
                ext: i for i, ext in enumerate(self._source.external_ids())
            }
        internal = self._ext_map.get(external_id)
        return None if internal is None else self.get(internal)

    def lengths(self) -> List[int]:
        if self._hydrated:
            return super().lengths()
        if self._lengths_cache is None:
            self._lengths_cache = list(self._source._doc_meta_columns()[1])
        return self._lengths_cache


class _LazyPostingMap(MutableMapping):
    """Term → posting-list mapping that builds each list on first read.

    Entries start as the raw term-dictionary records; any value access
    swaps in the real :class:`LazyPostingList`.  Key-only operations —
    membership, iteration, ``len`` — never build anything, which keeps
    a cold open free of per-term object construction.  Deliberately
    *not* a ``dict`` subclass: ``dict(mapping)`` copies a dict
    subclass's raw table without calling ``__getitem__``, which would
    leak placeholder records; via ``MutableMapping`` such a copy
    materialises every list instead.
    """

    __slots__ = ("_source", "_entries", "_lock")

    def __init__(self, source: "BlockFile", records: Dict[str, tuple]):
        self._source = source
        self._entries = records
        self._lock = threading.Lock()

    def __getitem__(self, term: str) -> LazyPostingList:
        value = self._entries[term]
        if type(value) is tuple:
            # One shell per term even under concurrent readers, so a
            # list is promoted (decoded) once.
            with self._lock:
                value = self._entries[term]
                if type(value) is tuple:
                    value = self._source._build_posting_list(term, value)
                    self._entries[term] = value
        return value

    def get(self, term: str, default=None):
        if term not in self._entries:
            return default
        return self[term]

    def __contains__(self, term) -> bool:
        return term in self._entries

    def __setitem__(self, term: str, value) -> None:
        self._entries[term] = value

    def __delitem__(self, term: str) -> None:
        del self._entries[term]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class BlockFile:
    """An open, mmap-backed v4 artefact.

    The file descriptor is closed as soon as the mapping exists — the
    mapping keeps the pages alive — so the only resource to release is
    the mmap itself, which :meth:`close` does idempotently.  All reads
    slice the mapping into fresh ``bytes`` (never exporting buffers),
    so ``close()`` can never fail with dangling-view errors and decoded
    blocks outlive the file they came from.
    """

    def __init__(self, path):
        self.path = path
        self._mmap: Optional[mmap.mmap] = None
        with open(path, "rb") as handle:
            head = handle.read(len(MAGIC))
            if head != MAGIC:
                raise _corrupt(path, 0, f"bad magic {head!r}")
            try:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                raise _corrupt(path, 0, f"cannot mmap: {exc}") from None
        mm = self._mmap
        if len(mm) < len(MAGIC) + _HEADER_LEN_STRUCT.size:
            raise _corrupt(
                path, len(mm), "file truncated inside the fixed header"
            )
        (header_len,) = _HEADER_LEN_STRUCT.unpack_from(mm, len(MAGIC))
        header_start = len(MAGIC) + _HEADER_LEN_STRUCT.size
        self._base = header_start + header_len
        if self._base > len(mm):
            raise _corrupt(
                path,
                header_start,
                f"header claims {header_len} bytes but only "
                f"{len(mm) - header_start} remain",
            )
        try:
            self.header = json.loads(mm[header_start : self._base].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _corrupt(path, header_start, f"unreadable header: {exc}")
        if self.header.get("version") != BLOCK_FORMAT_VERSION:
            raise StorageError(
                f"artefact {path} has block-format version "
                f"{self.header.get('version')!r}; this build supports "
                f"{BLOCK_FORMAT_VERSION}"
            )
        self.kind = self.header.get("kind", "index")
        self.config = self.header.get("config", {})
        self.num_docs = int(self.header.get("num_docs", 0))
        self.segment_size = int(self.header.get("segment_size", 0))
        if self.segment_size < 2:
            raise _corrupt(
                path, header_start, f"bad segment size {self.segment_size}"
            )
        self._sections = {}
        for name, value in self.header.get("sections", {}).items():
            try:
                offset, length = int(value[0]), int(value[1])
            except (TypeError, ValueError, IndexError):
                raise _corrupt(
                    path, header_start, f"malformed section entry {name!r}"
                ) from None
            if offset < 0 or length < 0 or self._base + offset + length > len(mm):
                raise _corrupt(
                    path,
                    self._base + max(offset, 0),
                    f"section {name!r} overruns the file "
                    f"({length} bytes at {offset})",
                )
            self._sections[name] = (self._base + offset, length)
        self._documents: Optional[List[StoredDocument]] = None
        self._doc_meta: Optional[Tuple[array, array, array]] = None
        self._token_data = None  # (vocab list, decompressed stream, offsets)
        self._json_tokens = None
        self._ext_ids: Optional[List[str]] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._mmap is None

    def close(self) -> None:
        """Release the mapping; idempotent, later block reads raise."""
        mm, self._mmap = self._mmap, None
        if mm is not None:
            mm.close()

    def __enter__(self) -> "BlockFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> mmap.mmap:
        mm = self._mmap
        if mm is None:
            raise StorageError(
                f"block file {self.path} is closed; reopen the index to read it"
            )
        return mm

    def _section(self, name: str, required: bool = True) -> bytes:
        mm = self._require_open()
        entry = self._sections.get(name)
        if entry is None:
            if required:
                raise _corrupt(
                    self.path, self._base, f"missing section {name!r}"
                )
            return b""
        offset, length = entry
        return mm[offset : offset + length]

    def section_size(self, name: str) -> int:
        entry = self._sections.get(name)
        return entry[1] if entry else 0

    # -- documents -----------------------------------------------------

    def external_ids(self) -> List[str]:
        if self._ext_ids is None:
            payload = self._section("ext_ids")
            offset = self._sections["ext_ids"][0]
            try:
                raw = zlib.decompress(payload)
            except zlib.error as exc:
                raise _corrupt(self.path, offset, f"bad ext_ids stream: {exc}")
            if self.header.get("ext_codec") == "json":
                try:
                    ids = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise _corrupt(self.path, offset, f"bad ext_ids json: {exc}")
            else:
                text = raw.decode("utf-8")
                ids = text.split("\n") if text else []
            if len(ids) != self.num_docs:
                raise _corrupt(
                    self.path,
                    offset,
                    f"{len(ids)} external ids for {self.num_docs} documents",
                )
            self._ext_ids = ids
        return self._ext_ids

    def _doc_meta_columns(self) -> Tuple[array, array, array]:
        """Decode (internal ids, lengths, unique-term counts) columns."""
        if self._doc_meta is None:
            meta = self._section("doc_meta")
            offset = self._sections["doc_meta"][0]
            expected = 3 * self.num_docs * 8
            if len(meta) != expected:
                raise _corrupt(
                    self.path,
                    offset,
                    f"doc_meta is {len(meta)} bytes, expected {expected}",
                )
            stride = self.num_docs * 8
            self._doc_meta = (
                _adopt_column(meta[:stride]),
                _adopt_column(meta[stride : 2 * stride]),
                _adopt_column(meta[2 * stride :]),
            )
        return self._doc_meta

    def document(self, doc_index: int) -> StoredDocument:
        """Materialise one document shell (token fields stay lazy)."""
        internal_ids, lengths, unique = self._doc_meta_columns()
        return StoredDocument(
            internal_id=internal_ids[doc_index],
            external_id=self.external_ids()[doc_index],
            field_tokens=_LazyFieldTokens(self, doc_index),
            length=lengths[doc_index],
            unique_terms=unique[doc_index],
        )

    def documents(self) -> List[StoredDocument]:
        """Materialise the document shells (token fields stay lazy)."""
        if self._documents is None:
            internal_ids, lengths, unique = self._doc_meta_columns()
            ext_ids = self.external_ids()
            self._documents = [
                StoredDocument(
                    internal_id=internal_ids[i],
                    external_id=ext_ids[i],
                    field_tokens=_LazyFieldTokens(self, i),
                    length=lengths[i],
                    unique_terms=unique[i],
                )
                for i in range(self.num_docs)
            ]
        return self._documents

    def document_store(self) -> "_LazyDocumentStore":
        """A :class:`DocumentStore` view that materialises per document.

        The cold-open fast path for flat v4 loads: the store starts
        empty, ``lengths()`` bulk-decodes the fixed-width metadata
        column, and ``get`` builds one shell per docid touched (memoised
        on the shared shell list).  Mutation or iteration hydrates every
        shell first, after which the inherited behaviour applies.
        """
        return _LazyDocumentStore(self)

    def _token_state(self):
        if self._token_data is None:
            dict_entry = self._sections.get("token_dict", (self._base, 0))
            try:
                raw_dict = zlib.decompress(self._section("token_dict"))
                stream = zlib.decompress(self._section("token_stream"))
            except zlib.error as exc:
                raise _corrupt(
                    self.path, dict_entry[0], f"bad token stream: {exc}"
                )
            text = raw_dict.decode("utf-8")
            vocab = text.split("\n") if text else []
            offsets = _adopt_column(self._section("token_offsets"))
            if len(offsets) != self.num_docs:
                raise _corrupt(
                    self.path,
                    self._sections["token_offsets"][0],
                    f"{len(offsets)} token offsets for {self.num_docs} documents",
                )
            self._token_data = (vocab, stream, offsets)
        return self._token_data

    def _doc_tokens(self, doc_index: int) -> Dict[str, List[str]]:
        if self.header.get("tokens_codec") == "json":
            if self._json_tokens is None:
                offset = self._sections["token_stream"][0]
                try:
                    raw = zlib.decompress(self._section("token_stream"))
                    self._json_tokens = json.loads(raw.decode("utf-8"))
                except (zlib.error, ValueError, UnicodeDecodeError) as exc:
                    raise _corrupt(
                        self.path, offset, f"bad token payload: {exc}"
                    )
            return {
                name: list(tokens)
                for name, tokens in self._json_tokens[doc_index].items()
            }
        vocab, stream, offsets = self._token_state()
        start = offsets[doc_index - 1] if doc_index > 0 else 0
        end = offsets[doc_index]
        cursor = start
        fields: Dict[str, List[str]] = {}
        try:
            num_fields, cursor = decode_varint(stream, cursor)
            for _ in range(num_fields):
                name_id, cursor = decode_varint(stream, cursor)
                count, cursor = decode_varint(stream, cursor)
                tokens = []
                for _ in range(count):
                    token_id, cursor = decode_varint(stream, cursor)
                    tokens.append(vocab[token_id])
                fields[vocab[name_id]] = tokens
        except (IndexError, IndexError_) as exc:  # bad vocab id / torn varint
            raise _corrupt(
                self.path,
                self._sections["token_stream"][0],
                f"token stream for document {doc_index}: {exc}",
            ) from None
        if cursor != end:
            raise _corrupt(
                self.path,
                self._sections["token_stream"][0],
                f"token stream for document {doc_index} decodes to byte "
                f"{cursor}, expected {end}",
            )
        return fields

    # -- posting lists -------------------------------------------------

    def _space_records(self, section: str) -> Dict[str, tuple]:
        payload = self._section(section)
        offset = self._sections[section][0]
        if len(payload) % _TERM_RECORD.size:
            raise _corrupt(
                self.path,
                offset,
                f"{section} is {len(payload)} bytes, not a multiple of "
                f"{_TERM_RECORD.size}",
            )
        terms_text = self._section("terms_text")
        records = {}
        for values in _TERM_RECORD.iter_unpack(payload):
            term_off, term_len, _reserved, count, max_tf, meta_off, data_off = values
            if term_off + term_len > len(terms_text):
                raise _corrupt(
                    self.path,
                    offset,
                    f"term record points past terms_text "
                    f"({term_off}+{term_len})",
                )
            try:
                term = terms_text[term_off : term_off + term_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _corrupt(
                    self.path,
                    self._sections["terms_text"][0] + term_off,
                    f"term text is not UTF-8: {exc}",
                ) from None
            records[term] = (count, max_tf, meta_off, data_off)
        return records

    def posting_map(self, space: str = "content") -> "_LazyPostingMap":
        """The term -> lazy posting list mapping for one space.

        Only the fixed-width term dictionary is parsed here; each
        term's skip metadata and :class:`LazyPostingList` shell build
        on first access through the returned mapping, so opening a
        file costs O(dictionary bytes), not O(vocabulary) objects.
        """
        section = "content_index" if space == "content" else "predicate_index"
        return _LazyPostingMap(self, self._space_records(section))

    def _build_posting_list(self, term: str, record: tuple) -> LazyPostingList:
        """Materialise one term's skip metadata and lazy list shell."""
        count, max_tf, meta_off, data_off = record
        mm = self._require_open()
        entry = self._sections.get("block_meta")
        if entry is None:
            raise _corrupt(self.path, self._base, "missing section 'block_meta'")
        meta_base, meta_len = entry
        seg = self.segment_size
        num_blocks = (count + seg - 1) // seg
        need = 4 * num_blocks * 8
        if meta_off + need > meta_len:
            raise _corrupt(
                self.path,
                meta_base + meta_off,
                f"block metadata for term {term!r} overruns its section",
            )
        stride = num_blocks * 8
        cursor = meta_base + meta_off
        seg_mins = _adopt_column(mm[cursor : cursor + stride])
        cursor += stride
        seg_maxes = _adopt_column(mm[cursor : cursor + stride])
        cursor += stride
        seg_max_tfs = _adopt_column(mm[cursor : cursor + stride])
        cursor += stride
        block_ends = _adopt_column(mm[cursor : cursor + stride])
        return LazyPostingList(
            term,
            count,
            seg,
            max_tf,
            seg_mins,
            seg_maxes,
            seg_max_tfs,
            self._make_loader(term, count, data_off, block_ends, seg_maxes),
        )

    def _make_loader(self, term, count, data_off, block_ends, seg_maxes):
        def load(block: int):
            mm = self._require_open()
            entry = self._sections.get("blocks")
            if entry is None:
                raise _corrupt(self.path, self._base, "missing section 'blocks'")
            blocks_base, blocks_len = entry
            start = block_ends[block - 1] if block > 0 else 0
            end = block_ends[block]
            if not 0 <= start <= end or data_off + end > blocks_len:
                raise _corrupt(
                    self.path,
                    blocks_base + data_off,
                    f"block {block} of term {term!r} has invalid frame "
                    f"bounds [{start}, {end})",
                )
            frame = mm[
                blocks_base + data_off + start : blocks_base + data_off + end
            ]
            block_count = min(self.segment_size, count - block * self.segment_size)
            prev = seg_maxes[block - 1] if block > 0 else -1
            try:
                columns = decode_block(frame, block_count, prev)
            except StorageError as exc:
                raise _corrupt(
                    self.path,
                    blocks_base + data_off + start,
                    f"block {block} of term {term!r}: {exc}",
                ) from None
            ids = columns[0]
            if len(ids) != block_count or (
                len(ids) and ids[-1] != seg_maxes[block]
            ):
                raise _corrupt(
                    self.path,
                    blocks_base + data_off + start,
                    f"block {block} of term {term!r} decodes inconsistently "
                    f"with its skip metadata",
                )
            return columns

        return load

    def global_ids(self) -> Optional[array]:
        if "global_ids" not in self._sections:
            return None
        payload = self._section("global_ids")
        if len(payload) != self.num_docs * 8:
            raise _corrupt(
                self.path,
                self._sections["global_ids"][0],
                f"global_ids is {len(payload)} bytes for {self.num_docs} documents",
            )
        return _adopt_column(payload)
