"""Wire protocol for the query service: JSON lines over a TCP stream.

One request per line, one JSON object per response line.  The protocol
is deliberately thin — stdlib ``json`` + ``asyncio`` streams, no HTTP
dependency — but carries everything a serving deployment needs: query
text, per-request deadline, evaluation mode, and the full
:class:`~repro.core.report.ExecutionReport` (as the dict form of its
``to_dict``) back to the caller.

Request shapes::

    {"op": "query", "query": "pancreas leukemia | DigestiveSystem",
     "top_k": 10, "mode": "context", "path": "auto",
     "timeout_ms": 250, "id": 7}
    {"op": "healthz"}
    {"op": "metrics"}

Response statuses: ``ok`` (ranked hits + report), ``error`` (the query
failed: empty context, bad syntax, …), ``shed`` (admission control
rejected the request — the 429 analogue), ``timeout`` (the deadline
expired before a result was produced).  Responses echo the request's
``id`` so clients may pipeline multiple requests per connection and
match responses out of order.

:class:`ServiceClient` is the blocking reference client used by the
tests, the load generator, and ``python -m repro bench-serve``.

The cluster-internal shard ops (router ⇄ shard worker) ride the same
lines; their frame layouts, both directions, are the shard-op codec at
the end of this module.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..core.logical import MODE_CONTEXT, MODE_CONVENTIONAL, MODE_DISJUNCTIVE
from ..core.report import _counter_to_dict
from ..core.statistics import CollectionStatistics
from ..errors import ReproError
from ..index.postings import CostCounter

__all__ = [
    "CLUSTER_OPS",
    "MAX_CLUSTER_LINE_BYTES",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "ServiceClient",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "VALID_MODES",
    "VALID_PATHS",
    "decode_request",
    "encode_response",
]

# A request line longer than this is malformed by definition; the server
# also passes it as the asyncio stream limit so one abusive client
# cannot balloon the reader buffer.
MAX_LINE_BYTES = 1 << 20

# Shard workers accept bigger frames: a router batch ships merged
# statistic values and candidate id lists for every query in the batch
# on one line.  Only the cluster-internal listener raises its limit;
# client-facing servers keep MAX_LINE_BYTES.
MAX_CLUSTER_LINE_BYTES = 1 << 26

OP_QUERY = "query"
OP_HEALTHZ = "healthz"
OP_METRICS = "metrics"

# Cluster-internal ops, spoken between the router and shard workers
# (service/cluster/).  decode_request only routes them; the four shard
# ops' payloads are laid out by the codec at the end of this module.  A
# plain single-engine server politely rejects them (see QueryService).
OP_SHARD_RESOLVE = "shard_resolve"
OP_SHARD_SCORE = "shard_score"
OP_SHARD_TOPK = "shard_topk"
OP_SHARD_CONVENTIONAL = "shard_conventional"
OP_SEGMENT_MANIFEST = "segment_manifest"
OP_FETCH_SEGMENT = "fetch_segment"
OP_INSTALL_CATALOG = "install_catalog"
CLUSTER_OPS = (
    OP_SHARD_RESOLVE,
    OP_SHARD_SCORE,
    OP_SHARD_TOPK,
    OP_SHARD_CONVENTIONAL,
    OP_SEGMENT_MANIFEST,
    OP_FETCH_SEGMENT,
    OP_INSTALL_CATALOG,
)

VALID_OPS = (OP_QUERY, OP_HEALTHZ, OP_METRICS) + CLUSTER_OPS

VALID_MODES = ("context", "conventional", "disjunctive")
VALID_PATHS = ("auto", "views", "straightforward")

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_SHED = "shed"
STATUS_TIMEOUT = "timeout"


class ProtocolError(ReproError):
    """Raised for malformed request lines (bad JSON, unknown fields) and
    for shard-op replies that do not fit their layout."""


@dataclass
class Request:
    """One decoded request line."""

    op: str
    query: Optional[str] = None
    top_k: Optional[int] = None
    mode: str = "context"
    path: str = "auto"
    timeout_ms: Optional[float] = None
    id: Any = None
    # Raw request object for cluster ops, whose payloads are op-specific
    # (task lists, segment names); read by the shard worker.
    payload: Optional[dict] = None


def decode_request(line: bytes, limit: int = MAX_LINE_BYTES) -> Request:
    """Parse and validate one request line."""
    if len(line) > limit:
        raise ProtocolError(f"request line exceeds {limit} bytes")
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")

    op = payload.get("op", OP_QUERY)
    if op not in VALID_OPS:
        raise ProtocolError(f"unknown op {op!r} (have {', '.join(VALID_OPS)})")
    request = Request(op=op, id=payload.get("id"))
    if op in CLUSTER_OPS:
        request.payload = payload
        return request
    if op != OP_QUERY:
        return request

    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ProtocolError("op 'query' requires a non-empty 'query' string")
    request.query = query

    top_k = payload.get("top_k")
    if top_k is not None and (not isinstance(top_k, int) or top_k < 1):
        raise ProtocolError(f"top_k must be a positive integer, got {top_k!r}")
    request.top_k = top_k

    mode = payload.get("mode", "context")
    if mode not in VALID_MODES:
        raise ProtocolError(
            f"unknown mode {mode!r} (have {', '.join(VALID_MODES)})"
        )
    request.mode = mode

    path = payload.get("path", "auto")
    if path not in VALID_PATHS:
        raise ProtocolError(
            f"unknown path {path!r} (have {', '.join(VALID_PATHS)})"
        )
    request.path = path

    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None and (
        not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0
    ):
        raise ProtocolError(
            f"timeout_ms must be a positive number, got {timeout_ms!r}"
        )
    request.timeout_ms = timeout_ms
    return request


def encode_response(payload: dict) -> bytes:
    """Serialise one response object to its wire line."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


class ServiceClient:
    """Blocking JSON-lines client (tests, load generator, CLI).

    One request in flight at a time per client; open several clients for
    concurrency (that is exactly what the load generator does).
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        """Send one request object; block for its response."""
        self._sock.sendall(
            json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        )
        line = self._reader.readline()
        if not line:
            raise ProtocolError("server closed the connection")
        return json.loads(line)

    def query(
        self,
        query: str,
        top_k: Optional[int] = None,
        mode: str = "context",
        path: str = "auto",
        timeout_ms: Optional[float] = None,
        id: Any = None,
    ) -> dict:
        payload: dict = {"op": OP_QUERY, "query": query, "mode": mode, "path": path}
        if top_k is not None:
            payload["top_k"] = top_k
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        if id is not None:
            payload["id"] = id
        return self.request(payload)

    def healthz(self) -> dict:
        return self.request({"op": OP_HEALTHZ})

    def metrics(self) -> dict:
        return self.request({"op": OP_METRICS})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- shard-op codec -----------------------------------------------------------
#
# The layout of every shard-op frame, both directions; the router and the
# worker build and read frames only through the functions below.  A
# request holds one task per query, a reply one entry per task (plus the
# worker's ``shard`` id); each is the JSON form of a tuple ShardRuntime
# takes or returns in process, ``(qid, *fields)``.  Statistic ``values``
# travel in the order of the item's ``required_collection_specs``.
# Reply decoding is the router's one check of a worker reply: a frame
# from the wrong shard, an unanswered qid, or a missing or mistyped
# field raises ProtocolError.

# Per shard op, the fields of a request task after ``qid``.
_TASKS = {
    OP_SHARD_RESOLVE: ("query", "mode", "force"),
    OP_SHARD_SCORE: ("keywords", "result_ids", "values", "top_k"),
    OP_SHARD_TOPK: (
        "keywords", "predicates", "values", "k", "term_bounds", "block_max",
    ),
    OP_SHARD_CONVENTIONAL: ("keywords", "predicates", "stats", "top_k"),
}

# Per (shard op, mode), the fields of a reply entry after ``qid``.  A
# phase-1 entry is the worker's analysed terms, then the shard's slice:
# the ``resolve_stateless`` tuple (context), the ``stats_many`` tuple plus
# per-term max tf (disjunctive), or its whole-collection statistics.
_ENTRIES = {
    (OP_SHARD_RESOLVE, MODE_CONTEXT): (
        "keywords", "predicates", "values", "num_results", "path",
        "predicted", "counter", "result_ids",
    ),
    (OP_SHARD_RESOLVE, MODE_DISJUNCTIVE): (
        "keywords", "predicates", "values", "path", "predicted", "counter",
        "max_tf",
    ),
    (OP_SHARD_RESOLVE, MODE_CONVENTIONAL): ("keywords", "predicates", "collection"),
    (OP_SHARD_SCORE, None): ("hits",),
    (OP_SHARD_TOPK, None): ("hits", "counter", "topk"),
    (OP_SHARD_CONVENTIONAL, None): ("hits", "num_results", "predicted", "counter"),
}


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _counts(value) -> Dict[str, int]:
    return {str(key): int(count) for key, count in value.items()}


def _collection_part(value) -> dict:
    """Whole-collection statistics as exact integer counts (what
    ``ShardMergePlan.merge_collection_stats`` sums)."""
    return {
        "num_docs": int(value["num_docs"]),
        "total_length": int(value["total_length"]),
        "df": _counts(value["df"]),
        "tc": _counts(value.get("tc", {})),
    }


def _statistics(value) -> CollectionStatistics:
    part = _collection_part(value)
    return CollectionStatistics(
        part["num_docs"], part["total_length"], part["df"], part["tc"]
    )


# Every field's conversion from its JSON value (``values`` aside).
_FROM_WIRE = {
    "query": str,
    "mode": str,
    "force": lambda path: None if path == "auto" else str(path),
    "keywords": lambda terms: tuple(str(term) for term in _list(terms)),
    "predicates": lambda terms: tuple(str(term) for term in _list(terms)),
    "result_ids": lambda ids: [int(i) for i in _list(ids)],
    "top_k": lambda k: None if k is None else int(k),
    "k": int,
    "term_bounds": lambda bounds: {str(t): float(b) for t, b in bounds.items()},
    "block_max": bool,
    "stats": _statistics,
    "hits": lambda hits: [(float(s), int(g), str(e)) for s, g, e in _list(hits)],
    "num_results": int,
    "path": str,
    "predicted": int,
    "counter": lambda c: CostCounter(**{str(k): int(v) for k, v in c.items()}),
    "topk": _counts,
    "max_tf": _counts,
    "collection": _collection_part,
}

# The fields whose in-process value is not already JSON.
_TO_WIRE = {
    "counter": _counter_to_dict,
    "stats": lambda stats: {
        "num_docs": stats.cardinality,
        "total_length": stats.total_length,
        "df": stats.df,
        "tc": stats.tc,
    },
}


def _to_wire(fields: Sequence[str], row: tuple, ranking) -> dict:
    item = {"qid": row[0]}
    for name, value in zip(fields, row[1:]):
        if name == "values":
            specs = ranking.required_collection_specs(item["keywords"])
            value = [value[spec] for spec in specs]
        elif name in _TO_WIRE:
            value = _TO_WIRE[name](value)
        item[name] = value
    return item


def _from_wire(fields: Sequence[str], item: dict, ranking) -> tuple:
    row = [int(item["qid"])]
    for name in fields:
        if name != "values":
            row.append(_FROM_WIRE[name](item[name]))
            continue
        specs = ranking.required_collection_specs(row[1])
        packed = _list(item[name])
        if len(packed) != len(specs) or not all(
            isinstance(value, (int, float)) for value in packed
        ):
            raise ValueError(
                f"{len(packed)} statistic values for {len(specs)} numeric "
                "specs (router/worker ranking mismatch?)"
            )
        row.append(dict(zip(specs, packed)))
    return tuple(row)


def encode_shard_request(op: str, tasks: Sequence[tuple], ranking=None) -> dict:
    """A shard-op request: one task per ``(qid, *fields)`` tuple."""
    return {"op": op, "tasks": [_to_wire(_TASKS[op], t, ranking) for t in tasks]}


def decode_shard_tasks(op: str, payload: dict, ranking=None) -> List[tuple]:
    """A request's ``(qid, *fields)`` tasks (``force`` None for auto)."""
    return [_from_wire(_TASKS[op], task, ranking) for task in payload["tasks"]]


def encode_shard_entry(
    op: str, row: tuple, ranking=None, mode: Optional[str] = None
) -> dict:
    """One reply entry from its ``(qid, *fields)`` runtime tuple."""
    return _to_wire(_ENTRIES[op, mode], row, ranking)


def encode_shard_error(qid: int, exc: ReproError) -> dict:
    """A phase-1 task that failed on this shard: a per-query error."""
    return {"qid": qid, "error": f"{type(exc).__name__}: {exc}"}


def encode_shard_reply(entries: Iterable[dict]) -> dict:
    return {"results": list(entries)}


def decode_shard_reply(
    op: str, frame: dict, shard_id: int, qids: Sequence[int], ranking=None, mode=None
) -> Dict[int, Union[tuple, str]]:
    """``{qid: fields}`` for every sent qid, ``fields`` the entry's tuple
    after its qid; a failed phase-1 task decodes to its worker's
    ``"{type}: {message}"`` string.  Raises :class:`ProtocolError` unless
    the frame comes from shard ``shard_id`` and fits the op's layout."""
    if frame.get("shard") != shard_id:
        raise ProtocolError(
            f"frame is from shard {frame.get('shard')!r}, "
            f"not from shard group {shard_id}"
        )
    results = frame.get("results")
    if not isinstance(results, list):
        raise ProtocolError("frame has no results list")
    entries = {item.get("qid"): item for item in results if isinstance(item, dict)}
    fields = _ENTRIES[op, mode]
    decoded: Dict[int, Union[tuple, str]] = {}
    for qid in qids:
        item = entries.get(qid)
        if item is None:
            raise ProtocolError(f"reply omits query {qid}")
        try:
            if op == OP_SHARD_RESOLVE and "error" in item:
                decoded[qid] = str(item["error"])
            else:
                decoded[qid] = _from_wire(fields, item, ranking)[1:]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError(
                f"malformed {op} entry for query {qid}: {exc!r}"
            ) from None
    return decoded
