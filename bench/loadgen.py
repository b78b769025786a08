"""Closed-loop JSON-lines load generator on a raw socket.

The benchmark's own client, so its cost per request stays the same from
commit to commit: request lines are encoded before the clock starts,
replies are kept as raw bytes and decoded after it stops.  The next
request is sent only when the previous reply has arrived (callers wait
for replies, and an open loop on a two-core shared box would measure the
scheduler rather than the system).
"""

from __future__ import annotations

import json
import socket
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

Address = Tuple[str, int]

REPLY_TIMEOUT_S = 30.0


class Connection:
    """One blocking JSON-lines connection."""

    def __init__(self, address: Address, timeout: float = REPLY_TIMEOUT_S):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def roundtrip(self, line: bytes) -> bytes:
        """Send one request line, block for one reply line (``b""`` when
        the peer closed the connection)."""
        self._sock.sendall(line)
        return self._reader.readline()

    def request(self, payload: dict) -> dict:
        reply = self.roundtrip(encode_line(payload))
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def encode_line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


class PassResult(NamedTuple):
    """One pass over a request list, aligned with it by position."""

    latencies_ms: List[float]
    replies: List[Optional[bytes]]  # None: never answered
    wall_s: float


def run_pass(address: Address, lines: Sequence[bytes]) -> PassResult:
    """Send every line once over one connection, each after the reply to
    the one before.

    A request that is never answered (the connection died or timed out)
    is charged the reply timeout, in its latency and in the wall time: a
    server that crashes must read as slower, never as faster.

    One connection, not two: two closed-loop clients against a 2 ms
    coalescing timer saturate both cores and settle into one of two
    regimes for a whole run -- the same code and seed measured 4.26 ms
    and then 5.26 ms median latency, each steady across its passes -- and
    no bound could tell that from a change.
    """
    latencies: List[float] = []
    replies: List[Optional[bytes]] = []
    pass_started = time.perf_counter()
    try:
        with Connection(address) as connection:
            for line in lines:
                started = time.perf_counter()
                reply = connection.roundtrip(line)
                if not reply:
                    break  # closed by the peer; the rest stay unanswered
                latencies.append((time.perf_counter() - started) * 1000.0)
                replies.append(reply)
    except OSError:
        pass
    wall_s = time.perf_counter() - pass_started
    unanswered = len(lines) - len(replies)
    return PassResult(
        latencies + [REPLY_TIMEOUT_S * 1000.0] * unanswered,
        replies + [None] * unanswered,
        wall_s + REPLY_TIMEOUT_S * unanswered,
    )


def wait_healthy(address: Address, deadline_s: float) -> dict:
    """Poll ``healthz`` until it answers ``ok`` or the deadline passes."""
    deadline = time.monotonic() + deadline_s
    last_error: Optional[str] = None
    while time.monotonic() < deadline:
        try:
            with Connection(address, timeout=5.0) as connection:
                health = connection.request({"op": "healthz"})
            if health.get("status") == "ok":
                return health
            last_error = f"healthz answered {health!r}"
        except (OSError, ValueError) as exc:
            last_error = str(exc)
        time.sleep(0.05)
    raise RuntimeError(
        f"{address[0]}:{address[1]} not healthy after {deadline_s:.0f}s "
        f"({last_error})"
    )
