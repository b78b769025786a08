"""Dynamic micro-batching: batch while busy, never while idle.

The paper's economics make batching pay twice: context statistics are
expensive to compute and cheap to reuse (Theorems 4.1/4.2), and the
:class:`~repro.core.engine.BatchExecutor` already materialises each
distinct context exactly once per batch.  The coalescer turns
*concurrent serving traffic* into such batches: requests that share an
execution signature (mode, ``top_k``, forced path) are collected and
dispatched as one batch, so concurrent queries over the same context
share one materialisation instead of repeating it per request.  A lone
request has nothing to share, so it should not wait for company.

Flush policy, per batch key, decided when a bucket opens:

* **idle** — no batch for the key is in flight *and* the key's previous
  flush held exactly one request (an unseen key counts as one): the
  bucket flushes at the end of the current event-loop tick
  (``call_soon``).  Submissions made in the same tick —
  ``asyncio.gather``, pipelined frames read in one socket read — still
  share the batch.
* **size** — the bucket reaches ``max_batch`` and flushes immediately.
* **timer** — otherwise, ``max_wait_ms`` after the bucket's first
  request it flushes whatever it holds.  A busy key, or a cohort that
  filled its last batch, keeps batching, and no request ever waits
  longer than ``max_wait_ms``.

The runner is a coroutine function ``(key, items) -> results`` (one
result per item, in order): the query service runs the engine on its
worker pool from it, the router scatters to its shard workers.
"""

from __future__ import annotations

import asyncio
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = ["Coalescer"]


class _Bucket:
    __slots__ = ("entries", "handle")

    def __init__(self, handle: asyncio.Handle) -> None:
        self.entries: List[Tuple[Any, asyncio.Future]] = []
        self.handle = handle


class Coalescer:
    """Collects submissions per batch key; flushes when idle, full or late.

    ``runner`` is a coroutine function ``(key, items) -> results``;
    ``observe_batch`` (optional) receives ``(size, reason)`` per flush
    for metrics, ``reason`` being ``"idle"``, ``"size"`` or ``"timer"``.
    """

    def __init__(
        self,
        runner: Callable[[Any, Sequence[Any]], Awaitable[Sequence[Any]]],
        max_batch: int = 16,
        max_wait_ms: float = 2.0,
        observe_batch: Optional[Callable[[int, str], None]] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._runner = runner
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self._observe_batch = observe_batch
        self._buckets: Dict[Any, _Bucket] = {}
        # Per key: batches dispatched and not yet answered (absent: none),
        # and whether the last flush held more than one request (absent:
        # one, as for an unseen key).
        self._in_flight: Dict[Any, int] = {}
        self._last_shared: set = set()
        self._tasks: set = set()

    @property
    def pending(self) -> int:
        """Requests currently waiting in unflushed buckets."""
        return sum(len(b.entries) for b in self._buckets.values())

    def submit(self, key: Any, item: Any) -> asyncio.Future:
        """Enqueue ``item`` under ``key``; the future resolves with its result.

        Cancelling the future (deadline enforcement) is safe at any
        point: the batch keeps running, and the dispatcher simply
        discards results whose future is already done.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        bucket = self._buckets.get(key)
        if bucket is None:
            if key not in self._in_flight and key not in self._last_shared:
                handle = loop.call_soon(self._flush, key, "idle")
            else:
                handle = loop.call_later(
                    self.max_wait, self._flush, key, "timer"
                )
            bucket = self._buckets[key] = _Bucket(handle)
        bucket.entries.append((item, future))
        if len(bucket.entries) >= self.max_batch:
            self._flush(key, "size")
        return future

    async def drain(self) -> None:
        """Flush every bucket and wait for all in-flight batches."""
        for key in list(self._buckets):
            self._flush(key, "idle")  # nothing more will join them
        while self._tasks:
            tasks = list(self._tasks)
            await asyncio.gather(*tasks, return_exceptions=True)
            self._tasks.difference_update(tasks)

    # -- internals ------------------------------------------------------

    def _flush(self, key: Any, reason: str) -> None:
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        bucket.handle.cancel()
        size = len(bucket.entries)
        if size > 1:
            self._last_shared.add(key)
        else:
            self._last_shared.discard(key)
        self._in_flight[key] = self._in_flight.get(key, 0) + 1
        if self._observe_batch is not None:
            self._observe_batch(size, reason)
        task = asyncio.ensure_future(self._dispatch(key, bucket.entries))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _dispatch(
        self, key: Any, entries: List[Tuple[Any, asyncio.Future]]
    ) -> None:
        items = [item for item, _ in entries]
        try:
            results = await self._runner(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for _, future in entries:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            self._in_flight[key] -= 1
            if not self._in_flight[key]:
                del self._in_flight[key]
        for (_, future), result in zip(entries, results):
            if not future.done():
                future.set_result(result)
