"""The unified engine contract and the system's one coherence primitive.

Four engine shapes answer queries in this repo — the flat
:class:`~repro.core.engine.ContextSearchEngine`, the in-process
:class:`~repro.core.sharded_engine.ShardedEngine`, the
:class:`~repro.lifecycle.engine.LifecycleEngine` over a mutable
segmented index, and the cluster router over wire-separated shard
workers.  Before this module each of them grew its own ad-hoc notion of
"what changed": a data epoch here, a catalog generation there, a
snapshot version, replica health.  Every cache in the stack (statistics
memoisation, the serving result cache, the planner's coverage cache)
guarded on a different subset, and every new engine shape had to
re-invent the bump-and-check choreography.

This module collapses all of that into three small pieces:

:class:`VersionClock`
    The one thread-safe monotonic counter.  Every version-shaped number
    in the system — index epochs, catalog generations, placement
    generations — is an instance of this class; **no other module may
    mutate a version field directly** (``tools/check_version_discipline
    .py`` enforces this in CI).

:class:`VersionVector`
    The immutable, hashable coherence token ``(data epoch, catalog
    generation, placement generation)``.  It is the *only* cache key and
    invalidation source: the serving result cache and the router's
    cache both stamp entries with the vector and drop
    them when any component moves.  ``epoch`` is opaque (an int for one
    index, a tuple of per-shard epochs for a cluster) — caches only ever
    compare vectors for equality, never interpret components.

:class:`VersionAuthority`
    The single bump-and-read point an engine embeds: it owns the catalog
    and placement clocks and reads the data epoch from the engine's
    index, so :meth:`VersionAuthority.vector` is always coherent with
    the state a query would observe.

:class:`SearchBackend` is the structural protocol the four shapes
conform to (``version``, ``install_catalog``, ``close``, and the query
entry points).  Anything satisfying it — a future dense retriever, a
remote tier — plugs into the serving layer, the adaptive-selection
controller, and the conformance suite unchanged.

The load-bearing invariant, inherited from the paper's exactness
theorem and preserved by every coherence event: **a version bump never
changes rankings**.  Views are exact, so installing a catalog (or
re-placing replicas) only redirects *how* statistics are resolved; the
vector exists so caches never serve a result computed under state a
client could distinguish, not because any state is approximate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, runtime_checkable

__all__ = [
    "SearchBackend",
    "VersionAuthority",
    "VersionClock",
    "VersionVector",
]


class VersionClock:
    """A thread-safe monotonic version counter.

    One instance per mutable resource: a segmented index's epoch, a
    catalog handle's generation, a router's placement generation.  The
    counter only moves forward; ``advance_to`` lets a derived resource
    (a re-sharded snapshot, a shipped catalog) adopt its source's
    version so one logical clock spans both.

    This is the **only** place version numbers are mutated — every
    other module reads through a property or calls these methods.
    """

    __slots__ = ("_lock", "_version")

    def __init__(self, start: int = 0):
        self._lock = threading.Lock()
        self._version = int(start)

    @property
    def version(self) -> int:
        return self._version

    def advance(self) -> int:
        """Bump by one; returns the new version."""
        with self._lock:
            self._version += 1
            return self._version

    def advance_to(self, version: int) -> int:
        """Move forward to ``version`` (never backwards); returns the
        current version afterwards."""
        version = int(version)
        with self._lock:
            if version > self._version:
                self._version = version
            return self._version

    def __repr__(self) -> str:
        return f"VersionClock(version={self._version})"


@dataclass(frozen=True)
class VersionVector:
    """The immutable coherence token every cache keys on.

    ``epoch`` is the data component and is deliberately opaque: a flat
    engine reports its index's mutation counter, a lifecycle engine its
    version clock, the router a tuple of per-shard worker epochs.
    ``catalog_generation`` counts catalog hot-swaps;
    ``placement_generation`` counts replica-placement changes (always 0
    for single-node shapes).  Caches compare whole vectors with ``!=``
    — any component moving invalidates — and never interpret them.
    """

    epoch: Any = 0
    catalog_generation: int = 0
    placement_generation: int = 0

    def to_dict(self) -> dict:
        """The wire/report form (healthz, metrics, install acks)."""
        epoch = self.epoch
        if isinstance(epoch, tuple):
            epoch = list(epoch)
        return {
            "epoch": epoch,
            "catalog_generation": self.catalog_generation,
            "placement_generation": self.placement_generation,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VersionVector":
        epoch = payload.get("epoch", 0)
        if isinstance(epoch, list):
            epoch = tuple(epoch)
        return cls(
            epoch=epoch,
            catalog_generation=int(payload.get("catalog_generation", 0)),
            placement_generation=int(payload.get("placement_generation", 0)),
        )

    def as_tuple(self) -> tuple:
        return (self.epoch, self.catalog_generation, self.placement_generation)

    def __repr__(self) -> str:
        return (
            f"VersionVector(epoch={self.epoch!r}, "
            f"catalog={self.catalog_generation}, "
            f"placement={self.placement_generation})"
        )


class VersionAuthority:
    """An engine's single bump-and-read point for its version vector.

    The data epoch is *read* from the engine's index (``epoch_source``)
    — indexes already own their mutation counter — while the catalog
    and placement generations are *owned* here.  Engines expose
    ``version`` by delegating to :meth:`vector` and route every swap
    through :meth:`bump_catalog` / :meth:`advance_catalog_to`, which is
    what lets the discipline lint forbid ad-hoc counter mutation
    everywhere else.
    """

    def __init__(
        self,
        epoch_source: Optional[Callable[[], Any]] = None,
        catalog_generation: int = 0,
        placement_generation: int = 0,
    ):
        self._epoch_source = epoch_source
        self._catalog_clock = VersionClock(catalog_generation)
        self._placement_clock = VersionClock(placement_generation)

    @property
    def epoch(self) -> Any:
        return self._epoch_source() if self._epoch_source is not None else 0

    @property
    def catalog_generation(self) -> int:
        return self._catalog_clock.version

    @property
    def placement_generation(self) -> int:
        return self._placement_clock.version

    def vector(self) -> VersionVector:
        return VersionVector(
            epoch=self.epoch,
            catalog_generation=self._catalog_clock.version,
            placement_generation=self._placement_clock.version,
        )

    def bump_catalog(self, generation: Optional[int] = None) -> int:
        """One catalog swap happened; returns the new generation.

        ``generation`` (optional) adopts an externally assigned
        generation — the cluster ships the router's generation with the
        catalog so every worker reports the same number — but never
        moves the clock backwards.
        """
        if generation is not None:
            return self._catalog_clock.advance_to(generation)
        return self._catalog_clock.advance()

    def bump_placement(self, generation: Optional[int] = None) -> int:
        """One placement change happened; returns the new generation."""
        if generation is not None:
            return self._placement_clock.advance_to(generation)
        return self._placement_clock.advance()


@runtime_checkable
class SearchBackend(Protocol):
    """The structural contract all four engine shapes satisfy.

    Conformance (asserted for every shape by ``tests/test_backend.py``):

    * ``version`` is a :class:`VersionVector` and is hashable;
    * ``install_catalog(catalog, info=None)`` atomically installs a
      fully built catalog, bumps exactly the vector's catalog
      component, records ``info`` as provenance, and returns the new
      generation — with rankings bit-identical before, during, and
      after the swap;
    * ``close()`` releases resources idempotently.

    What the in-process shapes (flat, sharded, lifecycle) share beyond
    that is the surface the serving tier and the CLI call without
    probing: ``search_many(queries, top_k, mode, path, max_workers)`` is
    the one batch entry point, ``kind`` names the shape (``"flat"``,
    ``"sharded"`` or ``"lifecycle"``) and ``version`` is the coherence
    token.  The router answers over the wire (the ``query`` op), not
    through a local ``search_many``, so the protocol holds only what all
    four share.
    """

    @property
    def version(self) -> VersionVector:
        """The backend's current coherence token."""
        ...

    def install_catalog(self, catalog, info: Optional[dict] = None) -> int:
        """Install a catalog; bump and return the catalog generation."""
        ...

    def close(self) -> None:
        """Release resources (idempotent)."""
        ...
