"""The adaptive-selection control loop: record → decide → reselect → swap.

:class:`AdaptiveSelectionController` closes the loop between the serving
layer's :class:`~repro.service.workload.WorkloadRecorder` and the
:class:`~repro.selection.adaptive.IncrementalReselector`, keeping every
expensive step **off the query path**:

* queries record their context into the bounded recorder (one dict
  update under a lock — the only query-path cost);
* a background maintenance thread wakes every ``interval_seconds`` (or
  immediately after a lifecycle flush/compaction, via the engine's
  maintenance hooks) and evaluates the reselection triggers;
* when triggered, it re-runs workload-driven selection over the current
  collection and installs the new catalog through the one
  :class:`~repro.core.backend.SearchBackend` entry point —
  ``install_catalog`` — which every shape implements: the flat engine
  swaps its handle, the sharded engine re-materialises per shard, the
  lifecycle engine swaps at a snapshot boundary, and the cluster router
  ships the catalog definitions to every shard worker over the wire.

Triggers, checked in order:

``coverage``
    enough new traffic since the last pass (``min_queries``) *and* the
    current catalog covers less than ``coverage_threshold`` of the
    recorded workload's frequency — the drift signal;
``growth``
    the collection grew more than ``growth_threshold`` since the last
    pass (the :func:`~repro.views.maintenance.needs_reselection`
    heuristic) — view definitions may have gone stale-shaped even if
    the workload has not moved.

The fork shard executor is rejected at construction: its worker
processes hold copy-on-write runtimes captured at fork time, so a
parent-side swap would silently never reach them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

from ..errors import QueryError, ReproError
from ..selection.adaptive import IncrementalReselector, ReselectionReport
from ..selection.workload_driven import evaluate_coverage
from ..views.maintenance import MaintenanceReport, needs_reselection
from .workload import WorkloadRecorder

__all__ = ["AdaptiveConfig", "AdaptiveSelectionController"]


@dataclass
class AdaptiveConfig:
    """Tunables for one adaptive-selection deployment."""

    interval_seconds: float = 30.0
    min_queries: int = 32
    coverage_threshold: float = 0.8
    growth_threshold: float = 0.2
    decay: float = 0.9

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise QueryError(
                f"interval_seconds must be > 0, got {self.interval_seconds}"
            )
        if self.min_queries < 1:
            raise QueryError(
                f"min_queries must be >= 1, got {self.min_queries}"
            )
        if not (0.0 < self.coverage_threshold <= 1.0):
            raise QueryError(
                "coverage_threshold must be in (0, 1], got "
                f"{self.coverage_threshold}"
            )
        if not (0.0 < self.decay <= 1.0):
            raise QueryError(f"decay must be in (0, 1], got {self.decay}")


class AdaptiveSelectionController:
    """Owns the background reselection thread for one engine."""

    def __init__(
        self,
        engine,
        reselector: IncrementalReselector,
        recorder: Optional[WorkloadRecorder] = None,
        config: Optional[AdaptiveConfig] = None,
        metrics=None,
        reference_index=None,
    ):
        self.engine = engine
        self.reselector = reselector
        self.recorder = recorder if recorder is not None else WorkloadRecorder()
        self.config = config if config is not None else AdaptiveConfig()
        self.metrics = metrics
        # A sharded engine plans over per-shard sub-indexes; selection
        # needs the whole collection, which only the pre-shard reference
        # index has.
        self.reference_index = reference_index
        self._validate_engine()

        self._run_lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.reselections = 0
        self.last_report: Optional[ReselectionReport] = None
        self.last_error: Optional[str] = None
        self._baseline_num_docs = self._num_docs()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Start the maintenance thread and hook lifecycle events."""
        if self._thread is not None:
            return
        hook = getattr(self.engine, "add_maintenance_hook", None)
        if callable(hook):
            hook(self.maintenance_hook)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-adaptive", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def maintenance_hook(self, event: str) -> None:
        """Lifecycle flush/compaction callback: wake the thread to
        re-check triggers (cheap — never reselects inline)."""
        self._wake.set()

    # -- the control loop ------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.config.interval_seconds)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self.run_once()
            except ReproError as exc:
                # Selection failures must never take serving down; the
                # stale catalog keeps answering (exactly) until the next
                # attempt.
                self.last_error = f"{type(exc).__name__}: {exc}"

    def should_reselect(self) -> Optional[str]:
        """The trigger that currently applies, or ``None``."""
        stats = self.recorder.stats()
        if stats["recorded_since_mark"] >= self.config.min_queries:
            workload = self.recorder.to_workload()
            if workload:
                coverage = evaluate_coverage(
                    self._current_keyword_sets(), workload
                )
                if coverage < self.config.coverage_threshold:
                    return "coverage"
        if self._growth_exceeded():
            return "growth"
        return None

    def run_once(
        self, trigger: Optional[str] = None
    ) -> Optional[ReselectionReport]:
        """One trigger-check + reselection pass (synchronous).

        ``trigger`` forces a pass (benches and tests); otherwise the
        heuristics decide.  Returns the pass report, or ``None`` when no
        trigger applied or the recorder is empty.
        """
        with self._run_lock:
            if trigger is None:
                trigger = self.should_reselect()
                if trigger is None:
                    return None
            workload = self.recorder.to_workload()
            if not workload:
                return None
            index = self._selection_index()
            catalog, report = self.reselector.reselect(
                index,
                workload,
                previous_catalog=getattr(self.engine, "catalog", None),
                trigger=trigger,
            )
            generation = self._install(catalog, report)
            self.recorder.mark()
            self.recorder.decay(self.config.decay)
            self._baseline_num_docs = self._num_docs()
            self.reselections += 1
            self.last_report = report
            self.last_error = None
            if self.metrics is not None:
                self.metrics.observe_reselection(generation, report.to_dict())
            return report

    def info(self) -> dict:
        """Operational summary for ``healthz``/``info``."""
        return {
            "running": self.running,
            "interval_seconds": self.config.interval_seconds,
            "min_queries": self.config.min_queries,
            "coverage_threshold": self.config.coverage_threshold,
            "growth_threshold": self.config.growth_threshold,
            "reselections": self.reselections,
            "catalog_generation": self.engine.catalog_generation,
            "version_vector": self.engine.version.to_dict(),
            "last_reselection": (
                self.last_report.to_dict() if self.last_report else None
            ),
            "last_error": self.last_error,
            "recorder": self.recorder.stats(),
        }

    # -- engine dispatch -------------------------------------------------

    def _validate_engine(self) -> None:
        """Every backend installs through the one SearchBackend entry
        point; constraints are declared, not type-sniffed:
        ``supports_hot_swap`` (False for the fork shard executor, whose
        copy-on-write workers cannot observe a parent-side swap) and
        ``needs_reference_index`` (True for shapes that shard or remote
        the collection, where selection must scan the whole-collection
        reference index)."""
        if not hasattr(self.engine, "install_catalog"):
            raise QueryError(
                f"engine {type(self.engine).__name__} has no catalog swap "
                "entry point (install_catalog)"
            )
        if not getattr(self.engine, "supports_hot_swap", True):
            backend = getattr(self.engine, "_backend", None)
            name = getattr(backend, "name", type(self.engine).__name__)
            raise QueryError(
                "adaptive selection is not supported on the "
                f"{name!r} shard executor: forked workers "
                "cannot observe catalog hot-swaps (use serial or "
                "thread)"
            )
        if (
            getattr(self.engine, "needs_reference_index", False)
            and self.reference_index is None
        ):
            raise QueryError(
                "adaptive selection over a sharded or distributed engine "
                "needs the pre-shard reference index (reference_index=) "
                "to run selection over the whole collection"
            )

    def _install(self, catalog, report: ReselectionReport) -> int:
        return self.engine.install_catalog(catalog, info=report.to_dict())

    def _selection_index(self):
        if self.engine.kind == "lifecycle":
            # A lifecycle snapshot is the committed, index-shaped read
            # view selection can scan.
            return self.engine.index.snapshot()
        if self.reference_index is not None:
            return self.reference_index
        index = getattr(self.engine, "index", None)
        if index is None:
            raise QueryError(
                "cannot find an index to run view selection over"
            )
        return index

    def _num_docs(self) -> int:
        index = getattr(self.engine, "index", None) or getattr(
            self.engine, "sharded_index", None
        )
        if index is None:
            # Remote shapes (the cluster router) hold no local index;
            # growth is measured against the reference index instead.
            index = self.reference_index
        return getattr(index, "num_docs", 0)

    def _growth_exceeded(self) -> bool:
        if not self._baseline_num_docs:
            return False
        growth = (
            self._num_docs() - self._baseline_num_docs
        ) / self._baseline_num_docs
        probe = MaintenanceReport(growth_since_selection=growth)
        return needs_reselection(
            probe, growth_threshold=self.config.growth_threshold
        )

    def _current_keyword_sets(self) -> List:
        catalog = getattr(self.engine, "catalog", None)
        if catalog is not None:
            return [view.keyword_set for view in catalog]
        runtimes = getattr(self.engine, "runtimes", None)
        if runtimes:
            sets = set()
            for runtime in runtimes:
                if runtime.catalog is not None:
                    sets.update(
                        view.keyword_set for view in runtime.catalog
                    )
            return sorted(sets, key=sorted)
        return []

    def __enter__(self) -> "AdaptiveSelectionController":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
