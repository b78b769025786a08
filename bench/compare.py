#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the baseline, B the candidate.  One row per (workload, end-to-end
metric), judged by the metric's bound in ``BENCHMARK.json``: ``better`` or
``worse`` when B differs from A by more than the bound, otherwise ``within
bound`` -- or ``unresolved`` when the spread across passes is itself wider
than the bound, so that "no change" cannot be told from noise.  Counts
that the program makes deterministically must repeat exactly when both
files used the same seed.  Exits 1 on any ``worse``, any rise in the
share of failed requests and any count that failed to repeat.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from measure import spread

ROOT = Path(__file__).resolve().parent.parent

# Per-layer work counts that do not depend on timing.
DETERMINISTIC = (
    "index.intersection.entries_scanned",
    "views.tuples_scanned",
    "core.topk.candidates_scored",
    "service.cluster.router.attempts_per_query",
    "stored_bytes_per_doc",
)


def load_bounds() -> Dict[str, Tuple[str, float]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    return {e["name"]: (e["better"], e["bound"]) for e in declared}


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse the candidate is, as a share of the baseline
    (negative: better).  A zero baseline (nothing was answered) can only
    be matched or left behind."""
    delta = candidate - base if better == "lower" else base - candidate
    if base == 0:
        return 0.0 if delta == 0 else float("inf") * (1 if delta > 0 else -1)
    return delta / abs(base)


def verdict(change: float, noise: float, bound: float) -> str:
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unresolved" if noise > bound else "within bound"


def failed_share(entries: dict) -> float:
    """Failed over attempted, across the runs a workload has."""
    return sum(e["failed"] for e in entries.values()) / sum(
        e["attempted"] for e in entries.values()
    )


def compare(
    base: dict, candidate: dict, bounds: Dict[str, Tuple[str, float]]
) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, a, b, change, noise, verdict)`` and the
    list of problems that fail the comparison."""
    rows, problems = [], []
    same_seed = (
        base["environment"]["seed"] == candidate["environment"]["seed"]
    )
    for workload, a_entries in base["workloads"].items():
        b_entries = candidate["workloads"].get(workload)
        if b_entries is None:
            problems.append(f"{workload}: missing from the candidate")
            continue
        a_cells = a_entries["end_to_end"]["metrics"]
        b_cells = b_entries["end_to_end"]["metrics"]
        for metric, (better, bound) in bounds.items():
            a_cell, b_cell = a_cells[metric], b_cells[metric]
            change = worsening(a_cell["value"], b_cell["value"], better)
            noise = max(
                spread(a_cell.get("per_pass", ())),
                spread(b_cell.get("per_pass", ())),
            )
            outcome = verdict(change, noise, bound)
            rows.append(
                (workload, metric, a_cell["value"], b_cell["value"],
                 change, noise, outcome)
            )
            if outcome == "worse":
                problems.append(
                    f"{workload}: {metric} worse by {change:.1%} "
                    f"(bound {bound:.0%})"
                )
        a_failed, b_failed = failed_share(a_entries), failed_share(b_entries)
        if b_failed > a_failed:
            problems.append(
                f"{workload}: failed_share rose from {a_failed:.4f} "
                f"to {b_failed:.4f}"
            )
        if same_seed and "per_layer" in a_entries and "per_layer" in b_entries:
            a_layer = a_entries["per_layer"]["metrics"]
            b_layer = b_entries["per_layer"]["metrics"]
            for metric in DETERMINISTIC:
                a_value = a_layer[metric]["value"]
                b_value = b_layer[metric]["value"]
                if a_value != b_value:
                    problems.append(
                        f"{workload}: {metric} did not repeat for equal "
                        f"seeds ({a_value!r} != {b_value!r})"
                    )
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(p).read_text()) for p in argv)
    rows, problems = compare(base, candidate, load_bounds())
    print(
        f"{'workload':<15} {'metric':<16} {'A':>12} {'B':>12} "
        f"{'worse by':>9} {'spread':>7}  verdict"
    )
    for workload, metric, a, b, change, noise, outcome in rows:
        print(
            f"{workload:<15} {metric:<16} {a:>12.4f} {b:>12.4f} "
            f"{change:>+9.1%} {noise:>7.1%}  {outcome}"
        )
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
