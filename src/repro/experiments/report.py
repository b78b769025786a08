"""Render experiment results as a Markdown report (EXPERIMENTS.md's body)."""

from __future__ import annotations

import platform
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .config import ExperimentConfig
from .performance import PerformanceResult
from .quality import Figure6Result
from .selection_study import SelectionStudyResult


def markdown_table(headers: Sequence, rows: Sequence[Sequence]) -> str:
    """A GitHub-flavoured Markdown table (pipes in cells are escaped)."""

    def cell(value) -> str:
        return str(value).replace("|", "\\|")

    head = "| " + " | ".join(cell(h) for h in headers) + " |"
    rule = "|" + "|".join("---" for _ in headers) + "|"
    body = "\n".join(
        "| " + " | ".join(cell(c) for c in row) + " |" for row in rows
    )
    return "\n".join((head, rule, body))


@dataclass
class ExperimentReport:
    """All measured artefacts of one reproduction run."""

    config: ExperimentConfig
    figure6: Figure6Result
    figure7: PerformanceResult
    figure8: PerformanceResult
    selection: SelectionStudyResult
    timings: Dict[str, float]

    def verdicts(self) -> List[Tuple[str, bool]]:
        return [
            ("Figure 6 (ranking quality)", self.figure6.shape_holds),
            ("Figure 7 (large-context performance)", self.figure7.shape_holds),
            ("Figure 8 (small-context performance)", self.figure8.shape_holds),
            ("Section 6.2 (selection + storage)", self.selection.shape_holds),
        ]

    @property
    def all_shapes_hold(self) -> bool:
        return all(ok for _, ok in self.verdicts())

    def to_markdown(self) -> str:
        config = self.config
        parts: List[str] = []
        add = parts.append

        add("# EXPERIMENTS — paper vs. measured\n")
        add(
            "Reproduction of every evaluation artefact of *Context-sensitive "
            "Ranking for Document Retrieval* (SIGMOD 2011) on the synthetic "
            "PubMed substrate (see DESIGN.md §3 for substitutions).  The "
            "reproduction target is the **shape** of each result — who "
            "wins, by roughly what factor, where regimes change — not the "
            "absolute numbers, which depend on the authors' 18 M-document "
            "corpus and 2011 testbed.\n"
        )
        add("Regenerate with `python examples/reproduce_paper.py --full`.\n")

        add("## Setup\n")
        add(
            markdown_table(
                ("parameter", "paper", "this run"),
                [
                    ("corpus", "PubMed, 18 M citations", f"synthetic, {config.num_docs:,} citations (seed {config.seed})"),
                    ("T_C", "1% of |D| (180,000)", f"{config.t_c_percent:g}% of |D| ({config.t_c:,})"),
                    ("T_V", "4096 tuples", f"{config.t_v:,} tuples"),
                    ("topics", "30 (TREC Genomics 2007)", f"{config.num_topics} (synthetic TREC-style)"),
                    ("perf queries", "50 per point, 2–5 keywords", f"{config.queries_per_point} per point, {'–'.join(map(str, (config.keyword_counts[0], config.keyword_counts[-1])))} keywords"),
                    ("hardware", "Intel i7-860, 8 GB (Java 6)", f"{platform.machine()}, CPython {platform.python_version()}"),
                ],
            )
        )
        add("\nBuild timings: " + ", ".join(
            f"{label} {seconds:.1f}s" for label, seconds in self.timings.items()
        ) + ".\n")

        add("## E1–E3 · Figure 6: ranking quality (Section 6.1)\n")
        add(
            markdown_table(
                ("metric", "paper", "measured"),
                self.figure6.summary_rows(),
            )
        )
        add(
            "\nShape check: context-sensitive ranking must win a clear "
            f"majority of topics with non-regressing means — "
            f"**{'HOLDS' if self.figure6.shape_holds else 'FAILS'}**.\n"
        )
        add("<details><summary>Per-topic series (Figure 6a–6d)</summary>\n")
        add(
            markdown_table(
                ("topic", "P@20 conv (6a)", "P@20 ctx (6b)", "RR conv (6c)", "RR ctx (6d)"),
                self.figure6.topic_rows(),
            )
        )
        add("\n</details>\n")

        add("## E4 · Section 6.2: view-selection feasibility\n")
        add(
            "The paper: FP-growth runs out of memory on the full corpus; "
            "Apriori \"would take weeks\"; the hybrid finishes in 40 h and "
            "selects 3,523 views.  Budgets here are scaled to corpus size "
            "(DESIGN.md E4).\n"
        )
        add(
            markdown_table(
                ("algorithm", "budget (work/nodes)", "work done", "outcome", "time"),
                self.selection.feasibility_rows(),
            )
        )
        audit = self.selection.audit
        add(
            f"\nProblem 5.1 audit: {audit.checked_combinations:,} frequent "
            f"predicate combinations checked exactly; "
            f"uncovered = {len(audit.uncovered)}, oversized views = "
            f"{len(audit.oversized_views)} — "
            f"**{'GUARANTEE HOLDS' if audit.ok else 'VIOLATION'}**.\n"
        )

        add("## E5 · Section 6.2: storage usage\n")
        add(
            "Paper: 3,523 views totalling 12.77 GB (avg 3.71 MB/view, "
            "912 parameter columns, ≤4096 tuples) vs a 5.72 GB Lucene "
            "index over 70 GB of raw data.\n"
        )
        add(markdown_table(("quantity", "measured"), self.selection.storage_rows()))
        add(
            "\nNote the scale effect: at laptop corpus sizes the per-view "
            "parameter columns (one df column per frequent keyword) "
            "dominate, so views are proportionally larger relative to the "
            "index than at PubMed scale; the tuple-count bound (≤ T_V) and "
            "the df-column rule (only |L_w| ≥ T_C) are the paper-faithful "
            "quantities.\n"
        )

        add("## E6 · Figure 7: large-context query performance (Section 6.3)\n")
        add(
            "Paper shape: Q_c with views ≈ 2× conventional; Q_c without "
            "views many times slower.  Latency is per query (best-of-3 "
            "batch means); model cost counts posting/tuple entries touched "
            "— the hardware-independent quantity.\n"
        )
        add(markdown_table(self.figure7.headers(), self.figure7.rows()))
        add(
            f"\nShape check (no-views slower than views): "
            f"**{'HOLDS' if self.figure7.shape_holds else 'FAILS'}**.\n"
        )

        add("## E7 · Figure 8: small-context query performance (Section 6.3)\n")
        add(
            "No view covers contexts below T_C, so Q_c pays the "
            "straightforward plan; the paper's point is that the absolute "
            "cost stays bounded because small contexts are cheap to "
            "materialise (Proposition 3.1).\n"
        )
        add(markdown_table(self.figure8.headers(), self.figure8.rows()))
        add(
            f"\nShape check (bounded slowdown): "
            f"**{'HOLDS' if self.figure8.shape_holds else 'FAILS'}**.\n"
        )

        add("## Verdict\n")
        add(
            markdown_table(
                ("artefact", "shape reproduced?"),
                [
                    (name, "✓" if ok else "✗")
                    for name, ok in self.verdicts()
                ],
            )
        )
        add("")
        return "\n".join(parts)
