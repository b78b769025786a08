"""Programmatic paper reproduction: run E1–E7 and render EXPERIMENTS.md.

Build one :class:`ExperimentStack`, run each experiment as a function,
and get structured results plus a Markdown report
(``examples/reproduce_paper.py`` drives exactly this)::

    from repro.experiments import ExperimentConfig, run_all, write_report

    report = run_all(ExperimentConfig.quick(), progress=True)
    print(report.all_shapes_hold)
    write_report(report, "EXPERIMENTS.md")
"""

from .config import ExperimentConfig
from .stack import ExperimentStack
from .quality import Figure6Result, run_figure6
from .performance import PerformanceResult, run_figure7, run_figure8
from .selection_study import SelectionStudyResult, run_selection_study
from .report import ExperimentReport, markdown_table
from .runner import run_all, write_report

__all__ = [
    "ExperimentConfig",
    "ExperimentStack",
    "Figure6Result",
    "run_figure6",
    "PerformanceResult",
    "run_figure7",
    "run_figure8",
    "SelectionStudyResult",
    "run_selection_study",
    "ExperimentReport",
    "markdown_table",
    "run_all",
    "write_report",
]
