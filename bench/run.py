#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload; the last line of standard output is one JSON object
        (the form the benchmark driver calls)
    python3 bench/run.py --seed N [--trace] --out FILE
        every workload over shared fixtures, every metric printed by name
        with its unit, the result file written for bench/compare.py
    python3 bench/run.py --check
        tiny corpus, one pass of everything, names checked against
        BENCHMARK.json

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

# String hashes are randomised per process, and with them the layout of
# every dict and set: identical runs then differ by 4% in throughput.  Pin
# the hash seed (here and, through the environment, in the workers) by
# re-executing once.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro  # noqa: F401
except ImportError as exc:
    # No result line: a directory without the program cannot be measured.
    print(f"bench: cannot import the repro package ({exc})", file=sys.stderr)
    sys.exit(2)

from fixtures import CHECK, FULL, Fixtures, Scale  # noqa: E402
from measure import Tracer, median_of_passes, percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SECTIONS = {0: "end_to_end", 1: "per_layer"}  # by --trace
BY_NAME: Dict[str, type] = {cls.name: cls for cls in WORKLOADS}


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- measuring -----------------------------------------------------------------


def timed_passes(run_one, seconds: float) -> list:
    """Repeat ``run_one`` for about ``seconds``: another pass starts only
    while half of it still fits, and there is always at least one."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(run_one())
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def measure_end_to_end(workload: Workload, seconds: float) -> dict:
    """Untraced passes, each metric reduced to its median pass."""
    # The warm-up pass is checked like every other and timed by none.
    counted = [workload.run_pass()] if workload.warm_up else []
    passes = timed_passes(workload.run_pass, seconds)
    counted += passes
    per_pass = [p.metrics() for p in passes]
    return {
        "attempted": sum(p.attempted for p in counted),
        "failed": sum(p.failed for p in counted),
        "passes": len(passes),
        "samples_per_pass": len(passes[0].latencies_ms),
        "per_pass": {
            name: [m[name] for m in per_pass] for name in per_pass[0]
        },
    }


def measure_per_layer(
    workload: Workload, seconds: float, trace_path: Path
) -> dict:
    """Traced passes, each per-layer metric reduced to its median pass.

    Every traced pass follows a pass of the same staged code with a
    tracer that records nothing; the traced pass's median latency over
    its neighbour's, minus one, is what the spans cost.
    """
    off, tracer = Tracer(record=False), Tracer()
    warm_up = workload.trace_pass(off)
    pairs = timed_passes(
        lambda: (workload.trace_pass(off), workload.trace_pass(tracer)),
        seconds,
    )
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    counted = [warm_up, *(p for pair in pairs for p in pair)]
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    traced = [pair[1] for pair in pairs]
    per_pass = {
        name: [p.layer[name] for p in traced if name in p.layer]
        for name in sorted({name for p in traced for name in p.layer})
    }
    # A pass without a single reply leaves no latency to compare.
    if all(p.latencies_ms for pair in pairs for p in pair):
        per_pass["trace_overhead_share"] = [
            percentile(on.latencies_ms, 50)
            / percentile(untraced.latencies_ms, 50) - 1.0
            for untraced, on in pairs
        ]
    per_pass["failed_share"] = [failed / attempted]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(traced),
        "samples_per_pass": len(traced[0].latencies_ms),
        "spans": len(tracer.spans),
        "per_pass": per_pass,
    }


def rss_mb() -> float:
    # Linux reports the peak resident set in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    cls, fx: Fixtures, seconds: float, trace: int, declaration: dict
) -> dict:
    """Set one workload up over ``fx``, check and measure it; returns its
    entry: the driver's result line plus how it was measured.

    ``metrics`` holds every metric the section declares.  One this
    workload has no value for (a layer it never enters) reports 0 and is
    missing from ``measured``.
    """
    workload = cls(fx)
    workload.build()
    setup = {stage: fx.seconds[stage] for stage in cls.stages}
    setup_s = sum(setup.values())
    workload.prepare()
    # The corpus, the index, the benchmark's own requests and reference
    # rankings all live as long as the run.  Left to the collector, every
    # full collection in the timed phase walks them again: the pass-to-pass
    # spread of latency_p95_ms on straight_heavy is 23% that way, 9% frozen.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            measured = measure_per_layer(
                workload, seconds, OUT_DIR / f"trace-{cls.name}.jsonl"
            )
            if "selection.reselect_s" in cls.stages:
                setup["selection.views"] = fx.counts["selection.views"]
            setup["rss_mb_after_setup"] = rss_mb()
        else:
            measured = measure_end_to_end(workload, seconds)
            setup = {"setup_s": setup_s}
    finally:
        workload.close()
    per_pass = measured.pop("per_pass")
    values = {
        **setup,
        **{name: median_of_passes(v) for name, v in per_pass.items()},
    }
    declared = {e["name"]: e["unit"] for e in declaration[SECTIONS[trace]]}
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise AssertionError(
            f"{cls.name}: measured but not in BENCHMARK.json: {undeclared}"
        )
    return {
        "correct": measured["failed"] == 0,
        **measured,
        "loop": "closed",
        "clients": cls.clients,
        "measured": sorted(values),
        "metrics": {
            name: {
                "value": values.get(name, 0.0),
                "unit": unit,
                **({"per_pass": per_pass[name]} if name in per_pass else {}),
            }
            for name, unit in declared.items()
        },
    }


def result_line(entry: dict) -> str:
    """The entry as the driver reads it: exactly four keys, and exactly
    ``value`` and ``unit`` per metric."""
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                name: {"value": cell["value"], "unit": cell["unit"]}
                for name, cell in entry["metrics"].items()
            },
        }
    )


# -- every workload, a result file -------------------------------------------------


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def environment(args, scale: Scale) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": has_numpy(),
        "seed": args.seed,
        "seconds_per_workload": args.seconds,
        "num_docs": scale.num_docs,
        "requests_per_pass": scale.requests,
    }


def print_entry(workload: str, section: str, entry: dict) -> None:
    print(
        f"\n{workload} {section}: {entry['passes']} passes x "
        f"{entry['samples_per_pass']} samples, {entry['clients']} client(s), "
        f"failed {entry['failed']}/{entry['attempted']}"
    )
    for name in entry["measured"]:
        cell = entry["metrics"][name]
        print(f"  {name:<46} {cell['value']:>14.4f} {cell['unit']}")


def run_all(args, declaration: dict, scale: Scale) -> dict:
    """Every workload (or the one named) over one set of fixtures, so
    that a part several of them use is built once; ``setup_s`` still
    counts it in each."""
    names = [args.workload] if args.workload else list(BY_NAME)
    result = {"environment": environment(args, scale), "workloads": {}}
    fx = Fixtures(scale, args.seed, OUT_DIR)
    try:
        for name in names:
            result["workloads"][name] = entries = {}
            for trace in (0, 1) if args.trace else (0,):
                entries[SECTIONS[trace]] = entry = run_workload(
                    BY_NAME[name], fx, args.seconds, trace, declaration
                )
                print_entry(name, SECTIONS[trace], entry)
    finally:
        fx.close()
    return result


def failures(result: dict) -> int:
    return sum(
        entry["failed"]
        for entries in result["workloads"].values()
        for entry in entries.values()
    )


# -- the self-test -----------------------------------------------------------------


def check_names(result: dict, declaration: dict) -> List[str]:
    """Names are well-formed and carry units; every workload declared was
    run and every metric declared was measured by at least one workload.
    (``run_workload`` has already refused anything undeclared.)  The
    declaration lists the workloads the driver gates; the ones run by
    hand only (see the README) are not in it."""
    problems = []
    declared_workloads = [w["name"] for w in declaration["workloads"]]
    not_run = sorted(set(declared_workloads) - set(result["workloads"]))
    if not_run:
        problems.append(f"declared workloads that did not run: {not_run}")
    for section in SECTIONS.values():
        measured = set()
        for workload, entries in result["workloads"].items():
            measured.update(entries[section]["measured"])
            if section == "end_to_end" and set(
                entries[section]["measured"]
            ) != {e["name"] for e in declaration[section]}:
                problems.append(f"{workload}: an end-to-end metric is missing")
        for entry in declaration[section]:
            if not NAME.match(entry["name"]):
                problems.append(f"name {entry['name']!r} is not well-formed")
            if not entry.get("unit"):
                problems.append(f"{entry['name']} has no unit")
            if entry["name"] not in measured:
                problems.append(f"{entry['name']} is declared, never measured")
    for name in declared_workloads:
        if not NAME.match(name):
            problems.append(f"name {name!r} is not well-formed")
    if failures(result):
        problems.append(f"{failures(result)} replies differ from the reference")
    return problems


def run_check(args, declaration: dict) -> int:
    args.trace, args.workload = 1, None
    args.seconds = 0.2  # one pass of each
    result = run_all(args, declaration, CHECK)
    problems = check_names(result, declaration)
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print("\ncheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(BY_NAME), help="one workload (default: all)"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=declaration["run_seconds"],
        help="timed phase per workload",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="take the per-layer run (with --out: as well)",
    )
    parser.add_argument("--out", help="result file (runs every workload)")
    parser.add_argument("--check", action="store_true", help="self-test")
    args = parser.parse_args(argv)

    # Workers are reaped in ``finally`` blocks; make SIGTERM reach them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.check:
        return run_check(args, declaration)
    if args.workload and not args.out:
        # The driver's form: one workload, one section, one line.
        fx = Fixtures(FULL, args.seed, OUT_DIR)
        try:
            entry = run_workload(
                BY_NAME[args.workload], fx, args.seconds, args.trace,
                declaration,
            )
        finally:
            fx.close()
        print(result_line(entry))
        return 0
    result = run_all(args, declaration, FULL)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    return 1 if failures(result) else 0


if __name__ == "__main__":
    sys.exit(main())
