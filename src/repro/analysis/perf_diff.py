"""Compare two sets of ``perfbench/run.py`` results against the benchmark's bounds.

A result set is a directory of ``<workload>-seed<N>.json`` files, each
holding the last line ``perfbench/run.py`` printed for that workload and
seed (one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``).  Run the same seeds at two commits, alternating the two, and

    python -m repro.analysis perf-diff PARENT_DIR PR_DIR

prints, for each workload and each end-to-end metric of ``BENCHMARK.json``,
the parent's median with its interquartile range, the PR's median and
IQR, the PR/parent ratio of medians, and how many seed pairs the PR won.
A metric fails when its PR median is worse than the parent median by more
than the metric's ``bound``, a relative change: for a lower-is-better
metric, ``pr > parent * (1 + bound)``; for a higher-is-better one,
``pr < parent * (1 - bound)``.  Any run that reports ``failed > 0`` output
checks fails the comparison too.

Each row also carries the claim verdict of the choosing-metrics rule for
a gain: ``gain`` when the PR won at least 9/10 of the seed pairs (a tie
counts for neither side) and the medians differ, in the PR's favour, by
more than the parent's IQR; otherwise ``no gain``.  A row is
``unresolved`` instead when the parent's IQR, relative to its median,
exceeds the metric's bound -- the runs spread too widely to tell -- unless
every PR run beats every parent run.  The verdict does not change the exit
status.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

__all__ = ["load_results", "median_iqr", "claim_verdict", "compare", "perf_diff"]

_RESULT_FILE = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)\.json$")


def load_results(directory) -> Dict[str, Dict[int, dict]]:
    """``{workload: {seed: result}}`` from one result directory.

    A file may hold a whole ``run.py`` stdout; its last non-empty line is
    the result.
    """
    results: Dict[str, Dict[int, dict]] = {}
    for path in sorted(Path(directory).iterdir()):
        match = _RESULT_FILE.match(path.name)
        if match is None:
            continue
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty result file")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: last line is not JSON ({exc})") from None
        results.setdefault(match["workload"], {})[int(match["seed"])] = result
    return results


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return float(values[0]), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def claim_verdict(old: Sequence[float], new: Sequence[float], won: int,
                  n_pairs: int, lower: bool, bound: float) -> str:
    """``gain``, ``no gain`` or ``unresolved`` for one metric's parent and
    PR runs, of which the PR won ``won`` of ``n_pairs`` seed pairs (see
    the module docstring)."""
    old_median, old_iqr = median_iqr(old)
    new_median, _ = median_iqr(new)
    if lower:
        margin, dominates = old_median - new_median, max(new) < min(old)
    else:
        margin, dominates = new_median - old_median, min(new) > max(old)
    if old_iqr > bound * abs(old_median) and not dominates:
        return "unresolved"
    if n_pairs and 10 * won >= 9 * n_pairs and margin > old_iqr:
        return "gain"
    return "no gain"


def _value(result: dict, metric: str):
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def compare(parent: Dict[str, Dict[int, dict]], pr: Dict[str, Dict[int, dict]],
            end_to_end: Sequence[dict]) -> Tuple[List[dict], List[str]]:
    """One row per (workload, metric) present on both sides, plus problems.

    Problems name every failing bound, every run with failed checks and
    every workload that only one side has.
    """
    rows: List[dict] = []
    problems: List[str] = []
    for side, results in (("parent", parent), ("PR", pr)):
        for workload, runs in sorted(results.items()):
            for seed, result in sorted(runs.items()):
                if result.get("failed", 0) > 0:
                    problems.append(f"{side} {workload} seed {seed}: "
                                    f"{result['failed']} failed check(s)")
    for workload in sorted(set(parent) ^ set(pr)):
        side = "parent" if workload in parent else "PR"
        problems.append(f"{workload}: results only in the {side} set")
    for workload in sorted(set(parent) & set(pr)):
        old_runs, new_runs = parent[workload], pr[workload]
        for spec in end_to_end:
            metric, lower = spec["name"], spec["better"] == "lower"
            old = [v for v in (_value(r, metric) for r in old_runs.values())
                   if v is not None]
            new = [v for v in (_value(r, metric) for r in new_runs.values())
                   if v is not None]
            if not old or not new:
                continue
            old_median, old_iqr = median_iqr(old)
            new_median, new_iqr = median_iqr(new)
            pairs = [(_value(old_runs[s], metric), _value(new_runs[s], metric))
                     for s in sorted(set(old_runs) & set(new_runs))]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
            won = sum(1 for a, b in pairs if (b < a if lower else b > a))
            bound = spec["bound"]
            worse = (new_median > old_median * (1.0 + bound) if lower
                     else new_median < old_median * (1.0 - bound))
            rows.append(dict(
                workload=workload, metric=metric, unit=spec.get("unit", ""),
                parent_median=old_median, parent_iqr=old_iqr,
                pr_median=new_median, pr_iqr=new_iqr,
                ratio=new_median / old_median if old_median else float("inf"),
                won=won, pairs=len(pairs), bound=bound, worse=worse,
                verdict=claim_verdict(old, new, won, len(pairs), lower, bound),
            ))
            if worse:
                problems.append(
                    f"{workload} {metric}: PR median {new_median:.4g} is worse "
                    f"than parent {old_median:.4g} beyond bound {bound}")
    return rows, problems


def _format_rows(rows: Sequence[dict]) -> List[str]:
    header = ("workload", "metric", "parent median (IQR)", "PR median (IQR)",
              "PR/parent", "PR won", "bound", "claim")
    table = [header]
    for row in rows:
        table.append((
            row["workload"], row["metric"],
            f"{row['parent_median']:.4g} ({row['parent_iqr']:.2g}) {row['unit']}",
            f"{row['pr_median']:.4g} ({row['pr_iqr']:.2g}) {row['unit']}",
            f"{row['ratio']:.3f}",
            f"{row['won']}/{row['pairs']}",
            f"{row['bound']}" + (" WORSE" if row["worse"] else ""),
            row["verdict"],
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in table]


def perf_diff(parent_dir, pr_dir, benchmark="BENCHMARK.json") -> int:
    """Print the comparison table; 0 when within every bound, else 1."""
    spec = json.loads(Path(benchmark).read_text())
    parent, pr = load_results(parent_dir), load_results(pr_dir)
    if not parent or not pr:
        empty = parent_dir if not parent else pr_dir
        print(f"no <workload>-seed<N>.json results in {empty}")
        return 1
    rows, problems = compare(parent, pr, spec["end_to_end"])
    for line in _format_rows(rows):
        print(line)
    runs = sum(len(r) for r in parent.values()), sum(len(r) for r in pr.values())
    print(f"\n{runs[0]} parent run(s), {runs[1]} PR run(s)")
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print("ok: every end-to-end metric within its bound, 0 failed checks")
    return 0
