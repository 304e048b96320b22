"""Shared helpers for the scale benchmarks: machine-readable reports + smoke mode.

Every scale benchmark emits a ``BENCH_<name>.json`` file (timings, speedup
ratios, peak memory) so the perf trajectory can be tracked across PRs by
diffing artifacts instead of scraping assertion messages.  Reports land in
``BENCH_REPORT_DIR`` when it is set (CI uploads them as artifacts), and
otherwise in a per-process temporary directory, so a plain test run never
rewrites a tracked file.  Refreshing the committed reports is explicit::

    BENCH_REPORT_DIR=benchmarks PYTHONPATH=src python -m pytest benchmarks

``BENCH_SMOKE=1`` switches the benchmarks to reduced scale with relaxed
speedup floors: small enough for a per-PR CI job, still asserting the same
*shape* of result (identical outputs, speedup above a floor) so hot-path
regressions surface before the full-scale run ever executes.

The validation side (report schema, recorded perf floors) lives in
:mod:`repro.analysis.perf_floors` -- shared with the ``python -m
repro.analysis perf-floors`` subcommand -- and is re-exported here so the
benchmark scripts keep one import surface.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

try:
    from repro.analysis.perf_floors import (
        REQUIRED_REPORT_FIELDS,
        check_perf_floors,
        validate_report,
    )
except ImportError:  # invoked without PYTHONPATH=src: resolve the repo layout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.analysis.perf_floors import (
        REQUIRED_REPORT_FIELDS,
        check_perf_floors,
        validate_report,
    )

__all__ = ["smoke_mode", "pick", "emit_report", "timed_pair",
           "REQUIRED_REPORT_FIELDS", "validate_report", "check_perf_floors"]


def smoke_mode() -> bool:
    """True when the reduced-scale CI smoke mode is requested."""
    return os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def pick(full, smoke):
    """Pick the full-scale or smoke-scale value for a benchmark constant."""
    return smoke if smoke_mode() else full


def timed_pair(rep: int, first, second):
    """Run two callables back to back, ``second`` first on odd reps.

    Returns ``(first_result, first_seconds, second_result,
    second_seconds)``.  An off-switch ratio compares two replays that run
    the same code, so a minimum over reps measures whichever replay a
    host spike missed; alternating the order and taking the median of the
    per-rep ratios keeps warm-up and drift off one side.
    """
    runs = (first, second)
    results = [None, None]
    seconds = [0.0, 0.0]
    for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
        start = time.perf_counter()
        results[side] = runs[side]()
        seconds[side] = time.perf_counter() - start
    return results[0], seconds[0], results[1], seconds[1]


@functools.lru_cache(maxsize=None)
def _temp_report_dir() -> Path:
    """This process's report directory when ``BENCH_REPORT_DIR`` is unset."""
    return Path(tempfile.mkdtemp(prefix="bench-reports-"))


def emit_report(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` (machine-readable benchmark outcome).

    ``payload`` should carry plain scalars: seconds, speedup ratios, sizes,
    peak MiB.  Standard metadata (mode, timestamp, python/platform, cpu
    count) is added so reports from different runs are comparable.
    """
    report = {
        "benchmark": name,
        "smoke": smoke_mode(),
        "unix_time": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **payload,
    }
    env_dir = os.environ.get("BENCH_REPORT_DIR")
    out_dir = Path(env_dir) if env_dir else _temp_report_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
