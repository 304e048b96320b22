"""Benchmark-report schema and perf-floor validation.

Every scale benchmark emits a ``BENCH_<name>.json`` report (see
``benchmarks/_bench_report.py``) carrying standard metadata plus
``<metric>`` / ``<metric>_floor`` pairs for each perf floor it asserts.
This module owns the validation side -- the report schema check and the
floor re-check -- so the CI bench-smoke job, the ``repro.analysis
perf-floors`` subcommand, and the benchmarks themselves share one
definition.  ``benchmarks/_bench_report.py`` re-exports these for the
benchmark scripts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

__all__ = ["REQUIRED_REPORT_FIELDS", "validate_report", "check_perf_floors",
           "check_reports"]

#: Metadata fields ``emit_report`` promises in every ``BENCH_*.json``;
#: the CI bench-smoke job schema-checks every emitted report against this
#: list (plus ``benchmark`` matching the file name).
REQUIRED_REPORT_FIELDS = (
    "benchmark",
    "smoke",
    "unix_time",
    "python",
    "platform",
    "cpu_count",
)


def validate_report(path) -> dict:
    """Load one ``BENCH_*.json`` and check the emit_report schema.

    Returns the parsed report; raises ``ValueError`` naming the file and the
    missing/mismatched field otherwise.  Used by the CI schema check so the
    promise stays enforced, not aspirational.
    """
    path = Path(path)
    report = json.loads(path.read_text())
    missing = [f for f in REQUIRED_REPORT_FIELDS if f not in report]
    if missing:
        raise ValueError(f"{path.name}: missing required fields {missing}")
    expected_name = path.stem[len("BENCH_"):]
    if report["benchmark"] != expected_name:
        raise ValueError(
            f"{path.name}: benchmark field {report['benchmark']!r} does not "
            f"match file name ({expected_name!r})"
        )
    return report


def check_perf_floors(report: dict, name: str = "report") -> list:
    """Check every ``<metric>_floor`` pair a ``BENCH_*.json`` report carries.

    The benchmarks record each perf floor they assert right next to the
    measured value (``events_per_s`` / ``events_per_s_floor``, ``speedup``
    / ``speedup_floor``, ...).  Floors are uniformly *minimums*: the
    metric must be ``>=`` its floor.  This re-checks the recorded pairs so
    the CI bench-smoke job catches a report that was emitted before its
    benchmark's floor assertion fired, or one edited out of step with its
    measurement.

    A benchmark that measured a metric but did not assert its floor (too
    few CPUs, smoke scale) records ``<metric>_floor_skipped: "<reason>"``
    instead of the floor.  The reason must be a non-empty string, and a
    report may not carry both keys for one metric.

    Returns the list of ``(metric, value, floor)`` tuples checked (may be
    empty: not every report asserts a floor); raises ``ValueError`` naming
    the report and the offending field on a missing metric, a
    non-numeric pair, a floor violation, or a malformed skip record.
    """
    checked = []
    for key in sorted(report):
        if key.endswith("_floor_skipped"):
            reason = report[key]
            if not isinstance(reason, str) or not reason.strip():
                raise ValueError(
                    f"{name}: {key} must be a non-empty reason string, got "
                    f"{reason!r}"
                )
            floor_key = key[: -len("_skipped")]
            if floor_key in report:
                raise ValueError(
                    f"{name}: both {floor_key} and {key} present -- a floor "
                    f"is either asserted or skipped"
                )
            continue
        if not key.endswith("_floor"):
            continue
        metric = key[: -len("_floor")]
        if metric not in report:
            raise ValueError(
                f"{name}: {key} present but metric {metric!r} missing"
            )
        value, floor = report[metric], report[key]
        if not isinstance(value, (int, float)) or not isinstance(
                floor, (int, float)):
            raise ValueError(
                f"{name}: {metric}/{key} must be numeric, got "
                f"{value!r} / {floor!r}"
            )
        if value < floor:
            raise ValueError(
                f"{name}: {metric}={value:g} below recorded floor "
                f"{key}={floor:g}"
            )
        checked.append((metric, value, floor))
    return checked


def check_reports(paths: Iterable, require: Sequence[str] = (),
                  emit=print) -> int:
    """Validate reports and their floors; returns a process exit code.

    ``paths`` may mix files and directories (directories are scanned for
    ``BENCH_*.json``).  ``require`` names benchmarks that must be present
    (e.g. ``fault_injection``), so a report silently not emitted fails the
    check instead of vacuously passing.
    """
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.glob("BENCH_*.json")))
        else:
            files.append(entry)

    status = 0
    seen: List[str] = []
    for file in files:
        try:
            report = validate_report(file)
            checked: List[Tuple[str, float, float]] = \
                check_perf_floors(report, name=file.name)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            emit(f"FAIL {file.name}: {exc}")
            status = 1
            continue
        seen.append(report["benchmark"])
        floors = ", ".join(
            f"{metric}={value:g}>={floor:g}" for metric, value, floor
            in checked
        ) or "no floors"
        emit(f"ok {file.name}: {floors}")
    for name in require:
        if name not in seen:
            emit(f"FAIL: required benchmark report {name!r} not found")
            status = 1
    return status
