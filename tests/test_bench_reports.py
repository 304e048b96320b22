"""The committed BENCH_*.json reports honour their own recorded floors.

Every scale benchmark writes each perf floor it asserts next to the
measured value (``events_per_s`` / ``events_per_s_floor``, ``speedup`` /
``speedup_floor``, ...).  The CI bench-smoke job re-validates emitted and
committed reports with ``_bench_report.check_perf_floors``; this module
keeps that helper and the checked-in reports honest from the tier-1 suite
(no benchmark execution — the reports are just read back).
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

from _bench_report import check_perf_floors, validate_report  # noqa: E402

#: The tracked reports, by name: other ``BENCH_*.json`` files in the
#: directory are ignored leftovers of local benchmark refreshes.
COMMITTED_REPORTS = [BENCH_DIR / f"BENCH_{name}.json" for name in (
    "cluster_scale_throughput", "crossshard_scale", "fault_injection",
    "online_control",
)]


def test_committed_reports_exist():
    missing = [p.name for p in COMMITTED_REPORTS if not p.is_file()]
    assert not missing, f"committed reports missing: {missing}"


@pytest.mark.parametrize("path", COMMITTED_REPORTS,
                         ids=lambda p: p.stem)
def test_committed_report_schema_and_floors(path):
    report = validate_report(path)
    check_perf_floors(report, path.name)


def test_throughput_reports_carry_event_floors():
    """The replay-throughput reports must record events_per_s floors."""
    for stem in ("BENCH_cluster_scale_throughput", "BENCH_crossshard_scale"):
        report = validate_report(BENCH_DIR / f"{stem}.json")
        pairs = dict((m, (v, f)) for m, v, f in
                     check_perf_floors(report, stem))
        assert "events_per_s" in pairs, stem
        value, floor = pairs["events_per_s"]
        assert floor >= 200_000, stem  # PR 6 raised the recorded floor


def test_check_perf_floors_rejects_violation():
    with pytest.raises(ValueError, match="below recorded floor"):
        check_perf_floors({"speedup": 1.2, "speedup_floor": 1.5}, "r")


def test_check_perf_floors_rejects_orphan_floor():
    with pytest.raises(ValueError, match="missing"):
        check_perf_floors({"speedup_floor": 1.5}, "r")


def test_check_perf_floors_rejects_non_numeric():
    with pytest.raises(ValueError, match="numeric"):
        check_perf_floors({"speedup": "fast", "speedup_floor": 1.0}, "r")


def test_check_perf_floors_passes_and_lists_pairs():
    checked = check_perf_floors(
        {"events_per_s": 5e5, "events_per_s_floor": 2e5,
         "speedup": 2.0, "speedup_floor": 1.5, "n_vms": 10}, "r")
    assert checked == [("events_per_s", 5e5, 2e5), ("speedup", 2.0, 1.5)]
