"""``python -m repro.analysis perf-diff`` on synthetic perfbench result sets."""

import json
import re

import pytest

from repro.analysis.cli import main
from repro.analysis.perf_diff import claim_verdict, load_results, median_iqr

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "vms_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.2},
    ],
}


def write_set(directory, workload, walls, failed=0, rss=100.0, vms=1000):
    directory.mkdir(exist_ok=True)
    for seed, wall in enumerate(walls):
        result = {
            "correct": not failed, "attempted": 14, "failed": failed,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "vms_per_s": {"value": vms / wall, "unit": "1/s"},
                "peak_rss_mib": {"value": rss, "unit": "MiB"},
            },
        }
        # A whole run.py stdout: comment lines, then the result line.
        (directory / f"{workload}-seed{seed}.json").write_text(
            f"# {workload} seed={seed}\n{json.dumps(result)}\n")


@pytest.fixture
def repo(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, *argv):
    status = main(["perf-diff", *map(str, argv)])
    return status, capsys.readouterr().out


def test_median_iqr():
    assert median_iqr([3.0]) == (3.0, 0.0)
    assert median_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0)


def test_load_results_keys_by_workload_and_seed(repo):
    write_set(repo / "a", "fig21_stream", [1.0, 2.0])
    (repo / "a" / "notes.txt").write_text("ignored")
    results = load_results(repo / "a")
    assert sorted(results) == ["fig21_stream"]
    assert sorted(results["fig21_stream"]) == [0, 1]
    assert results["fig21_stream"][1]["metrics"]["wall_s"]["value"] == 2.0


def test_faster_pr_passes_and_reports_pairs_won(repo, capsys):
    write_set(repo / "old", "fig21_stream", [1.5, 1.4, 1.6, 1.5])
    write_set(repo / "new", "fig21_stream", [0.4, 0.5, 0.4, 1.7])
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 0
    wall = next(line for line in out.splitlines() if " wall_s " in line)
    assert "1.5 (" in wall and "0.45 (" in wall
    assert "0.300" in wall  # median ratio 0.45 / 1.5
    assert "3/4" in wall
    assert "ok:" in out


def test_slower_pr_beyond_bound_fails(repo, capsys):
    write_set(repo / "old", "online_faults", [1.0, 1.0, 1.0])
    write_set(repo / "new", "online_faults", [1.3, 1.3, 1.3])
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert "FAIL online_faults wall_s" in out
    # vms_per_s fell to 1/1.3 = 0.77x: within its 0.25 bound.
    assert "FAIL online_faults vms_per_s" not in out


def test_higher_is_better_bound(repo, capsys):
    write_set(repo / "old", "w", [1.0, 1.0], vms=1000)
    write_set(repo / "new", "w", [1.0, 1.0], vms=700)
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert "FAIL w vms_per_s" in out
    assert "FAIL w wall_s" not in out


def test_memory_bound_is_per_metric(repo, capsys):
    write_set(repo / "old", "w", [1.0], rss=100.0)
    write_set(repo / "new", "w", [1.0], rss=122.0)
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert "FAIL w peak_rss_mib" in out


def test_failed_checks_fail_the_comparison(repo, capsys):
    write_set(repo / "old", "w", [1.0, 1.0])
    write_set(repo / "new", "w", [1.0, 1.0], failed=1)
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert "FAIL PR w seed 0: 1 failed check(s)" in out


def test_workload_on_one_side_only_fails(repo, capsys):
    write_set(repo / "old", "w", [1.0])
    write_set(repo / "old", "v", [1.0])
    write_set(repo / "new", "w", [1.0])
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert "FAIL v: results only in the parent set" in out


def test_empty_set_fails(repo, capsys):
    write_set(repo / "old", "w", [1.0])
    (repo / "new").mkdir()
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert "no <workload>-seed<N>.json results" in out


def test_unreadable_result_is_reported(repo, capsys):
    write_set(repo / "old", "w", [1.0])
    write_set(repo / "new", "w", [1.0])
    (repo / "new" / "w-seed1.json").write_text("")
    status, out = run(capsys, repo / "old", repo / "new")
    assert status == 1
    assert out.startswith("perf-diff: ") and "empty result file" in out


def claim(out, metric="wall_s"):
    line = next(line for line in out.splitlines() if f" {metric} " in line)
    return re.search(r"(no gain|gain|unresolved)$", line).group(1)


STEADY = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]


@pytest.mark.parametrize("old, new, verdict", [
    # 9/10 pairs won and a margin far beyond the parent's IQR.
    (STEADY, [0.7] * 9 + [1.1], "gain"),
    # 8/10 pairs won is short of 9/10.
    (STEADY, [0.7] * 8 + [1.1] * 2, "no gain"),
    # A tie counts for neither side: 9 wins and a tie still make 9/10 ...
    ([1.0] * 10, [0.7] * 9 + [1.0], "gain"),
    # ... but 8 wins and 2 ties do not.
    ([1.0] * 10, [0.7] * 8 + [1.0] * 2, "no gain"),
    # Every pair won, but the medians differ by less than the parent's IQR.
    ([1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.15],
     [0.95, 1.05, 1.15, 0.95, 1.05, 1.15, 0.95, 1.05, 1.15, 1.1], "no gain"),
    # The parent's IQR exceeds the 0.25 bound and the runs overlap.
    ([1.0, 2.0] * 5, [0.9, 1.9] * 5, "unresolved"),
    # Wide parent spread, but every PR run beats every parent run.
    ([1.0, 2.0] * 5, [0.2] * 10, "gain"),
])
def test_claim_verdict_per_row(repo, capsys, old, new, verdict):
    write_set(repo / "old", "fig21_stream", old)
    write_set(repo / "new", "fig21_stream", new)
    status, out = run(capsys, repo / "old", repo / "new")
    assert out.splitlines()[0].endswith("claim")
    assert claim(out) == verdict
    # vms_per_s mirrors wall_s (higher is better); equal RSS is no gain.
    assert claim(out, "vms_per_s") == verdict
    assert claim(out, "peak_rss_mib") == "no gain"
    assert status == 0  # the verdict leaves the exit status alone


def test_claim_verdict_higher_is_better():
    assert claim_verdict([10.0] * 10, [12.0] * 10, 10, 10, False, 0.25) == "gain"
    assert claim_verdict([10.0] * 10, [8.0] * 10, 0, 10, False, 0.25) == "no gain"
    assert claim_verdict([5.0, 15.0] * 5, [6.0, 16.0] * 5, 10, 10, False,
                         0.25) == "unresolved"
