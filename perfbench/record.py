"""Record what the benchmark compares against.

Run from the root of a checkout::

    python3 perfbench/record.py expected --seeds 0:50
    python3 perfbench/record.py baseline --runs 10 --first-seed 100

``expected`` runs one repetition per workload and seed and stores the
digest of its simulated statistics in ``perfbench/expected.json``; a run
whose seed is recorded there must reproduce it bit for bit.

``baseline`` runs the benchmark ``--runs`` times per workload, each with
another seed, and writes ``perfbench/baseline.json``: the host's facts,
each workload's reason and input size, every end-to-end metric's unit and
kind (host time or simulated), and per workload and metric the median,
the quartiles and their spread (quartile distance over median).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run
import workloads

HERE = run.HERE

METRIC_KINDS = {
    "wall_s": "host time: seconds of the user-facing call at nominal host "
              "speed, median repetition",
    "vms_per_s": "host rate: input VMs over wall_s",
    "cpu_s": "host time: user+system CPU of the call and its workers at "
             "nominal host speed, median repetition",
    "peak_rss_mib": "host memory: peak RSS of the process or its largest "
                    "worker, median repetition",
    "setup_s": "host time: imports, trace generation, training and "
               "topology building at nominal host speed, median repetition",
}


def record_expected(seeds: range) -> None:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    deadline = time.monotonic() + 3600.0
    for workload in run.WORKLOADS:
        for seed in seeds:
            rep = run.run_rep(workload, seed, "full", traced=False,
                              extra=False, deadline=deadline)
            expected.setdefault(workload, {})[str(seed)] = rep["digest"]
            print(workload, seed, rep["digest"][:16], flush=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "processor": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def record_baseline(runs: int, first_seed: int, seconds=None) -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = seconds or manifest["run_seconds"]
    table = {}
    input_vms = {}
    for workload in run.WORKLOADS:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks")
            input_vms.setdefault(workload, []).append(
                int(lines[0].split("input_vms=")[1].split()[0]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()}, flush=True)
        table[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            table[workload][name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": vals,
            }
            print(f"{workload:18s} {name:13s} median={median:.4g} "
                  f"spread={(q3 - q1) / median:.3f}", flush=True)
    baseline = {
        "host": host_facts(),
        "run_seconds": seconds,
        "seeds": [first_seed, first_seed + runs - 1],
        "workloads": {
            w["name"]: {
                "why": w["why"],
                "size": workloads.SIZES[w["name"]]["full"],
                "input_vms_median": statistics.median(input_vms[w["name"]]),
            }
            for w in manifest["workloads"]
        },
        "metrics": {
            m["name"]: {"unit": m["unit"], "kind": METRIC_KINDS[m["name"]]}
            for m in manifest["end_to_end"]
        },
        "per_layer_kind": "counts and GB are simulated quantities; "
                          "seconds and 1/s are host time",
        "baseline": table,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    expected = sub.add_parser("expected")
    expected.add_argument("--seeds", default="0:50",
                          help="half-open range START:STOP")
    baseline = sub.add_parser("baseline")
    baseline.add_argument("--runs", type=int, default=10)
    baseline.add_argument("--first-seed", type=int, default=100)
    baseline.add_argument("--seconds", type=int,
                          help="run length (default: BENCHMARK.json's)")
    args = parser.parse_args()
    if args.what == "expected":
        start, stop = (int(x) for x in args.seeds.split(":"))
        record_expected(range(start, stop))
    else:
        record_baseline(args.runs, args.first_seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
