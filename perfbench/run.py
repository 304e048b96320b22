"""Benchmark of the Pond simulator: host time end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats one workload in fresh interpreters (``perfbench/rep.py``),
each of which sets the workload up and times one user-facing call, until
``--seconds`` have passed and at least ``MIN_REPS`` repetitions are done.
Every timing is host time; the simulated statistics are only checked.

``--trace 0`` reports the end-to-end metrics (see :func:`metrics_of`).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the median traced one, plus ``trace.overhead_frac``,
the median traced over the median untraced wall time minus one.  The
traced repetitions write their spans to ``.perfbench/spans/`` in the
checkout.  Lines starting with ``#`` show each repetition's unscaled call
time and reference-kernel time.

Output checks: every repetition's invariants hold, every repetition of a
run produces bit-identical simulated statistics, and those equal the
digest recorded in ``perfbench/expected.json`` for this workload and seed
when one is recorded.  ``attempted``/``failed`` in the result line count
these checks, so ``failed / attempted`` is the run's error rate.  The model
is unvalidated: the traces are synthetic and no reference results exist,
so no error against a reference is given.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig21_stream", "capacity_spanning", "online_faults",
             "controls_off")
#: Repetitions per run at least (per kind of repetition with --trace 1).
MIN_REPS = 3
MIN_TRACED_REPS = 2
MAX_REPS = 20
#: Wall-clock budget for a whole run; no repetition starts past it.
BUDGET_S = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "vms_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def _expected_digest(workload: str, seed: int, size: str):
    path = HERE / "expected.json"
    if size != "full" or not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def run_rep(workload: str, seed: int, size: str, traced: bool, extra: bool,
            deadline: float) -> dict:
    """One repetition in a fresh interpreter; raises on failure or timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spans = ""
    if traced:
        spans_dir = ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans = str(spans_dir / f"{workload}-seed{seed}.jsonl")
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed), size,
           "1" if traced else "0", "1" if extra else "0", spans]
    # Its own session, so a timeout also kills the repetition's workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool,
            size: str) -> list:
    """Repetitions until ``seconds`` have passed and the minimum is met."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    reps: list = []

    def enough() -> bool:
        untraced = sum(1 for r in reps if not r["traced"])
        traced = len(reps) - untraced
        if trace:
            minimum = untraced >= MIN_TRACED_REPS and traced >= MIN_TRACED_REPS
        else:
            minimum = untraced >= MIN_REPS
        if not minimum:
            return False
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        return (elapsed >= seconds or len(reps) >= MAX_REPS
                or elapsed + per_rep > BUDGET_S)

    while not enough():
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, size, traced, extra=not reps,
                            deadline=deadline))
    return reps


def check(workload: str, seed: int, size: str, reps: list) -> dict:
    """Every output check of the run, by name: True passed, False failed."""
    results = {}
    for i, rep in enumerate(reps):
        for name, ok in rep["checks"].items():
            results[f"rep{i}.{name}"] = bool(ok)
    first = reps[0]["digest"]
    for i, rep in enumerate(reps[1:], start=1):
        results[f"rep{i}.bit_identical_to_rep0"] = rep["digest"] == first
    expected = _expected_digest(workload, seed, size)
    if expected is not None:
        results["matches_recorded_digest"] = first == expected
    return results


def metrics_of(reps: list, trace: bool) -> dict:
    """The run's metrics from its repetitions.

    Each repetition's times are scaled to the host's nominal speed by the
    reference kernel it timed just before its set-up (``hostspeed.py``);
    a metric is the median over repetitions of its scaled value.
    """
    from hostspeed import NOMINAL_S

    def scaled(rep: dict, value: float) -> float:
        return value * NOMINAL_S / rep["reference_s"]

    untraced = [r for r in reps if not r["traced"]]
    wall_s = statistics.median(scaled(r, r["wall_s"]) for r in untraced)
    if not trace:
        values = {
            "wall_s": wall_s,
            "vms_per_s": untraced[0]["input_vms"] / wall_s,
            "cpu_s": statistics.median(scaled(r, r["cpu_s"]) for r in untraced),
            "peak_rss_mib": statistics.median(
                r["peak_rss_mib"] for r in untraced),
            "setup_s": statistics.median(
                scaled(r, r["setup_s"]) for r in untraced),
        }
        return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in values.items()}
    from layers import LAYER_UNITS

    # One traced repetition, the median one, gives every per-layer number,
    # so the layer times add up within one call.
    traced = sorted((r for r in reps if r["traced"]),
                    key=lambda r: scaled(r, r["wall_s"]))
    rep = traced[(len(traced) - 1) // 2]
    factor = NOMINAL_S / rep["reference_s"]
    layer = {
        name: value * factor if LAYER_UNITS[name] == "s"
        else value / factor if LAYER_UNITS[name] == "1/s" else value
        for name, value in rep["layer"].items()
    }
    layer["trace.overhead_frac"] = statistics.median(
        scaled(r, r["wall_s"]) for r in traced) / wall_s - 1.0
    return {name: {"value": layer[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs the reduced scale of the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simulator source not found under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    try:
        reps = collect(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.size)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    results = check(args.workload, args.seed, args.size, reps)
    failed = sorted(name for name, ok in results.items() if not ok)
    metrics = metrics_of(reps, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} reps={len(reps)} "
          f"input_vms={reps[0]['input_vms']} digest={reps[0]['digest'][:16]} "
          f"error_rate={len(failed)}/{len(results)}")
    print("# unscaled wall_s per repetition: " + " ".join(
        f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in reps))
    print("# reference kernel s per repetition: " + " ".join(
        f"{r['reference_s']:.3f}" for r in reps))
    for name in failed:
        print(f"# FAILED check {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
