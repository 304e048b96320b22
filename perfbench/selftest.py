"""Self-test of the benchmark harness at reduced scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` names exactly the workloads and metrics the harness
  emits, with the same units;
* every workload runs at the small scale with ``--trace 0`` and
  ``--trace 1``, passes every output check, and emits every metric of its
  mode with its unit;
* a traced repetition puts every patched name back to its original.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_manifest() -> dict:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the harness's workloads")
    expect({m["name"]: m["unit"] for m in manifest["end_to_end"]}
           == run.END_TO_END_UNITS,
           "BENCHMARK.json end-to-end metrics and units match the harness")
    expect({m["name"]: m["unit"] for m in manifest["per_layer"]}
           == layers.LAYER_UNITS,
           "BENCHMARK.json per-layer metrics and units match the harness")
    return manifest


def check_run(manifest: dict, workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        expect(False, f"{what} exits 0 ({proc.stderr.strip()[-300:]})")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{what} result line has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{what} passes every output check")
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == wanted, f"{what} emits every metric with its unit")


def check_restored() -> None:
    before = layers.snapshot()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        during = layers.snapshot()
        expect(all(during[k] is not before[k] for k in before),
               "install patches every listed name")
    finally:
        tracer.restore()
    after = layers.snapshot()
    expect(all(after[k] is before[k] for k in before),
           "restore puts every patched name back")
    record = rep.run_rep("online_faults", 1, "small", traced=True, extra=True)
    expect(record["checks"].get("patched_names_restored") is True,
           "a traced repetition reports its patched names restored")
    expect(all(layers.snapshot()[k] is before[k] for k in before),
           "names are original after a traced repetition")
    expect(record["layer"]["faults.fire.calls"] > 0
           and record["layer"]["qos.migrate.s"] > 0,
           "the traced repetition saw the fault and QoS layers")


def main() -> int:
    manifest = check_manifest()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(manifest, workload, trace)
    check_restored()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
