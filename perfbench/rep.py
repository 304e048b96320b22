"""One benchmark repetition in a fresh interpreter.

Sets a workload up, times its user-facing call once, checks the outputs
and prints one JSON object as the last line of standard output.  A fresh
interpreter per timed call means no memo of an earlier call (capacity
probe memos, the per-trace policy digest memo) can serve this one.

Usage (``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/rep.py WORKLOAD SEED SIZE TRACED EXTRA [SPANS_PATH]

``SIZE`` is ``full`` or ``small``; ``TRACED`` (0/1) installs the layer
tracer for the whole repetition; ``EXTRA`` (0/1) adds the once-per-run
output checks that cost another replay.  Before anything else the
repetition times the host-speed reference kernel (``hostspeed.py``).
"""

import gc
import json
import resource
import sys
import time

import hostspeed


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _result_layer_stats(result) -> dict:
    """Per-layer counters the simulator reports on its own results."""
    online = getattr(result, "online_stats", None)
    faults = getattr(result, "fault_stats", None)
    spec = getattr(result, "speculation", None)
    return {
        "qos.ticks": online.n_ticks if online else 0,
        "qos.checks": online.n_checks if online else 0,
        "qos.mitigations": online.n_mitigations if online else 0,
        "qos.failed_mitigations": online.n_failed_mitigations if online else 0,
        "qos.migrated_gb": online.migrated_gb if online else 0.0,
        "faults.vms_affected": faults.vms_affected if faults else 0,
        "faults.migrated_local": faults.vms_migrated_local if faults else 0,
        "faults.live_migrated": faults.vms_live_migrated if faults else 0,
        "faults.killed": faults.vms_killed if faults else 0,
        "capacity.spec.issued": spec.issued if spec else 0,
        "capacity.spec.hits": spec.hits if spec else 0,
        "capacity.spec.wasted": spec.wasted if spec else 0,
        "capacity.spec.hit_rate": spec.hit_rate if spec else 0.0,
    }


def run_rep(name: str, seed: int, size: str, traced: bool, extra: bool,
            spans_path=None) -> dict:
    reference_s = hostspeed.reference_s()
    gc.collect()
    setup_start = time.perf_counter()
    tracer = None
    if traced:
        from layers import LayerTracer, snapshot

        before = snapshot()
        tracer = LayerTracer()
        tracer.install()
    from workloads import SIZES, WORKLOADS, digest

    workload = WORKLOADS[name]
    state = workload.setup(seed, SIZES[name][size])
    setup_s = time.perf_counter() - setup_start

    from repro.core import policies

    checks = {"fresh_digest_memo": len(policies._DIGEST_MEMO) == 0}
    if hasattr(workload, "fresh"):
        checks["fresh_fleet"] = workload.fresh(state)
    gc.collect()

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    result = workload.call(state)
    wall_s = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    layer = {}
    if tracer is not None:
        tracer.restore()
        after = snapshot()
        checks["patched_names_restored"] = all(
            after[key] is before[key] for key in before)
        layer = tracer.metrics()

    parent_cpu_s = _cpu_s(self_after) - _cpu_s(self_before)
    worker_cpu_s = _cpu_s(children_after) - _cpu_s(children_before)
    outputs = workload.outputs(state, result)
    checks.update(workload.invariants(state, result, outputs))
    if extra and hasattr(workload, "static_check"):
        checks.update(workload.static_check(state, result, outputs))

    if tracer is not None:
        layer.update(_result_layer_stats(result))
        searched = layer["capacity.bisect.calls"] > 0
        layer["capacity.parent_cpu_s"] = parent_cpu_s if searched else 0.0
        layer["capacity.worker_cpu_s"] = worker_cpu_s if searched else 0.0
        if name == "capacity_spanning":
            checks["capacity_consumed_verdicts"] = layer["capacity.verdicts"] > 0
        if spans_path:
            tracer.dump(spans_path)

    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "traced": traced,
        "reference_s": reference_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": parent_cpu_s + worker_cpu_s,
        "peak_rss_mib": max(self_after.ru_maxrss,
                            children_after.ru_maxrss) / 1024.0,
        "input_vms": workload.input_vms(state, result),
        "digest": digest(outputs),
        "checks": checks,
        "layer": layer,
    }


def main(argv) -> int:
    name, seed, size, traced, extra = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    record = run_rep(name, int(seed), size, traced == "1", extra == "1",
                     spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
