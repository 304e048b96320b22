"""Outside-in layer tracing: spans and counts around the simulator's
public functions.

Nothing under the simulator's source changes.  :class:`LayerTracer`
patches a fixed list of module and class attributes with wrappers that
record a span (name, start, end, parent) or bump a counter, and puts every
original back on :meth:`LayerTracer.restore`.  Spans stay in memory;
:meth:`LayerTracer.dump` writes them out once the run has ended.

Per-VM methods (engine place/remove, the fault hook on every departure)
are counted, not timed.  Worker processes inherit the patches when they
fork, but their spans stay in the worker: what runs on the probe pool
shows up only as worker CPU time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: (module, class or None, attribute, layer name, kind).  Kinds:
#: ``span`` times each call, ``count`` only counts it, ``iter`` times
#: each ``next()`` of the returned generator, ``bisect`` times the call
#: and every verdict it blocks on.
PATCHES: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.cluster.tracegen", "TraceGenerator", "iter_window_records",
     "tracegen", "iter"),
    ("repro.core.policies", "_BatchPolicy", "decide_batch",
     "policy.decide", "span"),
    ("repro.cluster.simulator", None, "estimate_slowdown_batch",
     "policy.slowdown", "span"),
    ("repro.cluster.pool_topology", None, "estimate_slowdown_batch",
     "policy.slowdown", "span"),
    ("repro.cluster.simulator", "ClusterSimulator", "run", "replay", "span"),
    ("repro.cluster.engine", "ArrayPlacementEngine", "place",
     "engine.place", "count"),
    ("repro.cluster.engine", "ArrayPlacementEngine", "remove",
     "engine.remove", "count"),
    ("repro.cluster.engine", "ArrayPlacementEngine", "migrate_pool_to_local",
     "engine.migrate", "span"),
    ("repro.cluster.fleet", None, "replay_crossshard", "crossshard", "span"),
    ("repro.cluster.fleet", None, "bisect_min_dram", "capacity.bisect",
     "bisect"),
    ("repro.cluster.faults", "FaultInjector", "fire_next", "faults.fire",
     "span"),
    ("repro.cluster.faults", "FaultInjector", "retry_tick", "faults.retry",
     "span"),
    ("repro.cluster.faults", "FaultInjector", "on_departure",
     "faults.on_departure", "count"),
    ("repro.cluster.fleet", "FleetSimulator", "run", "fleet.run", "span"),
    ("repro.cluster.fleet", "FleetSimulator", "compute_baselines",
     "fleet.baselines", "span"),
)


#: Every per-layer metric a traced run reports, with its unit.  Times are
#: host seconds; counts and GB are simulated quantities.
LAYER_UNITS: Dict[str, str] = {
    "tracegen.calls": "count",
    "tracegen.vms": "count",
    "tracegen.s": "s",
    "policy.decide.calls": "count",
    "policy.decide.vms": "count",
    "policy.decide.s": "s",
    "policy.slowdown.calls": "count",
    "policy.slowdown.s": "s",
    "replay.calls": "count",
    "replay.s": "s",
    "replay.self_s": "s",
    "replay.events": "count",
    "replay.events_per_s": "1/s",
    "engine.place.calls": "count",
    "engine.remove.calls": "count",
    "engine.migrate.calls": "count",
    "crossshard.calls": "count",
    "crossshard.s": "s",
    "crossshard.self_s": "s",
    "crossshard.events": "count",
    "crossshard.events_per_s": "1/s",
    "capacity.bisect.calls": "count",
    "capacity.bisect.s": "s",
    "capacity.verdicts": "count",
    "capacity.wait_s": "s",
    "capacity.spec.issued": "count",
    "capacity.spec.hits": "count",
    "capacity.spec.wasted": "count",
    "capacity.spec.hit_rate": "frac",
    "capacity.parent_cpu_s": "s",
    "capacity.worker_cpu_s": "s",
    "qos.ticks": "count",
    "qos.checks": "count",
    "qos.mitigations": "count",
    "qos.failed_mitigations": "count",
    "qos.migrated_gb": "GB",
    "qos.migrate.s": "s",
    "faults.fire.calls": "count",
    "faults.fire.s": "s",
    "faults.retry.s": "s",
    "faults.on_departure.calls": "count",
    "faults.vms_affected": "count",
    "faults.migrated_local": "count",
    "faults.live_migrated": "count",
    "faults.killed": "count",
    "fleet.run.calls": "count",
    "fleet.run.s": "s",
    "fleet.baselines.s": "s",
    "trace.overhead_frac": "frac",
}


def _owner(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _events(result) -> int:
    """Arrivals, departures (one per placed VM) and samples of a replay."""
    return 2 * result.placed_vms + result.rejected_vms + result.n_samples


class LayerTracer:
    """Patches the layer boundaries and records spans and counts."""

    def __init__(self) -> None:
        #: (id, parent id or -1, name, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------
    def _open(self) -> Tuple[int, int, float]:
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, _now()

    def _close(self, name: str, opened: Tuple[int, int, float]) -> None:
        span_id, parent, start = opened
        end = _now()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end))
        self.counts[name + ".calls"] += 1

    def _span(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, opened)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iter(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                opened = self._open()
                try:
                    block = next(blocks, None)
                finally:
                    self._close(name, opened)
                if block is None:
                    return
                self.counts[name + ".vms"] += len(block)
                yield block
        return wrapper

    def _bisect(self, name: str, fn: Callable) -> Callable:
        def wrapper(hi, steps, budget, rejections, *args, **kwargs):
            timed = self._span("capacity.verdict", rejections)
            return self._span(name, fn)(hi, steps, budget, timed,
                                        *args, **kwargs)
        return wrapper

    def _on_result(self, name: str) -> Optional[Callable]:
        counts = self.counts
        if name == "policy.decide":
            def note(pool_gb):
                counts["policy.decide.vms"] += len(pool_gb)
        elif name == "replay":
            def note(result):
                counts["replay.events"] += _events(result)
        elif name == "crossshard":
            def note(results_and_ledger):
                counts["crossshard.events"] += sum(
                    _events(r) for r in results_and_ledger[0])
        else:
            return None
        return note

    # -- patching -------------------------------------------------------------------
    def install(self) -> None:
        for module, cls, attr, name, kind in PATCHES:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            if kind == "count":
                patched = self._count(name, original)
            elif kind == "iter":
                patched = self._iter(name, original)
            elif kind == "bisect":
                patched = self._bisect(name, original)
            else:
                patched = self._span(name, original, self._on_result(name))
            self._originals.append((owner, attr, original))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------------
    def busy_s(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name)

    def self_s(self, name: str) -> float:
        """Span time of ``name`` minus the time its direct child spans cover."""
        durations: Dict[int, float] = {}
        for span_id, _, n, start, end in self.spans:
            if n == name:
                durations[span_id] = end - start
        for _, parent, _, start, end in self.spans:
            if parent in durations:
                durations[parent] -= end - start
        return sum(durations.values())

    def busy_outside_s(self, name: str, outside: Tuple[str, ...]) -> float:
        """Span time of ``name`` not nested under any span named in ``outside``."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for _, parent, n, start, end in self.spans:
            if n != name:
                continue
            while parent != -1 and by_id[parent][2] not in outside:
                parent = by_id[parent][1]
            if parent == -1:
                total += end - start
        return total

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics derived from the recorded spans and counts."""
        c = self.counts
        replay_self = self.self_s("replay")
        cross_self = self.self_s("crossshard")
        return {
            "tracegen.calls": c["tracegen.calls"],
            "tracegen.vms": c["tracegen.vms"],
            "tracegen.s": self.busy_s("tracegen"),
            "policy.decide.calls": c["policy.decide.calls"],
            "policy.decide.vms": c["policy.decide.vms"],
            "policy.decide.s": self.busy_s("policy.decide"),
            "policy.slowdown.calls": c["policy.slowdown.calls"],
            "policy.slowdown.s": self.busy_s("policy.slowdown"),
            "replay.calls": c["replay.calls"],
            "replay.s": self.busy_s("replay"),
            "replay.self_s": replay_self,
            "replay.events": c["replay.events"],
            "replay.events_per_s": (
                c["replay.events"] / replay_self if replay_self > 0 else 0.0),
            "engine.place.calls": c["engine.place.calls"],
            "engine.remove.calls": c["engine.remove.calls"],
            "engine.migrate.calls": c["engine.migrate.calls"],
            "crossshard.calls": c["crossshard.calls"],
            "crossshard.s": self.busy_s("crossshard"),
            "crossshard.self_s": cross_self,
            "crossshard.events": c["crossshard.events"],
            "crossshard.events_per_s": (
                c["crossshard.events"] / cross_self if cross_self > 0 else 0.0),
            "capacity.bisect.calls": c["capacity.bisect.calls"],
            "capacity.bisect.s": self.busy_s("capacity.bisect"),
            "capacity.verdicts": c["capacity.verdict.calls"],
            "capacity.wait_s": self.busy_s("capacity.verdict"),
            "qos.migrate.s": self.busy_outside_s(
                "engine.migrate", ("faults.fire", "faults.retry")),
            "faults.fire.calls": c["faults.fire.calls"],
            "faults.fire.s": self.busy_s("faults.fire"),
            "faults.retry.s": self.busy_s("faults.retry"),
            "faults.on_departure.calls": c["faults.on_departure.calls"],
            "fleet.run.calls": c["fleet.run.calls"],
            "fleet.run.s": self.busy_s("fleet.run"),
            "fleet.baselines.s": self.busy_s("fleet.baselines"),
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line (after the run has ended)."""
        with open(path, "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent,
                                      "name": name, "start": start,
                                      "end": end}) + "\n")


def snapshot() -> Dict[str, object]:
    """The current object behind every patched name, keyed by dotted name.

    Comparing a snapshot taken before :meth:`LayerTracer.install` with one
    taken after :meth:`LayerTracer.restore` shows every name is back.
    """
    return {
        ".".join(filter(None, (module, cls, attr))):
            vars(_owner(module, cls))[attr]
        for module, cls, attr, _, _ in PATCHES
    }
