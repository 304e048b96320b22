"""Opt-in runtime sanitizer for the placement engine and pool ledger.

``REPRO_SANITIZE=1`` (see ``repro/__init__.py``) wraps the mutators of
:class:`repro.cluster.engine.ArrayPlacementEngine` and
:class:`repro.cluster.pool_topology.PoolGroupLedger` with invariant checks
that run after every state change:

* **No negative accounting** -- ``pool_used_gb``/``pool_free_gb`` never go
  below the engine's own drift clamp (``-1e-6``).
* **Conservation per group** -- ``free + used == capacity`` for every
  finite, non-degraded pool group.  Degraded groups are exempt *between*
  the unmediated release and the injector's re-clamp (``resync``): that
  transient is part of the documented fault protocol (DESIGN.md section
  11), not a bug.
* **Live-handle consistency** -- ``remove``/``migrate_pool_to_local`` must
  name a live handle (not freed, not out of range), and ``running_vms``
  must equal the number of live handles after every mutation.  This is the
  "no silent kills" check: a double-remove or a stale handle inherited
  across recycling trips immediately instead of corrupting a later VM.

Violations raise :class:`SanitizerError` (an ``AssertionError`` subclass)
at the faulty call, so a tier-1 run under the sanitizer pinpoints the
mutation that broke the ledger rather than the replay that later noticed.

The wrappers only see the engine-method path (the cross-shard events
loop, which also runs every online or faulted single-cluster replay).  The
inlined hot loops (``ClusterSimulator._run_array_calendar``,
``_replay_crossshard_inlined``) bypass them by design; differential tests
pin those byte-identical to the method path, so sanitizing the method path
covers them too.

Overhead is a few dict walks per mutation -- fine for tests, not for
benchmarks; that is why it is opt-in.
"""

from __future__ import annotations

import math
import os
import weakref
from typing import Dict, Optional

__all__ = [
    "SanitizerError",
    "install",
    "uninstall",
    "is_installed",
    "maybe_install_from_env",
]

#: Engine's own negative-drift clamp threshold (engine.remove).
_NEG_TOL = 1e-6
#: Conservation slack: repeated fractional +=/-= drift plus clamp resets.
_CONSERVE_TOL = 1e-3

_TRUTHY = {"1", "true", "yes", "on"}


class SanitizerError(AssertionError):
    """A simulation invariant was violated by the wrapped mutation."""


_installed = False
_originals: Dict[str, object] = {}
#: Live ledgers, so an engine's pool dicts can be matched to their owner.
_ledgers: "weakref.WeakSet" = weakref.WeakSet()
#: Engines without a ledger: per-group capacity snapshot at first sight.
_snapshots: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _find_ledger(engine):
    for ledger in _ledgers:
        if ledger.free_gb is engine.pool_free_gb:
            return ledger
    return None


def _check_non_negative(engine) -> None:
    for group, used in engine.pool_used_gb.items():
        if used < -_NEG_TOL:
            raise SanitizerError(
                f"pool group {group}: used_gb went negative ({used} GB)"
            )
    for group, free in engine.pool_free_gb.items():
        if free < -_NEG_TOL:
            raise SanitizerError(
                f"pool group {group}: free_gb went negative ({free} GB)"
            )


def _check_conservation(engine) -> None:
    ledger = _find_ledger(engine)
    if ledger is not None:
        for group, capacity in ledger.capacity_gb.items():
            if not math.isfinite(capacity) or ledger.is_degraded(group):
                continue
            total = ledger.free_gb[group] + ledger.used_gb[group]
            if abs(total - capacity) > _CONSERVE_TOL:
                raise SanitizerError(
                    f"pool group {group}: free+used={total} GB drifted from "
                    f"capacity={capacity} GB"
                )
        return
    snapshot = _snapshots.get(engine)
    if snapshot is None:
        snapshot = {
            group: engine.pool_free_gb[group] + engine.pool_used_gb[group]
            for group in engine.pool_free_gb
        }
        _snapshots[engine] = snapshot
        return
    for group, expected in snapshot.items():
        if not math.isfinite(expected):
            continue
        total = (engine.pool_free_gb.get(group, 0.0)
                 + engine.pool_used_gb.get(group, 0.0))
        if abs(total - expected) > _CONSERVE_TOL:
            raise SanitizerError(
                f"pool group {group}: free+used={total} GB drifted from "
                f"initial capacity={expected} GB"
            )


def _check_handles(engine) -> None:
    live = len(engine.vm_server) - len(engine._free_handles)
    if engine.running_vms != live:
        raise SanitizerError(
            f"running_vms={engine.running_vms} but {live} handles are live "
            "-- a placement or removal bypassed the accounting"
        )


def _check_live_handle(engine, handle: int, op: str) -> None:
    if not 0 <= handle < len(engine.vm_server):
        raise SanitizerError(f"{op}({handle}): handle out of range")
    if handle in engine._free_handles:
        raise SanitizerError(
            f"{op}({handle}): handle is already free -- double remove or "
            "stale handle reused across recycling (silent kill)"
        )


def _after_engine_mutation(engine) -> None:
    _check_non_negative(engine)
    _check_handles(engine)
    _check_conservation(engine)


def _check_ledger(ledger, group) -> None:
    """Validate the one group a degrade/repair/resync just touched.

    Only that group: the injector re-clamps degraded groups one at a time,
    so a *different* degraded group may legitimately hold unmediated free
    until its own resync call lands.
    """
    if group not in ledger.capacity_gb:
        return
    capacity = ledger.capacity_gb[group]
    used = ledger.used_gb[group]
    free = ledger.free_gb[group]
    if used < -_NEG_TOL or free < -_NEG_TOL:
        raise SanitizerError(
            f"ledger group {group}: negative accounting "
            f"(used={used}, free={free})"
        )
    if math.isfinite(capacity) and free > capacity + _CONSERVE_TOL:
        raise SanitizerError(
            f"ledger group {group}: free={free} GB exceeds "
            f"capacity={capacity} GB"
        )


def install() -> None:
    """Wrap the engine and ledger mutators with invariant checks."""
    global _installed
    if _installed:
        return
    from repro.cluster.engine import ArrayPlacementEngine
    from repro.cluster.pool_topology import PoolGroupLedger

    _originals["place"] = ArrayPlacementEngine.place
    _originals["remove"] = ArrayPlacementEngine.remove
    _originals["migrate"] = ArrayPlacementEngine.migrate_pool_to_local
    _originals["ledger_init"] = PoolGroupLedger.__init__
    _originals["degrade"] = PoolGroupLedger.degrade
    _originals["repair"] = PoolGroupLedger.repair
    _originals["resync"] = PoolGroupLedger.resync

    def place(self, cores, local_gb, pool_gb):
        handle = _originals["place"](self, cores, local_gb, pool_gb)
        if handle >= 0:
            _after_engine_mutation(self)
        return handle

    def remove(self, handle):
        _check_live_handle(self, handle, "remove")
        _originals["remove"](self, handle)
        _after_engine_mutation(self)

    def migrate_pool_to_local(self, handle):
        _check_live_handle(self, handle, "migrate_pool_to_local")
        moved = _originals["migrate"](self, handle)
        _after_engine_mutation(self)
        return moved

    def ledger_init(self, capacities):
        _originals["ledger_init"](self, capacities)
        _ledgers.add(self)

    def _wrap_ledger(name):
        def wrapped(self, group, *args, **kwargs):
            result = _originals[name](self, group, *args, **kwargs)
            _check_ledger(self, group)
            return result
        wrapped.__name__ = name
        return wrapped

    ArrayPlacementEngine.place = place
    ArrayPlacementEngine.remove = remove
    ArrayPlacementEngine.migrate_pool_to_local = migrate_pool_to_local
    PoolGroupLedger.__init__ = ledger_init
    PoolGroupLedger.degrade = _wrap_ledger("degrade")
    PoolGroupLedger.repair = _wrap_ledger("repair")
    PoolGroupLedger.resync = _wrap_ledger("resync")
    _installed = True


def uninstall() -> None:
    """Restore the unwrapped mutators (test teardown)."""
    global _installed
    if not _installed:
        return
    from repro.cluster.engine import ArrayPlacementEngine
    from repro.cluster.pool_topology import PoolGroupLedger

    ArrayPlacementEngine.place = _originals["place"]
    ArrayPlacementEngine.remove = _originals["remove"]
    ArrayPlacementEngine.migrate_pool_to_local = _originals["migrate"]
    PoolGroupLedger.__init__ = _originals["ledger_init"]
    PoolGroupLedger.degrade = _originals["degrade"]
    PoolGroupLedger.repair = _originals["repair"]
    PoolGroupLedger.resync = _originals["resync"]
    _originals.clear()
    _installed = False


def is_installed() -> bool:
    return _installed


def maybe_install_from_env(env: Optional[Dict[str, str]] = None) -> bool:
    """Install when ``REPRO_SANITIZE`` is set truthy; returns whether on.

    Called from ``repro/__init__``, so worker processes spawned by the
    process pools inherit the sanitizer through the environment.
    """
    value = (env or os.environ).get("REPRO_SANITIZE", "")
    if value.strip().lower() in _TRUTHY:
        install()
        return True
    return False
