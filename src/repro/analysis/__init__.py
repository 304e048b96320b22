"""Project-specific static analysis: determinism lint, pickle safety, sanitizer.

Every correctness incident in this repo's history was a determinism or
invariant bug found *after* it shipped: ``id()``-keyed dimensioner caches
(PR 1), ``PYTHONHASHSEED``-dependent ``hash()`` policy draws (PR 2), stale
pickle fingerprints from RNG scratch (PR 8), ledger drift clamps (PR 9).
This package catches that bug class at lint time instead of at differential-
test time.  Three layers:

* :mod:`repro.analysis.det_rules` -- the determinism lint: an AST pass over
  library code flagging ``hash()``/``id()`` used as keys or fingerprints,
  unseeded (or silently optional-seeded) RNG construction, iteration over
  unordered collections feeding ordered output, and wall-clock reads in
  simulation logic.  Rules carry codes (``DET001``...), fix-it hints, inline
  ``# repro: noqa DET00x -- reason`` suppressions, and a checked-in baseline
  so CI fails only on *new* findings.
* :mod:`repro.analysis.pickle_safety` -- the process-pool safety pass: walks
  the static closure of every class shipped across pool boundaries (policy
  factories, probe tasks, fault schedules, fleet shard specs) and flags
  unpicklable or fingerprint-unstable attribute hazards (weakrefs, locks,
  open handles, RNG scratch) on classes lacking ``__getstate__``.
* :mod:`repro.analysis.sanitizer` -- the opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``): invariant-asserting wrappers on
  ``PoolGroupLedger`` / ``ArrayPlacementEngine`` mutators (no negative pool
  usage, free+used conservation per group, live-handle consistency, no
  silent kills).

The CLI front door is ``python -m repro.analysis`` (also installed as
``repro-lint``); it additionally hosts the fault-determinism differential
check (:mod:`repro.analysis.determinism`) and the benchmark-report floor
validation (:mod:`repro.analysis.perf_floors`) that CI previously ran as
ad-hoc scripts.
"""

from repro.analysis.findings import Finding, load_baseline, write_baseline

__all__ = ["Finding", "load_baseline", "write_baseline"]
