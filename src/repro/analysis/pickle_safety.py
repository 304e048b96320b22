"""Pickle/process-pool safety pass over pool-boundary classes.

Fleet runs and capacity probes ship objects into ``ProcessPoolExecutor``
workers (every argument of ``fleet._run_component``), and probe
memoisation fingerprints are built from *pickled model state*.  Two ways
that goes wrong:

* the pickle fails outright (weakrefs, locks, executors, open handles,
  generators), typically only at fleet scale when the pool path first runs;
* the pickle succeeds but is *unstable* -- fit/predict scratch such as RNG
  state rides along, so two pickles of the same trained model differ and
  value-based fingerprints churn (PR 8's ``_flat``/``_rng`` incident,
  fixed by ``DecisionTree.__getstate__``).

This pass is static: it walks the attribute closure of a set of root
classes (those argument types and the policy factories) across
the source tree and flags hazardous attribute assignments on classes that
do **not** define ``__getstate__``/``__reduce__``.  Classes that do are
trusted to scrub their own state and are not traversed further.

Rules:

========  ==========================================================
``PCK001``  weakref attribute (cannot pickle; dies silently on the far side)
``PCK002``  lock / event / thread / executor attribute (cannot pickle)
``PCK003``  open handle, ``iter(...)`` or generator attribute (cannot pickle)
``PCK004``  RNG attribute without ``__getstate__`` (pickles, but makes the
            pickled state fingerprint-unstable)
``PCK005``  root class not found under the scanned source tree
========  ==========================================================

Findings honour the same ``# repro: noqa PCK00x -- reason`` inline
suppressions as the determinism lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, apply_suppressions

__all__ = [
    "PICKLE_RULES",
    "DEFAULT_ROOTS",
    "build_registry",
    "check_pickle_safety",
]

PICKLE_RULES: Dict[str, Tuple[str, str]] = {
    "PCK001": (
        "weakref attribute on a pool-boundary class",
        "weakrefs cannot pickle; rebuild the ref on the worker side or "
        "drop it in __getstate__",
    ),
    "PCK002": (
        "lock/thread/executor attribute on a pool-boundary class",
        "synchronisation primitives and executors cannot pickle; create "
        "them lazily per-process instead of storing them",
    ),
    "PCK003": (
        "open handle or generator attribute on a pool-boundary class",
        "handles and generators cannot pickle; store the path/spec and "
        "reopen (or re-iterate) on the worker side",
    ),
    "PCK004": (
        "RNG attribute on a pool-boundary class without __getstate__",
        "RNG state pickles but differs run-to-run, destabilising "
        "value-based fingerprints; scrub it in __getstate__ like "
        "repro.ml.tree.DecisionTree",
    ),
    "PCK005": (
        "pool-boundary root class not found",
        "update DEFAULT_ROOTS in repro.analysis.pickle_safety (or the "
        "--root arguments) to match the renamed/moved class",
    ),
}

#: Classes shipped across process-pool boundaries today: the argument types
#: of a fleet component task (every trace input included), the results a
#: component task or capacity probe sends back (with their stats blocks)
#: and every class reachable from their fields, plus the policies factories
#: build.
DEFAULT_ROOTS: Tuple[str, ...] = (
    "repro.cluster.faults.FaultSchedule",
    "repro.cluster.fleet.CapacityProbeOutcome",
    "repro.cluster.fleet.FleetShardResult",
    "repro.cluster.pool_topology.PoolTopology",
    "repro.cluster.trace.ClusterTrace",
    "repro.cluster.trace.MaterializedTraceStream",
    "repro.cluster.trace.CsvTraceStream",
    "repro.cluster.tracegen.GeneratedTraceStream",
    "repro.cluster.tracegen.TraceGenConfig",
    "repro.cluster.server.ServerConfig",
    "repro.core.control_plane.online.OnlineControlConfig",
    "repro.core.policies.AllLocalPolicy",
    "repro.core.policies.StaticFractionPolicy",
    "repro.core.policies.PondTracePolicy",
    "repro.core.policies.PredictionPolicy",
)

_WEAKREF_NAMES = {"ref", "proxy", "WeakValueDictionary", "WeakKeyDictionary",
                  "WeakSet", "WeakMethod"}
_SYNC_NAMES = {"Lock", "RLock", "Condition", "Event", "Semaphore",
               "BoundedSemaphore", "Barrier", "Thread",
               "ProcessPoolExecutor", "ThreadPoolExecutor"}
_RNG_NAMES = {"default_rng", "Random", "RandomState", "Generator"}


@dataclass
class _ClassInfo:
    name: str
    module: str  #: dotted module name
    path: str  #: posix source path
    node: ast.ClassDef
    controls_state: bool = False  #: defines __getstate__ or __reduce__
    #: (attr name, lineno, value expr or None, annotation expr or None)
    attrs: List[Tuple[str, int, Optional[ast.expr], Optional[ast.expr]]] = \
        field(default_factory=list)
    bases: List[str] = field(default_factory=list)


def _call_name(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _collect_attrs(info: _ClassInfo) -> None:
    """Record dataclass fields and ``self.x = ...`` assignments."""
    for stmt in info.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.attrs.append(
                (stmt.target.id, stmt.lineno, stmt.value, stmt.annotation)
            )
    for stmt in ast.walk(info.node):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                info.attrs.append((target.attr, stmt.lineno, value, None))


def build_registry(src_root) -> Dict[str, List[_ClassInfo]]:
    """Scan ``src_root`` and index every class by bare name."""
    src_root = Path(src_root)
    registry: Dict[str, List[_ClassInfo]] = {}
    for file in sorted(src_root.rglob("*.py")):
        rel = file.relative_to(src_root)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        tree = ast.parse(file.read_text(), filename=str(file))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassInfo(name=node.name, module=module,
                              path=file.as_posix(), node=node)
            info.controls_state = any(
                isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                and s.name in ("__getstate__", "__reduce__")
                for s in node.body
            )
            info.bases = [
                b.id if isinstance(b, ast.Name) else b.attr
                for b in node.bases
                if isinstance(b, (ast.Name, ast.Attribute))
            ]
            _collect_attrs(info)
            registry.setdefault(node.name, []).append(info)
    return registry


def _resolve(registry: Dict[str, List[_ClassInfo]], name: str,
             from_module: Optional[str] = None) -> Optional[_ClassInfo]:
    """Resolve a bare class name, preferring the referrer's own module."""
    candidates = registry.get(name)
    if not candidates:
        return None
    if from_module is not None:
        for info in candidates:
            if info.module == from_module:
                return info
    if len(candidates) == 1:
        return candidates[0]
    return None  # ambiguous cross-module bare name: do not guess


def _annotation_names(node: Optional[ast.expr]) -> Set[str]:
    """Class names referenced by an annotation (handles string annotations)."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return set()
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _hazard(value: Optional[ast.expr]) -> Optional[Tuple[str, str]]:
    """Classify an assigned expression; returns ``(rule, what)`` or None."""
    if value is None:
        return None
    for sub in ast.walk(value):
        name = _call_name(sub)
        if name in _WEAKREF_NAMES:
            return "PCK001", f"weakref ({name})"
        if name in _SYNC_NAMES:
            return "PCK002", f"unpicklable primitive ({name})"
        if name in _RNG_NAMES:
            return "PCK004", f"RNG ({name})"
    # Open handles and generators are hazards only when *stored*; one fed
    # straight into tuple(...)/list(...)/"".join(...) etc. is consumed
    # before the attribute exists, so only the top-level expression counts.
    top = _call_name(value)
    if top in ("open", "iter"):
        return "PCK003", f"{top}() result"
    if isinstance(value, ast.GeneratorExp):
        return "PCK003", "generator expression"
    return None


def check_pickle_safety(
    src_root, roots: Sequence[str] = DEFAULT_ROOTS, suppress: bool = True
) -> List[Finding]:
    """Walk the closure of ``roots`` and return hazard findings."""
    src_root = Path(src_root)
    registry = build_registry(src_root)
    findings: List[Finding] = []

    queue: List[_ClassInfo] = []
    seen: Set[Tuple[str, str]] = set()
    for dotted in roots:
        module, _, name = dotted.rpartition(".")
        info = _resolve(registry, name, from_module=module)
        if info is None or info.module != module:
            findings.append(Finding(
                rule="PCK005", path=src_root.as_posix(), line=1,
                message=f"root class {dotted!r} not found under "
                        f"{src_root.as_posix()}",
                hint=PICKLE_RULES["PCK005"][1], snippet=dotted,
            ))
            continue
        queue.append(info)

    closure: List[_ClassInfo] = []
    while queue:
        info = queue.pop()
        key = (info.module, info.name)
        if key in seen:
            continue
        seen.add(key)
        closure.append(info)
        # Traverse edges: base classes, attribute constructor calls, and
        # annotated field types that name classes of ours.
        edge_names: Set[str] = set(info.bases)
        for _attr, _line, value, annotation in info.attrs:
            edge_names |= _annotation_names(annotation)
            if value is not None:
                call = _call_name(value)
                if call is not None:
                    edge_names.add(call)
        for name in edge_names:
            target = _resolve(registry, name, from_module=info.module)
            if target is None:
                for candidates in (registry.get(name) or [],):
                    if len(candidates) == 1:
                        target = candidates[0]
            if target is not None:
                queue.append(target)

    per_file: Dict[str, List[Finding]] = {}
    for info in closure:
        if info.controls_state:
            continue  # __getstate__/__reduce__ owns its pickled state
        for attr, lineno, value, annotation in info.attrs:
            hazard = _hazard(value)
            if hazard is None:
                continue
            rule, what = hazard
            per_file.setdefault(info.path, []).append(Finding(
                rule=rule, path=info.path, line=lineno,
                message=f"{info.name}.{attr} holds a {what}; {info.name} "
                        "crosses a process-pool boundary and has no "
                        "__getstate__",
                hint=PICKLE_RULES[rule][1],
                snippet="",  # filled below from source
            ))

    for path, file_findings in sorted(per_file.items()):
        source = Path(path).read_text()
        lines = source.splitlines()
        filled = [
            Finding(rule=f.rule, path=f.path, line=f.line, message=f.message,
                    hint=f.hint,
                    snippet=lines[f.line - 1].strip()
                    if 1 <= f.line <= len(lines) else "")
            for f in file_findings
        ]
        if suppress:
            filled = apply_suppressions(filled, source, path,
                                        known=set(PICKLE_RULES))
        findings.extend(filled)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
