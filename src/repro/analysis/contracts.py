"""Event-ordering contract checker for the replay pump.

DESIGN.md sections 10-12 promise one tie-breaking contract at equal
timestamps:

    departures -> fault events -> grid sample -> QoS tick -> evacuation
    retries

Differential tests pin the *outputs* of that ordering, but the ordering
itself lives in one hand-scheduled loop -- the ``pump`` of
``pool_topology._replay_crossshard_events``, which also runs every online
or faulted single-cluster replay (a one-shard fleet).  The other loops are
static and precompute their order.  This checker reads the pump's AST and
verifies the documented dispatch order directly, so the docs cannot
silently rot:

========  ==========================================================
``ORD001``  contract anchor missing (function/loop/dispatch not found) --
            the checker fails loudly rather than vacuously passing
``ORD005``  heap kind priorities must order departure < fault < sample <
            horizon < arrival
``ORD006``  pump dispatch must test departure, then fault, then sample
``ORD007``  pump sample arm must run take_sample -> reschedule -> QoS
            tick -> retry tick
========  ==========================================================

Codes ORD002-ORD004 checked the single-cluster online loop, which no
longer exists; they are retired, not reused.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

__all__ = ["ORDER_RULES", "check_contracts", "check_pump"]

ORDER_RULES: Dict[str, Tuple[str, str]] = {
    "ORD001": (
        "contract anchor missing",
        "the loop this contract pins was renamed or restructured; update "
        "repro.analysis.contracts (and DESIGN.md sections 10-12) together "
        "with the loop",
    ),
    "ORD005": (
        "heap kind priorities out of order",
        "the merged heap's total order encodes the tie contract: "
        "_KIND_DEPARTURE < _KIND_FAULT < _KIND_SAMPLE < _KIND_HORIZON < "
        "_KIND_ARRIVAL",
    ),
    "ORD006": (
        "pump dispatch order departure -> fault -> sample",
        "keep the kind dispatch chain aligned with the heap priorities so "
        "readers can audit the contract in one place",
    ),
    "ORD007": (
        "pump sample arm order take_sample -> reschedule -> qos_tick -> "
        "retry_tick",
        "the next grid sample must be rescheduled from the sampled time "
        "before mitigation mutates state; QoS tick precedes the "
        "evacuation-retry tick",
    ),
}

_KIND_ORDER = ("_KIND_DEPARTURE", "_KIND_FAULT", "_KIND_SAMPLE",
               "_KIND_HORIZON", "_KIND_ARRIVAL")


def _find_function(node: ast.AST, name: str) -> Optional[ast.AST]:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and sub.name == name:
            return sub
    return None


def _find_while(node: ast.AST) -> Optional[ast.While]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.While):
            return sub
    return None


def _ordered_calls(nodes: Sequence[ast.AST]) -> List[Tuple[str, int]]:
    """``(callee, lineno)`` for every call, in source (pre-)order."""
    out: List[Tuple[str, int]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                out.append((func.id, node.lineno))
            elif isinstance(func, ast.Attribute):
                out.append((func.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for node in nodes:
        visit(node)
    return out


def _calls_in_order(calls: List[Tuple[str, int]],
                    expected: Sequence[str]) -> bool:
    """True when ``expected`` appears as a subsequence of the call names."""
    position = 0
    for name, _line in calls:
        if position < len(expected) and name == expected[position]:
            position += 1
    return position == len(expected)


def _compare_names(test: ast.expr) -> List[Tuple[str, str, str]]:
    """Flatten ``a <= b``-style comparisons to ``(left, op, right)``."""
    out: List[Tuple[str, str, str]] = []
    for sub in ast.walk(test):
        if (isinstance(sub, ast.Compare) and len(sub.ops) == 1
                and isinstance(sub.left, ast.Name)
                and isinstance(sub.comparators[0], ast.Name)):
            out.append((sub.left.id, type(sub.ops[0]).__name__,
                        sub.comparators[0].id))
    return out


def _anchor_missing(path: str, line: int, what: str) -> Finding:
    return Finding(
        rule="ORD001", path=path, line=line,
        message=f"contract anchor missing: {what}",
        hint=ORDER_RULES["ORD001"][1], snippet=what,
    )


# -- cross-shard merged pump -------------------------------------------------------


def check_pump(path) -> List[Finding]:
    """Verify heap priorities and dispatch order in the cross-shard pump."""
    path = Path(path)
    posix = path.as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    findings: List[Finding] = []

    # ORD005: module-level kind priorities encode the contract.
    kinds: Dict[str, int] = {}
    kind_lines: Dict[str, int] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in _KIND_ORDER
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)):
            kinds[node.targets[0].id] = node.value.value
            kind_lines[node.targets[0].id] = node.lineno
    missing = [name for name in _KIND_ORDER if name not in kinds]
    if missing:
        findings.append(_anchor_missing(
            posix, 1, f"heap kind constants {', '.join(missing)}"))
    else:
        values = [kinds[name] for name in _KIND_ORDER]
        if values != sorted(values) or len(set(values)) != len(values):
            findings.append(Finding(
                rule="ORD005", path=posix,
                line=kind_lines[_KIND_ORDER[0]],
                message="heap kind priorities do not strictly order "
                        "departure < fault < sample < horizon < arrival",
                hint=ORDER_RULES["ORD005"][1],
                snippet=", ".join(f"{k}={kinds[k]}" for k in _KIND_ORDER),
            ))

    outer = _find_function(tree, "_replay_crossshard_events")
    if outer is None:
        findings.append(_anchor_missing(
            posix, 1, "function _replay_crossshard_events"))
        return findings
    pump = _find_function(outer, "pump")
    if pump is None:
        findings.append(_anchor_missing(posix, outer.lineno,
                                        "inner function pump"))
        return findings
    loop = _find_while(pump)
    dispatch = None
    if loop is not None:
        dispatch = next((s for s in loop.body if isinstance(s, ast.If)), None)
    if dispatch is None:
        findings.append(_anchor_missing(
            posix, pump.lineno, "kind dispatch chain in pump"))
        return findings

    # Flatten the elif chain to (kind-constant, body) arms.
    arms: List[Tuple[Optional[str], Sequence[ast.stmt], int]] = []
    node: Optional[ast.stmt] = dispatch
    while isinstance(node, ast.If):
        kind_name = None
        for left, op, right in _compare_names(node.test):
            if op == "Eq" and left == "kind" and right in _KIND_ORDER:
                kind_name = right
        arms.append((kind_name, node.body, node.lineno))
        orelse = node.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            node = orelse[0]
        else:
            arms.append((None, orelse, node.lineno))
            node = None

    tested = [kind for kind, _body, _line in arms if kind is not None]
    if tested != ["_KIND_DEPARTURE", "_KIND_FAULT", "_KIND_SAMPLE"]:
        findings.append(Finding(
            rule="ORD006", path=posix, line=dispatch.lineno,
            message="pump dispatch does not test departure, fault, sample "
                    "in contract order",
            hint=ORDER_RULES["ORD006"][1],
            snippet=" -> ".join(tested) or "(no kind tests found)",
        ))
        return findings

    by_kind = {kind: body for kind, body, _line in arms if kind is not None}
    if not _calls_in_order(_ordered_calls(by_kind["_KIND_FAULT"]),
                           ["fire_next"]):
        findings.append(Finding(
            rule="ORD006", path=posix, line=dispatch.lineno,
            message="pump fault arm does not fire the scheduled event",
            hint=ORDER_RULES["ORD006"][1], snippet="",
        ))
    sample_calls = _ordered_calls(by_kind["_KIND_SAMPLE"])
    if not _calls_in_order(sample_calls,
                           ["take_sample", "heappush", "qos_tick",
                            "retry_tick"]):
        findings.append(Finding(
            rule="ORD007", path=posix, line=dispatch.lineno,
            message="pump sample arm does not run take_sample, reschedule, "
                    "qos_tick, retry_tick in contract order",
            hint=ORDER_RULES["ORD007"][1],
            snippet=" -> ".join(name for name, _ in sample_calls),
        ))
    return findings


def check_contracts(pool_topology_path=None) -> List[Finding]:
    """Check the replay pump; the default path resolves inside the package."""
    if pool_topology_path is None:
        pool_topology_path = (Path(__file__).resolve().parents[1] / "cluster"
                              / "pool_topology.py")
    return check_pump(pool_topology_path)
