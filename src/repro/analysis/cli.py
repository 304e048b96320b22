"""``python -m repro.analysis`` / ``repro-lint``: the analysis front door.

Subcommands::

    lint [paths...]        determinism lint, diffed against the baseline
    pickle-safety          pool-boundary pickle hazards
    check [paths...]       lint + pickle-safety in one run
    determinism            fault-determinism differential stats (canonical
                           JSONL on stdout; diffed across PYTHONHASHSEED
                           values by CI)
    perf-floors [paths...] BENCH_*.json schema + recorded perf floors
    perf-diff OLD NEW      two perfbench result sets against the bounds of
                           BENCHMARK.json (read from the current directory)
    explain [codes...]     print the rule table (all rules by default)

Exit status is 0 when clean, 1 on findings or failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.findings import (
    BASELINE_DEFAULT,
    Finding,
    diff_against_baseline,
    load_baseline,
    write_baseline,
)

__all__ = ["main"]


def _print_findings(findings: Sequence[Finding], show_hints: bool) -> None:
    for finding in findings:
        print(finding.format(show_hint=show_hints))
        if finding.snippet:
            print(f"    {finding.snippet}")


def _cmd_lint(args) -> int:
    from repro.analysis.det_rules import lint_paths

    findings = lint_paths(args.paths)
    if args.update_baseline:
        write_baseline(findings, args.baseline)
        print(f"baseline updated: {args.baseline} "
              f"({len(findings)} finding(s))")
        return 0
    baseline = load_baseline(args.baseline)
    new = diff_against_baseline(findings, baseline)
    _print_findings(new, show_hints=not args.no_hints)
    covered = len(findings) - len(new)
    if new:
        print(f"\n{len(new)} new finding(s) "
              f"({covered} covered by baseline {args.baseline})")
        print("fix them, suppress with '# repro: noqa <CODE> -- reason', "
              "or (for accepted debt) --update-baseline")
        return 1
    print(f"clean: 0 new findings ({covered} covered by baseline)")
    return 0


def _cmd_pickle_safety(args) -> int:
    from repro.analysis.pickle_safety import DEFAULT_ROOTS, check_pickle_safety

    roots = tuple(args.root) if args.root else DEFAULT_ROOTS
    findings = check_pickle_safety(args.src, roots=roots)
    _print_findings(findings, show_hints=not args.no_hints)
    if findings:
        print(f"\n{len(findings)} pickle-safety finding(s)")
        return 1
    print(f"clean: {len(roots)} pool-boundary root(s) and their closure "
          "are pickle-safe")
    return 0


def _cmd_check(args) -> int:
    status = _cmd_lint(args)
    args.src = "src"
    args.root = ()
    status = _cmd_pickle_safety(args) or status
    return status


def _cmd_determinism(args) -> int:
    from repro.analysis.determinism import run_determinism_check

    return run_determinism_check()


def _cmd_perf_floors(args) -> int:
    from repro.analysis.perf_floors import check_reports

    return check_reports(args.paths, require=args.require)


def _cmd_perf_diff(args) -> int:
    from repro.analysis.perf_diff import perf_diff

    try:
        return perf_diff(args.parent, args.pr)
    except (OSError, ValueError) as exc:
        print(f"perf-diff: {exc}")
        return 1


def _cmd_explain(args) -> int:
    from repro.analysis.det_rules import RULES
    from repro.analysis.pickle_safety import PICKLE_RULES

    table = dict(RULES)
    table.update(PICKLE_RULES)
    table["NOQ001"] = (
        "suppression without codes or a reason",
        "write '# repro: noqa DET00x -- reason'",
    )
    table["NOQ002"] = (
        "suppression matching no finding",
        "the code it excused is gone or moved; delete or move the comment",
    )
    codes = args.codes or sorted(table)
    status = 0
    for code in codes:
        entry = table.get(code.upper())
        if entry is None:
            print(f"{code}: unknown rule code")
            status = 1
            continue
        summary, hint = entry
        print(f"{code.upper()}: {summary}")
        print(f"    {hint}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="project-specific static analysis and runtime checks",
    )
    parser.add_argument("--no-hints", action="store_true",
                        help="omit fix-it hints from finding output")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="determinism lint over source trees")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--baseline", default=BASELINE_DEFAULT,
                      help=f"baseline file (default: {BASELINE_DEFAULT})")
    lint.add_argument("--update-baseline", action="store_true",
                      help="accept current findings as the new baseline")
    lint.set_defaults(func=_cmd_lint)

    pickle_cmd = sub.add_parser(
        "pickle-safety", help="pool-boundary pickle hazard pass")
    pickle_cmd.add_argument("--src", default="src",
                            help="source root to scan (default: src)")
    pickle_cmd.add_argument("--root", action="append", default=[],
                            help="dotted root class (repeatable; default: "
                                 "the built-in pool-boundary set)")
    pickle_cmd.set_defaults(func=_cmd_pickle_safety)

    check = sub.add_parser(
        "check", help="lint + pickle-safety in one run")
    check.add_argument("paths", nargs="*", default=["src"])
    check.add_argument("--baseline", default=BASELINE_DEFAULT)
    check.add_argument("--update-baseline", action="store_true",
                       help=argparse.SUPPRESS)
    check.set_defaults(func=_cmd_check)

    determinism = sub.add_parser(
        "determinism",
        help="fault-determinism differential stats (canonical JSONL)")
    determinism.set_defaults(func=_cmd_determinism)

    floors = sub.add_parser(
        "perf-floors", help="validate BENCH_*.json schema and perf floors")
    floors.add_argument("paths", nargs="*", default=["benchmarks"],
                        help="report files or directories "
                             "(default: benchmarks)")
    floors.add_argument("--require", action="append", default=[],
                        help="benchmark name that must have a report "
                             "(repeatable)")
    floors.set_defaults(func=_cmd_perf_floors)

    diff = sub.add_parser(
        "perf-diff",
        help="compare two perfbench result sets against BENCHMARK.json")
    diff.add_argument("parent", help="directory of <workload>-seed<N>.json "
                                     "results at the parent commit")
    diff.add_argument("pr", help="the same at the changed commit")
    diff.set_defaults(func=_cmd_perf_diff)

    explain = sub.add_parser("explain", help="print the rule table")
    explain.add_argument("codes", nargs="*", help="rule codes (default: all)")
    explain.set_defaults(func=_cmd_explain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
