"""`reprolint` command line: ``rdf-align lint`` / ``python -m repro.analysis``.

Exit codes: 0 clean (baselined findings allowed), 1 on any new finding
or stale baseline entry, 2 on usage errors.  ``--json`` emits the full
machine-readable result (the CI artifact); the human rendering groups
findings by rule with the grandfathered/stale bookkeeping at the end.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Sequence

from .baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from .framework import AnalysisResult, Finding, registered_rules, run_analysis

#: What `rdf-align lint` checks when no paths are given.
DEFAULT_TARGETS = ("src/repro",)


def build_parser(prog: str = "reprolint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "AST-based invariant checks for the repro tree: determinism, "
            "pool-boundary picklability, shm lifecycle, exception "
            "taxonomy, atomic writes, strict-typing gate"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=f"files or directories to lint (default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable result on stdout (CI artifact)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules with their descriptions and exit",
    )
    return parser


def _render_human(
    result: AnalysisResult,
    new: list[Finding],
    baselined: list[Finding],
    stale: list[dict[str, object]],
) -> str:
    lines: list[str] = []
    for finding in new:
        lines.append(finding.render())
    summary = (
        f"reprolint: {result.files_checked} files, "
        f"{len(result.rules)} rules, {len(new)} finding(s)"
    )
    extras: list[str] = []
    if baselined:
        extras.append(f"{len(baselined)} grandfathered (baseline)")
    if result.suppressed:
        extras.append(f"{result.suppressed} suppressed")
    if extras:
        summary += " (" + ", ".join(extras) + ")"
    lines.append(summary)
    for entry in stale:
        lines.append(
            f"stale baseline entry {entry.get('fingerprint')}: "
            f"{entry.get('rule')} at {entry.get('path')} is fixed — "
            "shrink the baseline (rerun with --update-baseline)"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, cls in registered_rules().items():
            print(f"{rule}: {cls.description}")
        return 0

    rules = None
    if args.rules:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
    targets = args.paths or list(DEFAULT_TARGETS)
    try:
        result = run_analysis(args.root, targets, rules=rules)
    except ValueError as error:
        parser.error(str(error))

    baseline_path = os.path.join(args.root, args.baseline)
    if args.update_baseline:
        save_baseline(baseline_path, result.findings)
        print(
            f"baseline updated: {len(result.findings)} grandfathered "
            f"finding(s) in {args.baseline}"
        )
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    decision = apply_baseline(result.findings, baseline)

    if args.as_json:
        payload = {
            "schema": "repro/reprolint-report",
            "version": 1,
            "files_checked": result.files_checked,
            "rules": list(result.rules),
            "suppressed": result.suppressed,
            "findings": [finding.to_dict() for finding in decision.new],
            "baselined": [finding.to_dict() for finding in decision.baselined],
            "stale_baseline": decision.stale,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            _render_human(result, decision.new, decision.baselined, decision.stale)
        )
    return 1 if decision.new or decision.stale else 0
