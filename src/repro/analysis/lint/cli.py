"""reprolint CLI: ``python -m repro.analysis.lint [paths...]``.

Exit codes: 0 = no unsuppressed findings (inline ``# repro: allow[CODE]``
waivers are the one way to accept one), 1 = unsuppressed findings, 2 = bad
invocation or unreadable input.  ``--format json`` emits the
machine-readable report (schema documented in docs/STATIC_ANALYSIS.md);
``--out`` additionally writes that JSON to a file regardless of the
terminal format, which is what the CI artifact upload consumes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.lint.engine import Engine, LintReport
from repro.analysis.lint.registry import all_rules

JSON_SCHEMA_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=("reprolint: AST determinism-and-invariants linter "
                     "(rule catalog: docs/STATIC_ANALYSIS.md)"),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format on stdout (default: text)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rule catalog and exit")
    return parser


def _json_report(report: LintReport) -> dict:
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_scanned": report.files_scanned,
        "rules": [rule.code for rule in all_rules()],
        "counts": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
        },
        "by_code": report.by_code,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [f.to_dict() for f in report.suppressed],
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    engine = Engine()
    try:
        report = engine.lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = _json_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for finding in report.findings:
            print(finding.format())
        print(f"{len(report.findings)} finding(s), {len(report.suppressed)} "
              f"suppressed across {report.files_scanned} file(s)")
    return 1 if report.findings else 0
