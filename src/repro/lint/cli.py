"""``python -m repro.lint`` — the command-line entry point.

Exit codes::

    0   no findings
    1   findings reported
    2   usage error / nothing to lint

Examples::

    python -m repro.lint src/
    python -m repro.lint src benchmarks tests/helpers.py   # make lint
    python -m repro.lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.engine import run_lint
from repro.lint.reporters import render_text
from repro.lint.rules import rule_catalog


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static determinism and simulator-contract linter for the repro tree.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src/)"
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(code) for code, _, _ in rule_catalog())
        for code, name, summary in rule_catalog():
            print(f"{code:<{width}}  {name:<24}  {summary}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro.lint: error: no paths given", file=sys.stderr)
        return 2

    findings, ctx = run_lint(args.paths)
    files_scanned = len(ctx.files)
    if files_scanned == 0 and not findings:
        print("repro.lint: error: no Python files found", file=sys.stderr)
        return 2

    print(render_text(findings, files_scanned))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
