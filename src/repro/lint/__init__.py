"""repro.lint — static determinism and simulator-contract linter.

The dynamic layer of this repository checks *executions*: the one-value
monitor counts values on live payloads, the paper ledger measures rounds
and blocking beside every Table-1 claim, the seeded traces are pinned by
digest.  This package is the static layer, cut down to what no execution
in the test suite would catch: wall-clock reads and hash-ordered
iteration leaking into message order, messages or schedule moves minted
outside the sim core, and the claim table's shared buffer touched
outside a ``with`` block on its lock.  It parses the source (stdlib
``ast``) and executes nothing.

Programmatic use::

    from repro.lint import run_lint
    findings, ctx = run_lint(["src/"])

Command line::

    python -m repro.lint src/            # or: make lint
"""

from repro.lint.engine import Finding, LintContext, Rule, run_lint
from repro.lint.rules import ALL_RULES, rule_catalog

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "Rule",
    "rule_catalog",
    "run_lint",
]
