"""The rule registry: every rule, in documentation order.

Rule modules export a tuple of rule *instances*; this module strings
them together so the engine, CLI and docs all see the same list.  The
rule families:

==========  ============================================
``RL0xx``   the linter itself (parse errors, suppressions)
``RL1xx``   determinism (:mod:`repro.lint.rules_determinism`)
``RL4xx``   simulator purity (:mod:`repro.lint.rules_purity`)
``RL6xx``   concurrency discipline (:mod:`repro.lint.rules_locks`)
==========  ============================================

Every rule is a syntactic or flow-insensitive check over one file's
``ast`` plus the cross-file class index.  The numbering has gaps: a
rule stays only if it has ever fired on real code in this repository's
history or is the only guard of what it checks
(``docs/lint.md`` has the yield table and names the tier-1 test that
owns each retired rule's subject).
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.engine import Rule
from repro.lint.rules_determinism import DETERMINISM_RULES
from repro.lint.rules_locks import LOCK_RULES
from repro.lint.rules_purity import PURITY_RULES

ALL_RULES: Tuple[Rule, ...] = DETERMINISM_RULES + PURITY_RULES + LOCK_RULES

#: codes emitted by the engine itself, not by a Rule subclass
ENGINE_CODES = {
    "RL000": "file cannot be read or parsed",
    "RL001": "suppression without justification / malformed code",
}


def rule_catalog() -> Tuple[Tuple[str, str, str], ...]:
    """(code, name, summary) for every rule, engine codes included."""
    rows = [(code, "engine", summary) for code, summary in sorted(ENGINE_CODES.items())]
    rows.extend((r.code, r.name, r.summary) for r in ALL_RULES)
    rows.sort(key=lambda row: row[0])
    return tuple(rows)
