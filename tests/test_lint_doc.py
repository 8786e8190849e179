"""docs/lint.md's rule catalog and the linter's rules cannot drift apart.

The codes in the first column of every table under ``## Rule catalog``
must be exactly the codes ``rule_catalog()`` lists, so a deleted rule
takes its catalog row with it and a new rule cannot ship undocumented.
"""

import re
from pathlib import Path

from repro.lint import rule_catalog

LINT_MD = Path(__file__).resolve().parent.parent / "docs" / "lint.md"


def test_the_catalog_tables_list_exactly_the_rules():
    documented, in_catalog = set(), False
    for line in LINT_MD.read_text().splitlines():
        if line.startswith("## "):
            in_catalog = line == "## Rule catalog"
        elif in_catalog:
            row = re.match(r"\| (RL\d{3}) \|", line)
            if row:
                documented.add(row[1])
    assert documented == {code for code, _, _ in rule_catalog()}
