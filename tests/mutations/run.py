"""Check that every mutant under ``tests/mutations/`` is caught.

Each ``*.patch`` is a one-hunk change to real code whose header names,
on a ``Caught by:`` line, the test that must fail once it is applied.
Every patch goes onto its own fresh ``git archive`` copy of the
committed tree (``HEAD``), and the named test runs there::

    python tests/mutations/run.py        # or: make mutants

Exit status 0 when every mutant applies cleanly and its test fails
within ``TIME_LIMIT`` seconds; a test still running then is stopped and
the mutant counts as missed (``SLOW``).
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

#: seconds the named test may take to catch its mutant
TIME_LIMIT = 60


def run_mutant(patch: Path) -> bool:
    test = re.search(r"^Caught by: (\S+)$", patch.read_text(), re.M).group(1)
    with tempfile.TemporaryDirectory() as copy:
        tree = subprocess.run(
            ["git", "archive", "HEAD"], cwd=REPO, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", copy], input=tree, check=True)
        applied = subprocess.run(["git", "apply", str(patch)], cwd=copy).returncode == 0
        t0 = time.perf_counter()
        rc = None  # stays None if the patch is stale or the test too slow
        if applied:
            try:
                rc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
                    cwd=copy, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True,
                    timeout=TIME_LIMIT,
                ).returncode
            except subprocess.TimeoutExpired:
                pass
    caught = rc == 1  # pytest's "tests failed"; other codes are errors
    verdict = (
        "caught " if caught else "STALE  " if not applied
        else "SLOW   " if rc is None else "ESCAPED"
    )
    print(f"{verdict} {patch.name} by {test} (rc={rc}, {time.perf_counter() - t0:.1f}s)")
    return caught


def main() -> int:
    patches = sorted(HERE.glob("*.patch"))
    missed = sum(not run_mutant(p) for p in patches)
    print(f"mutants: {len(patches) - missed}/{len(patches)} caught")
    return 1 if missed or not patches else 0


if __name__ == "__main__":
    raise SystemExit(main())
