"""Tests for repro.lint: fixtures, suppressions, the reporter, CLI — and the
meta-tests that the repository's own source lints clean with exactly two
pinned suppressions."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, rule_catalog, run_lint
from repro.lint.reporters import render_text

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "lint_fixtures"
SRC = REPO / "src"

FIXTURE_CODES = [
    "RL001",
    "RL101",
    "RL103",
    "RL110",
    "RL402",
    "RL404",
    "RL405",
    "RL601",
    "RL602",
    "RL603",
]


def fixture_for(code: str) -> Path:
    matches = sorted(FIXTURES.glob(f"{code.lower()}_*.py"))
    assert len(matches) == 1, f"expected exactly one fixture for {code}"
    return matches[0]


def lint_paths(*paths):
    findings, ctx = run_lint([str(p) for p in paths])
    return findings


# -- every rule code has a fixture that triggers it -------------------------


@pytest.mark.parametrize("code", FIXTURE_CODES)
def test_fixture_triggers_its_code(code):
    findings = lint_paths(fixture_for(code))
    codes = {f.code for f in findings}
    assert code in codes, f"{fixture_for(code).name} produced {codes}"


@pytest.mark.parametrize("code", FIXTURE_CODES)
def test_cli_exits_nonzero_on_fixture(code):
    proc = _run_cli(str(fixture_for(code)))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert code in proc.stdout


def test_every_rule_code_is_fixture_covered():
    """New rules must ship a fixture: catalog codes ⊆ fixture codes."""
    catalog_codes = {code for code, _, _ in rule_catalog()}
    # RL000 (unreadable/syntax-error file) is exercised separately
    assert catalog_codes - {"RL000"} == set(FIXTURE_CODES)


def test_syntax_error_reported_as_rl000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = lint_paths(bad)
    assert [f.code for f in findings] == ["RL000"]


# -- suppressions -----------------------------------------------------------


def test_justified_suppression_silences_finding():
    assert lint_paths(FIXTURES / "clean_suppressed.py") == []


def test_bare_suppression_silences_target_but_reports_rl001():
    findings = lint_paths(fixture_for("RL001"))
    codes = [f.code for f in findings]
    assert codes == ["RL001"], codes  # RL101 silenced, the bare comment flagged


def test_rl001_cannot_be_suppressed(tmp_path):
    f = tmp_path / "meta.py"
    f.write_text(
        "import time\n"
        "# repro-lint: disable=RL001\n"
        "x = time.time()  # repro-lint: disable=RL101\n"
    )
    codes = [fi.code for fi in lint_paths(f)]
    # both bare suppressions are flagged; neither silences RL001
    assert codes == ["RL001", "RL001"]


def test_suppression_on_line_above(tmp_path):
    f = tmp_path / "above.py"
    f.write_text(
        "import time\n"
        "# repro-lint: disable=RL101 — harness wall time, not sim time\n"
        "x = time.time()\n"
    )
    assert lint_paths(f) == []


def test_suppression_inside_a_string_literal_is_inert(tmp_path):
    """Suppressions are comments, not text."""
    f = tmp_path / "quoted.py"
    f.write_text(
        "import time\n"
        "x = time.time(), '# repro-lint: disable=RL101 — not a comment'\n"
        '"""\n'
        "    y = 1  # repro-lint: disable=RL101 — a docstring example\n"
        '"""\n'
    )
    findings, ctx = run_lint([str(f)])
    assert [fi.code for fi in findings] == ["RL101"]
    assert ctx.files[0].suppressions == []


def test_the_two_suppression_sites_are_pinned():
    """The tree carries exactly two suppressions, each justified; a
    third is a one-line diff here, visible to review."""
    _, ctx = run_lint(
        [str(REPO / p) for p in ("src", "benchmarks", "tests/helpers.py")]
    )
    sites = {
        (Path(fctx.rel).relative_to(REPO).as_posix(), code): sup.has_reason
        for fctx in ctx.files
        for sup in fctx.suppressions
        for code in sup.codes
    }
    assert sites == {
        ("src/repro/engine/core.py", "RL101"): True,
        ("src/repro/sim/snapshot.py", "RL103"): True,
    }


# -- the reporter -----------------------------------------------------------


def test_text_reporter_format():
    findings = lint_paths(fixture_for("RL101"))
    text = render_text(findings, files_scanned=1)
    first = text.splitlines()[0]
    # path:line:col: CODE message
    path, line, col, rest = first.split(":", 3)
    assert path.endswith("rl101_wall_clock.py")
    assert int(line) > 0 and int(col) > 0
    assert rest.strip().startswith("RL101 ")
    assert "finding(s)" in text.splitlines()[-1]


def test_findings_are_sorted_and_stable():
    findings = lint_paths(*(fixture_for(c) for c in ("RL101", "RL103", "RL110")))
    keys = [f.sort_key() for f in findings]
    assert keys == sorted(keys)


# -- CLI --------------------------------------------------------------------


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        # a bare environment, but one that writes no bytecode into src/
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )


def test_cli_clean_file_exits_zero():
    proc = _run_cli(str(FIXTURES / "clean_suppressed.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_no_paths_exits_two():
    assert _run_cli().returncode == 2


def test_cli_nothing_to_lint_exits_two(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _run_cli(str(empty)).returncode == 2


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for code in FIXTURE_CODES:
        assert code in proc.stdout


# -- the meta-test: this repository lints clean -----------------------------


def test_repository_source_is_lint_clean():
    findings = lint_paths(SRC)
    assert findings == [], "\n".join(
        f"{f.location}: {f.code} {f.message}" for f in findings
    )


def test_rule_codes_unique_and_well_formed():
    codes = [r.code for r in ALL_RULES]
    assert len(codes) == len(set(codes))
    for code in codes:
        assert code.startswith("RL") and len(code) == 5 and code[2:].isdigit()
