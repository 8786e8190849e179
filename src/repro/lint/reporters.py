"""The finding reporter: ``path:line:col: CODE message`` text."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.lint.engine import Finding


def render_text(findings: Sequence[Finding], files_scanned: int) -> str:
    """``path:line:col: CODE message`` lines plus a one-line summary."""
    out: List[str] = []
    for f in findings:
        out.append(f"{f.location}: {f.code} {f.message}")
    if findings:
        by_code: Dict[str, int] = {}
        for f in findings:
            by_code[f.code] = by_code.get(f.code, 0) + 1
        breakdown = ", ".join(f"{code}×{n}" for code, n in sorted(by_code.items()))
        out.append("")
        out.append(
            f"{len(findings)} finding(s) in {files_scanned} file(s): {breakdown}"
        )
    else:
        out.append(f"repro.lint: {files_scanned} file(s) clean")
    return "\n".join(out)
