"""The lint engine: findings, suppressions, the project index, the driver.

``repro.lint`` is a *determinism and simulator-contract* linter: it
checks the source against the invariants the exploration stack assumes
and no execution of the test suite would trip — PYTHONHASHSEED-
independent execution, messages and schedule moves minted only by the
sim core, and lock discipline around the shared claim table.  Nothing
under analysis is imported or executed.  (What the paper's Table 1
claims per protocol is *measured*, by the ledger and the tier-1 tests
``docs/lint.md`` names.)

Architecture
------------

* :class:`Finding` — one diagnostic, addressed by ``(path, line, col)``
  with a stable rule code (``RL1xx`` determinism, ``RL4xx`` simulator
  purity, ``RL6xx`` concurrency discipline).
* :class:`FileCtx` — a parsed file: source text, AST (with parent
  links), and the suppressions declared in comments.
* :class:`ProjectIndex` — a cross-file class index (name → bases →
  methods → annotations) so rules can reason about inheritance without
  importing the code under analysis.
* :func:`run_lint` — parse, index, run every rule, filter suppressed
  findings, return the rest sorted.

Suppressions
------------

A finding is suppressed by a comment on the same line or on the line
directly above::

    self.clock = time.time()  # repro-lint: disable=RL101 — wall clock is
                              # intentional here: ...

Multiple codes separate with commas.  A suppression **must** carry a
justification after the codes (introduced by ``—``, ``--`` or ``:``);
a bare suppression still silences its target but is itself reported as
``RL001`` so that unexplained exemptions cannot accumulate.  Only real
comments count (``tokenize`` COMMENT tokens): the example above, or a
``disable=`` inside any string literal, suppresses nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

#: codes that may never be suppressed (the suppression meta-rule)
UNSUPPRESSABLE = ("RL001",)

#: per-directory rule policies: a finding whose path contains the
#: directory segment is dropped when its code matches one of the
#: prefixes.  Benchmarks measure wall time by design, so the
#: determinism family stays src-only.
DEFAULT_DIR_POLICIES: Mapping[str, Tuple[str, ...]] = {
    "benchmarks": ("RL1",),
}

CODE_RE = re.compile(r"^RL\d{3}$")

SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9]+(?:\s*,\s*[A-Za-z0-9]+)*)\s*(.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    code: str
    path: str
    line: int
    col: int
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


@dataclass
class Suppression:
    """A parsed ``# repro-lint: disable=...`` comment."""

    line: int            #: line the comment sits on (1-based)
    target_line: int     #: line the suppression applies to
    codes: Tuple[str, ...]
    reason: str

    @property
    def has_reason(self) -> bool:
        return bool(self.reason)


_LAYOUT_TOKENS = frozenset(
    {
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
)


def _parse_suppressions(text: str) -> List[Suppression]:
    """The suppressions in ``text`` (which must tokenize: callers parse first).

    Read off COMMENT tokens, so the same characters inside a string
    literal or a docstring are inert.
    """
    if "repro-lint:" not in text:  # tokenize is slow; most files have none
        return []
    comments: List[tokenize.TokenInfo] = []
    code_lines: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.append(tok)
        elif tok.type not in _LAYOUT_TOKENS:
            code_lines.update(range(tok.start[0], tok.end[0] + 1))
    out: List[Suppression] = []
    for tok in comments:
        m = SUPPRESS_RE.search(tok.string)
        if m is None:
            continue
        codes = tuple(c.strip().upper() for c in m.group(1).split(","))
        reason = m.group(2).strip().lstrip("—-–: ").strip()
        line = tok.start[0]
        target = line
        if line not in code_lines:
            # standalone comment: applies to the next code-bearing line
            target = min((n for n in code_lines if n > line), default=line)
        out.append(
            Suppression(line=line, target_line=target, codes=codes, reason=reason)
        )
    return out


class FileCtx:
    """A parsed source file plus its lint bookkeeping."""

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            self.parse_error = exc
        self.suppressions = (
            _parse_suppressions(text) if self.tree is not None else []
        )
        self._suppressed: Dict[int, Set[str]] = {}
        for sup in self.suppressions:
            self._suppressed.setdefault(sup.target_line, set()).update(sup.codes)
        if self.tree is not None:
            self.parents: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self.parents[child] = parent

    # -- suppression queries ------------------------------------------------

    def is_suppressed(self, code: str, line: int) -> bool:
        if code in UNSUPPRESSABLE:
            return False
        return code in self._suppressed.get(line, ())

    # -- AST helpers --------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=code,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


# --------------------------------------------------------------------------
# project-wide class index
# --------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """Statically gathered facts about one class definition."""

    name: str
    module: str           #: dotted module ("repro.protocols.cops")
    rel: str              #: path relative to the lint root
    node: ast.ClassDef
    base_names: Tuple[str, ...] = ()
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: class-level and ``self.x`` annotations: attr name -> annotation head
    attr_heads: Dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


def annotation_head(node: Optional[ast.AST]) -> str:
    """The outermost constructor of a type annotation (``Dict[...]`` → ``Dict``)."""
    if node is None:
        return ""
    if isinstance(node, ast.Subscript):
        return annotation_head(node.value)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: take the head token
        head = re.split(r"[\[\s]", node.value, maxsplit=1)[0]
        return head.strip()
    return ""


def call_name(func: ast.expr) -> str:
    """The bare name a call targets: ``f(...)`` → ``f``, ``a.b.f(...)`` → ``f``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _base_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):  # Generic[...] style
        return _base_name(expr.value)
    return ""


def _collect_class(ci: ClassInfo) -> None:
    node = ci.node
    ci.base_names = tuple(n for n in (_base_name(b) for b in node.bases) if n)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ci.methods[stmt.name] = stmt  # type: ignore[assignment]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ci.attr_heads[stmt.target.id] = annotation_head(stmt.annotation)
    # ``self.x: T = ...`` annotations anywhere in the class's methods
    for meth in ci.methods.values():
        for sub in ast.walk(meth):
            if (
                isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Attribute)
                and isinstance(sub.target.value, ast.Name)
                and sub.target.value.id == "self"
            ):
                ci.attr_heads.setdefault(
                    sub.target.attr, annotation_head(sub.annotation)
                )


class ProjectIndex:
    """Cross-file class hierarchy for the linted tree."""

    def __init__(self) -> None:
        self.by_name: Dict[str, List[ClassInfo]] = {}

    @classmethod
    def build(cls, files: Sequence[FileCtx]) -> "ProjectIndex":
        index = cls()
        for fctx in files:
            if fctx.tree is None:
                continue
            module = module_name(fctx.rel)
            for node in ast.walk(fctx.tree):
                if isinstance(node, ast.ClassDef):
                    ci = ClassInfo(
                        name=node.name, module=module, rel=fctx.rel, node=node
                    )
                    _collect_class(ci)
                    index.by_name.setdefault(node.name, []).append(ci)
        return index

    def resolve(self, name: str, prefer_module: str = "") -> Optional[ClassInfo]:
        cands = self.by_name.get(name)
        if not cands:
            return None
        if prefer_module:
            for ci in cands:
                if ci.module == prefer_module:
                    return ci
        return cands[0]

    def mro(self, ci: ClassInfo) -> List[ClassInfo]:
        """Left-to-right DFS linearization (a practical MRO approximation)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()

        def visit(c: ClassInfo) -> None:
            if c.qualname in seen:
                return
            seen.add(c.qualname)
            out.append(c)
            for base in c.base_names:
                resolved = self.resolve(base, prefer_module=c.module)
                if resolved is not None:
                    visit(resolved)

        visit(ci)
        return out

    def is_subclass(self, ci: ClassInfo, root: str) -> bool:
        """Whether ``root`` (a simple class name) appears in the base chain."""
        if ci.name == root:
            return True
        for c in self.mro(ci):
            if c.name == root or root in c.base_names:
                return True
        return False

    def find_method(
        self, ci: ClassInfo, name: str
    ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        for c in self.mro(ci):
            if name in c.methods:
                return c, c.methods[name]
        return None

    def attr_head(self, ci: ClassInfo, attr: str) -> str:
        for c in self.mro(ci):
            head = c.attr_heads.get(attr)
            if head:
                return head
        return ""

    def payload_classes(self) -> List[ClassInfo]:
        out = []
        for name in sorted(self.by_name):
            for ci in self.by_name[name]:
                if ci.name != "Payload" and self.is_subclass(ci, "Payload"):
                    out.append(ci)
        return out


def module_name(rel: str) -> str:
    """Dotted module of a linted path (``src/repro/sim/x.py`` → ``repro.sim.x``)."""
    parts = Path(rel).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# --------------------------------------------------------------------------
# rules and the driver
# --------------------------------------------------------------------------


class Rule:
    """Base class: one rule, one primary code.

    ``check_file`` runs once per file, with the whole project's class
    index at hand for cross-file reasoning.
    """

    code = "RL000"
    name = "unnamed"
    summary = ""

    def check_file(self, fctx: FileCtx, ctx: "LintContext") -> Iterator[Finding]:
        return iter(())


@dataclass
class LintContext:
    """Everything a rule may consult."""

    files: List[FileCtx]
    index: ProjectIndex


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.py") if "__pycache__" not in q.parts))
        elif p.suffix == ".py":
            out.append(p)
    # de-duplicate, keep deterministic order
    seen: Set[str] = set()
    unique: List[Path] = []
    for p in out:
        key = str(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], LintContext]:
    """Lint ``paths`` with ``rules`` (default: every rule) and return
    (findings, context); :data:`DEFAULT_DIR_POLICIES` applies."""
    if rules is None:
        from repro.lint.rules import ALL_RULES

        rules = ALL_RULES
    files: List[FileCtx] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(
                Finding("RL000", str(path), 1, 1, f"cannot read file: {exc}")
            )
            continue
        fctx = FileCtx(path, str(path), text)
        if fctx.parse_error is not None:
            findings.append(
                Finding(
                    "RL000",
                    fctx.rel,
                    fctx.parse_error.lineno or 1,
                    (fctx.parse_error.offset or 0) + 1,
                    f"syntax error: {fctx.parse_error.msg}",
                )
            )
            continue
        files.append(fctx)

    ctx = LintContext(files=files, index=ProjectIndex.build(files))

    for fctx in files:
        # the suppression meta-rule: justifications are not optional
        for sup in fctx.suppressions:
            if not sup.has_reason:
                findings.append(
                    Finding(
                        "RL001",
                        fctx.rel,
                        sup.line,
                        1,
                        "suppression without justification: write "
                        "`# repro-lint: disable=<CODE> — <why this is safe>`",
                    )
                )
            for code in sup.codes:
                if not CODE_RE.match(code):
                    findings.append(
                        Finding(
                            "RL001",
                            fctx.rel,
                            sup.line,
                            1,
                            f"suppression names malformed code {code!r}",
                        )
                    )
        for rule in rules:
            findings.extend(rule.check_file(fctx, ctx))

    by_rel = {f.rel: f for f in files}
    kept: List[Finding] = []
    for finding in findings:
        fctx = by_rel.get(finding.path)
        if fctx is not None and fctx.is_suppressed(finding.code, finding.line):
            continue
        parts = Path(finding.path).parts
        if any(
            segment in parts and finding.code.startswith(prefixes)
            for segment, prefixes in DEFAULT_DIR_POLICIES.items()
        ):
            continue
        kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept, ctx
