"""RL5xx — snapshot honesty (dirty-tracking) rules.

The snapshot machinery is a per-component cache keyed on each
:class:`~repro.sim.process.Process`'s and the
:class:`~repro.sim.network.Network`'s ``_version`` counter.  A mutation
that can return without bumping the counter makes the cache serve a
*stale* capture and delta restores keep a component they should reload
— the exploration silently walks the wrong state space and the paper's
Table-1 verdicts drift with no test failing.  These rules machine-check
the contract that used to be a ``docs/extending.md`` checklist, on the
CFG/dataflow core (:mod:`repro.lint.cfg`, :mod:`repro.lint.dataflow`)
with cross-module summaries (:mod:`repro.lint.summaries`).

``RL501``
    A method of a dirty-tracked class (subclass of ``Process`` /
    ``Network``, or anything defining ``mark_dirty``) mutates tracked
    state — attribute assign/augassign/del, a mutating container call
    on state reachable from ``self`` (aliases included), or a call to
    a helper summarized as mutating — and some path from the mutation
    reaches a normal ``return`` without crossing a mark
    (``self.mark_dirty()``, a ``self._version`` bump, or a helper that
    always marks).  Methods the executor already brackets with a bump
    are exempt: ``on_step``/``on_invoke``/anything handed a
    ``StepContext``, closed transitively over ``self.<m>()`` calls per
    concrete subclass.  Paths ending in an explicit ``raise`` are not
    flagged — an aborting path publishes no state.

``RL502``
    ``fp_state()`` or ``__getstate__()`` of a dirty-tracked class
    mutates ``self``, directly or through a helper.  Fingerprints and
    snapshots must observe, never perturb: a mutating observer makes
    exploration counts depend on *when* the cache looked.

``RL503``
    A dirty-tracked class overrides ``__getstate__`` without excluding
    ``_version`` (the counter is identity-local: a restored component
    must not inherit the donor's counter), or overrides
    ``__setstate__`` without resetting ``self._version`` (a restored
    component with no counter silently disables its own dirty
    tracking).  Delegating to ``super()`` counts as handling it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import dirty_mutations
from repro.lint.engine import ClassInfo, Finding, LintContext, Rule
from repro.lint.summaries import (
    EXCLUDED_METHODS,
    MARK,
    MUTATION,
    DirtySummaries,
    build_summaries,
)


def get_summaries(ctx: LintContext) -> DirtySummaries:
    """The per-run summary database, built once and cached on the context."""
    db = getattr(ctx, "_dirty_summaries", None)
    if db is None:
        db = build_summaries(ctx.index)
        ctx._dirty_summaries = db
    return db


def _finding(ci: ClassInfo, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        code=code,
        path=ci.rel,
        line=getattr(node, "lineno", ci.node.lineno),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


class MarkDirtyPathRule(Rule):
    code = "RL501"
    name = "mark-dirty-path"
    summary = "mutation of dirty-tracked state can return without mark_dirty()"

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        db = get_summaries(ctx)
        for ci in db.dirty_classes:
            for mname in sorted(ci.methods):
                if mname in EXCLUDED_METHODS:
                    continue
                if (ci.qualname, mname) in db.covered:
                    continue
                msum = db.methods.get((ci.qualname, mname))
                if msum is None or not msum.mutates:
                    continue
                cfg = db.cfg_for(msum.node)
                kinds = db.classify(msum, cfg)
                muts = {i for i, k in kinds.items() if k == MUTATION}
                marks = {i for i, k in kinds.items() if k == MARK}
                for idx in sorted(dirty_mutations(cfg, muts, marks)):
                    node = cfg.nodes[idx]
                    yield _finding(
                        ci,
                        node.stmt,
                        self.code,
                        f"{ci.name}.{mname} mutates dirty-tracked state but "
                        "can return without mark_dirty()/a self._version "
                        "bump on this path — snapshots and canonical "
                        "fingerprints go stale",
                    )


class FingerprintPurityRule(Rule):
    code = "RL502"
    name = "fingerprint-purity"
    summary = "fp_state()/__getstate__() of a dirty-tracked class mutates self"

    OBSERVERS = ("fp_state", "__getstate__")

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        db = get_summaries(ctx)
        for ci in db.dirty_classes:
            for mname in self.OBSERVERS:
                if mname not in ci.methods:
                    continue
                msum = db.methods.get((ci.qualname, mname))
                if msum is None or not msum.mutates:
                    continue
                yield _finding(
                    ci,
                    msum.node,
                    self.code,
                    f"{ci.name}.{mname} mutates self — snapshot/fingerprint "
                    "observers must be pure, or exploration counts depend on "
                    "when the cache looked",
                )


class VersionCounterRule(Rule):
    code = "RL503"
    name = "version-counter-pickle"
    summary = "__getstate__/__setstate__ override mishandles the _version counter"

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        db = get_summaries(ctx)
        for ci in db.dirty_classes:
            if "__getstate__" in ci.methods:
                fn = ci.methods["__getstate__"]
                if not self._mentions_version(fn) and not self._delegates(
                    fn, "__getstate__"
                ):
                    yield _finding(
                        ci,
                        fn,
                        self.code,
                        f"{ci.name}.__getstate__ does not exclude '_version' "
                        "— the dirty counter is identity-local and must not "
                        "travel with the pickled state",
                    )
            if "__setstate__" in ci.methods:
                fn = ci.methods["__setstate__"]
                if not self._assigns_version(fn) and not self._delegates(
                    fn, "__setstate__"
                ):
                    yield _finding(
                        ci,
                        fn,
                        self.code,
                        f"{ci.name}.__setstate__ does not reset "
                        "self._version — a restored component without a "
                        "counter disables its own dirty tracking",
                    )

    @staticmethod
    def _mentions_version(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Constant) and node.value == "_version":
                return True
        return False

    @staticmethod
    def _assigns_version(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and tgt.attr == "_version"
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        return True
        return False

    @staticmethod
    def _delegates(fn: ast.FunctionDef, name: str) -> bool:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == name
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"
            ):
                return True
        return False


DIRTY_RULES = (
    MarkDirtyPathRule(),
    FingerprintPurityRule(),
    VersionCounterRule(),
)
