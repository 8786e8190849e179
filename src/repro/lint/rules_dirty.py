"""RL5xx — snapshot honesty (the dirty-tracking rule).

The snapshot machinery is a per-component cache keyed on each
:class:`~repro.sim.process.Process`'s and the
:class:`~repro.sim.network.Network`'s ``_version`` counter.  A mutation
that can return without bumping the counter makes the cache serve a
*stale* capture and delta restores keep a component they should reload
— the exploration silently walks the wrong state space and the paper's
Table-1 verdicts drift with no test failing.  RL501 machine-checks
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
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.dataflow import dirty_mutations
from repro.lint.engine import Finding, LintContext, Rule
from repro.lint.summaries import EXCLUDED_METHODS, MARK, MUTATION, build_summaries


class MarkDirtyPathRule(Rule):
    code = "RL501"
    name = "mark-dirty-path"
    summary = "mutation of dirty-tracked state can return without mark_dirty()"

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        db = build_summaries(ctx.index)
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
                    stmt = cfg.nodes[idx].stmt
                    yield Finding(
                        code=self.code,
                        path=ci.rel,
                        line=stmt.lineno,
                        col=stmt.col_offset + 1,
                        message=f"{ci.name}.{mname} mutates dirty-tracked "
                        "state but can return without mark_dirty()/a "
                        "self._version bump on this path — snapshots and "
                        "canonical fingerprints go stale",
                    )


DIRTY_RULES = (MarkDirtyPathRule(),)
