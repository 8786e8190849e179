"""RL1xx — determinism rules.

The simulator's exploration and replay stack (``repro.core.explore``,
``Simulation.replay``) assumes a *bit-for-bit deterministic* simulation:
the same event list must produce the same trace, the same message ids
and the same value-canonical fingerprints regardless of
``PYTHONHASHSEED``, wall-clock time or interpreter address layout.
These rules guard the ways Python code breaks that (a draw from the
process-global RNG is caught dynamically instead: the seeded traces
pinned by digest in ``tests/test_event_loop.py`` fail on it):

``RL101``
    Wall-clock reads (``time.time``, ``datetime.now``, ...).  Simulated
    time is logical (:mod:`repro.sim.clock`); a wall-clock read makes a
    run irreproducible by construction.

``RL103``
    ``id()`` in a hash- or order-sensitive position (dict key, set
    element, ``hash()`` argument, ``key=id`` sort key).  CPython ids are
    address-dependent: they vary run to run, so any container keyed on
    them iterates — and serializes — differently each run.

``RL110``
    Iterating a hash-ordered container (``set``/``frozenset``) into an
    order-sensitive sink — a send, an ``append``, a ``tuple``/``list``
    materialization, a dict insertion — without ``sorted(...)``.  String
    hashing is randomized per interpreter run, so set iteration order is
    not reproducible; if it reaches message construction or emission
    order, trace replay and fingerprints silently diverge.  Iteration
    into order-*insensitive* consumers (``sum``, ``max``, ``any``,
    ``all``, another set, membership tests) is fine and not flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import (
    ClassInfo,
    FileCtx,
    Finding,
    LintContext,
    Rule,
    annotation_head,
    call_name,
)

WALL_CLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "localtime",
        "gmtime",
        "asctime",
        "ctime",
    }
)
WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

SET_HEADS = frozenset({"Set", "set", "FrozenSet", "frozenset", "AbstractSet", "MutableSet"})

#: call targets whose consumption of an iterable is order-insensitive
ORDER_INSENSITIVE_CALLS = frozenset(
    {
        "set",
        "frozenset",
        "sorted",
        "sum",
        "max",
        "min",
        "any",
        "all",
        "len",
        "Counter",
    }
)

#: method names that mutate an ordered container in-place
ORDERED_MUTATORS = frozenset({"append", "extend", "insert", "appendleft", "push"})

SEND_METHODS = frozenset({"send", "queue_send"})


class WallClockRule(Rule):
    code = "RL101"
    name = "wall-clock"
    summary = "wall-clock read in simulation code"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        # names imported directly: ``from time import time`` etc.
        direct: Set[str] = set()
        for node in ast.walk(fctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    direct.update(
                        a.asname or a.name
                        for a in node.names
                        if a.name in WALL_CLOCK_TIME_FNS
                    )
        for node in ast.walk(fctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in direct:
                yield fctx.finding(
                    self.code,
                    node,
                    f"wall-clock call {func.id}() — simulated time must come "
                    "from the logical clock (repro.sim.clock)",
                )
            elif isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id == "time"
                    and func.attr in WALL_CLOCK_TIME_FNS
                ):
                    yield fctx.finding(
                        self.code,
                        node,
                        f"wall-clock call time.{func.attr}() — simulated time "
                        "must come from the logical clock (repro.sim.clock)",
                    )
                elif func.attr in WALL_CLOCK_DATETIME_FNS and (
                    (isinstance(base, ast.Name) and base.id in ("datetime", "date"))
                    or (
                        isinstance(base, ast.Attribute)
                        and base.attr in ("datetime", "date")
                    )
                ):
                    yield fctx.finding(
                        self.code,
                        node,
                        f"wall-clock call datetime {func.attr}() — executions "
                        "must not observe real time",
                    )


class IdHashRule(Rule):
    code = "RL103"
    name = "id-in-hash-position"
    summary = "id() in a hash- or order-sensitive position"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(fctx.tree):
            if isinstance(node, ast.Call):
                # sorted(..., key=id) / min(..., key=id) / max(..., key=id)
                if call_name(node.func) in ("sorted", "min", "max", "sort"):
                    for kw in node.keywords:
                        if (
                            kw.arg == "key"
                            and isinstance(kw.value, ast.Name)
                            and kw.value.id == "id"
                        ):
                            yield fctx.finding(
                                self.code,
                                kw.value,
                                "key=id sorts by memory address — ordering "
                                "varies run to run",
                            )
                if not (
                    isinstance(node.func, ast.Name) and node.func.id == "id"
                ):
                    continue
                # an id(...) call: inspect where its value flows
                for anc in fctx.ancestors(node):
                    if isinstance(anc, ast.stmt):
                        break
                    if isinstance(anc, (ast.Set, ast.SetComp)):
                        yield fctx.finding(
                            self.code,
                            node,
                            "id() as a set element — membership and iteration "
                            "depend on memory addresses",
                        )
                        break
                    if isinstance(anc, ast.Subscript) and node in ast.walk(anc.slice):
                        yield fctx.finding(
                            self.code,
                            node,
                            "id() as a container key — keys vary run to run",
                        )
                        break
                    if isinstance(anc, ast.Dict) and any(
                        k is not None and node in ast.walk(k) for k in anc.keys
                    ):
                        yield fctx.finding(
                            self.code,
                            node,
                            "id() as a dict key — keys vary run to run",
                        )
                        break
                    if (
                        isinstance(anc, ast.Call)
                        and isinstance(anc.func, ast.Name)
                        and anc.func.id == "hash"
                    ):
                        yield fctx.finding(
                            self.code, node, "hash(id(...)) is address-dependent"
                        )
                        break


# --------------------------------------------------------------------------
# RL110 — hash-ordered iteration
# --------------------------------------------------------------------------


class _FunctionTaint:
    """Flow-insensitive 'is this expression hash-ordered?' oracle.

    Hash-ordered means: iterating it yields elements in hash-table
    order (a ``set``/``frozenset``), which under randomized string
    hashing differs between interpreter runs.  Dicts are insertion-
    ordered and therefore *not* hash-ordered — but a dict *filled while
    iterating a set* inherits the taint (tracked through local
    assignments inside tainted loops).
    """

    def __init__(
        self,
        func: ast.FunctionDef,
        owner: Optional[ClassInfo],
        ctx: LintContext,
    ):
        self.func = func
        self.owner = owner
        self.ctx = ctx
        self.param_class: Dict[str, str] = {}
        self.tainted_names: Set[str] = set()
        args = list(func.args.posonlyargs) + list(func.args.args) + list(
            func.args.kwonlyargs
        )
        for a in args:
            head = annotation_head(a.annotation)
            if head in SET_HEADS:
                self.tainted_names.add(a.arg)
            elif head:
                self.param_class[a.arg] = head
        # flow-insensitive pass: any assignment of a hash-ordered value
        # taints the name for the whole function (iterate to fixpoint so
        # chains like a = set(); b = a propagate)
        for _ in range(4):
            changed = False
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and self.is_hash_ordered(node.value):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name) and tgt.id not in self.tainted_names:
                            self.tainted_names.add(tgt.id)
                            changed = True
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if (
                        annotation_head(node.annotation) in SET_HEADS
                        and node.target.id not in self.tainted_names
                    ):
                        self.tainted_names.add(node.target.id)
                        changed = True
            if not changed:
                break

    # -- classification ----------------------------------------------------

    def _attr_head(self, value: ast.expr, attr: str) -> str:
        index = self.ctx.index
        if isinstance(value, ast.Name):
            if value.id == "self" and self.owner is not None:
                return index.attr_head(self.owner, attr)
            cls_name = self.param_class.get(value.id, "")
            if cls_name:
                ci = index.resolve(cls_name)
                if ci is not None:
                    return index.attr_head(ci, attr)
        return ""

    def _return_head(self, func: ast.expr) -> str:
        """Annotation head of the return type of a resolvable call target."""
        index = self.ctx.index
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self.owner is not None
        ):
            found = index.find_method(self.owner, func.attr)
            if found is not None:
                return annotation_head(found[1].returns)
        return ""

    def is_hash_ordered(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted_names
        if isinstance(expr, ast.Attribute):
            return self._attr_head(expr.value, expr.attr) in SET_HEADS
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_hash_ordered(expr.left) or self.is_hash_ordered(expr.right)
        if isinstance(expr, ast.Call):
            name = call_name(expr.func)
            if name in ("set", "frozenset"):
                return True
            if name == "sorted":
                return False
            if name in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            ) and isinstance(expr.func, ast.Attribute):
                return self.is_hash_ordered(expr.func.value)
            head = self._return_head(expr.func)
            if head in SET_HEADS:
                return True
        return False


def _iter_functions(
    fctx: FileCtx, ctx: LintContext
) -> Iterator[Tuple[ast.FunctionDef, Optional[ClassInfo]]]:
    """Every function in the file, paired with its owning class (if any)."""
    index = ctx.index
    for node in ast.walk(fctx.tree):
        if isinstance(node, ast.FunctionDef):
            owner: Optional[ClassInfo] = None
            parent = fctx.parent(node)
            if isinstance(parent, ast.ClassDef):
                owner = index.resolve(parent.name)
                if owner is not None and owner.rel != fctx.rel:
                    # same-named class in another file: prefer exact match
                    for cand in index.by_name.get(parent.name, []):
                        if cand.rel == fctx.rel:
                            owner = cand
                            break
            yield node, owner


def _body_has_ordered_sink(body: List[ast.stmt], ctx: LintContext) -> Optional[str]:
    """If the loop body feeds an order-sensitive sink, name it."""
    payload_names = {ci.name for ci in ctx.index.payload_classes()}
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = call_name(node.func)
                if name in SEND_METHODS:
                    return f"{name}() (message emission order)"
                if name in ORDERED_MUTATORS:
                    return f".{name}() on an ordered container"
                if name in payload_names:
                    return f"{name}(...) (message construction)"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript):
                        return "container insertion (insertion order escapes)"
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yield (element order escapes)"
    return None


class HashOrderIterationRule(Rule):
    code = "RL110"
    name = "hash-ordered-iteration"
    summary = "unsorted set iteration feeding an order-sensitive sink"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        for func, owner in _iter_functions(fctx, ctx):
            taint = _FunctionTaint(func, owner, ctx)
            yield from self._check_function(fctx, ctx, func, taint)

    def _check_function(
        self,
        fctx: FileCtx,
        ctx: LintContext,
        func: ast.FunctionDef,
        taint: _FunctionTaint,
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            # materializations: tuple(s) / list(s) of a hash-ordered s
            if isinstance(node, ast.Call):
                name = call_name(node.func)
                if (
                    name in ("tuple", "list")
                    and len(node.args) == 1
                    and not node.keywords
                    and taint.is_hash_ordered(node.args[0])
                ):
                    yield fctx.finding(
                        self.code,
                        node,
                        f"{name}() over a set materializes hash order; wrap "
                        "the set in sorted(...)",
                    )
            elif isinstance(node, ast.For) and taint.is_hash_ordered(node.iter):
                sink = _body_has_ordered_sink(node.body, ctx)
                if sink is not None:
                    yield fctx.finding(
                        self.code,
                        node.iter,
                        "iterating a set in hash order into an order-sensitive "
                        f"sink [{sink}]; iterate sorted(...) instead",
                    )
                    # a dict/list filled by this loop inherits the taint
                    for stmt in node.body:
                        for sub in ast.walk(stmt):
                            if isinstance(sub, ast.Assign):
                                for tgt in sub.targets:
                                    if isinstance(tgt, ast.Subscript) and isinstance(
                                        tgt.value, ast.Name
                                    ):
                                        taint.tainted_names.add(tgt.value.id)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                hot = [
                    gen
                    for gen in node.generators
                    if taint.is_hash_ordered(gen.iter)
                ]
                if not hot:
                    continue
                parent = fctx.parent(node)
                if (
                    isinstance(parent, ast.Call)
                    and node in parent.args
                    and call_name(parent.func) in ORDER_INSENSITIVE_CALLS
                ):
                    continue
                if isinstance(node, ast.GeneratorExp) and isinstance(
                    parent, ast.Call
                ) and call_name(parent.func) in ("join",):
                    yield fctx.finding(
                        self.code,
                        node,
                        "join() over a set concatenates in hash order; use "
                        "sorted(...)",
                    )
                    continue
                kind = {
                    ast.ListComp: "list comprehension",
                    ast.GeneratorExp: "generator expression",
                    ast.DictComp: "dict comprehension",
                }[type(node)]
                yield fctx.finding(
                    self.code,
                    node,
                    f"{kind} over a set preserves hash order; iterate "
                    "sorted(...) or feed an order-insensitive consumer",
                )


DETERMINISM_RULES = (
    WallClockRule(),
    IdHashRule(),
    HashOrderIterationRule(),
)
