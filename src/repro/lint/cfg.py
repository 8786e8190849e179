"""A statement-level control-flow graph over stdlib ``ast``.

The flow-sensitive lock-discipline rule (RL601) needs to reason about
*paths* — "is this buffer access dominated by a lock acquire?".  This
module builds the graph that question is asked on; the solver lives in
:mod:`repro.lint.dataflow`.

Design, deliberately modest:

* **Statement granularity.**  One node per executable statement.  A
  compound statement contributes the node for the part evaluated *at*
  that point — an ``if``/``while`` node stands for its test, a ``for``
  node for its iterator, a ``with`` node for entering its contexts —
  and its body statements get their own nodes.  Rules that classify a
  node must therefore look only at the statement's *own* expressions
  (:func:`own_exprs`), never ``ast.walk`` the whole subtree.
* **Three distinguished nodes.**  ``entry`` (before the first
  statement), ``exit`` (every normal return path), and ``raise_exit``
  (explicit ``raise`` paths).  Falling off the end of the body flows to
  ``exit``; ``return`` threads any enclosing ``finally`` bodies (and
  ``with`` exits) and then flows to ``exit``.
* **``finally`` by jump threading.**  A ``return``/``break``/
  ``continue``/``raise`` that escapes a ``try ... finally`` executes a
  *fresh copy* of the finally body on its way out, exactly like the
  interpreter does.  ``with`` blocks are treated as ``try/finally``
  sugar: a synthetic ``with_exit`` node (the ``__exit__`` call) runs on
  both the fall-through and the jump-out paths.
* **Coarse exception edges.**  Every statement inside a ``try`` body
  may raise: each body node gets an edge to every handler entry.  That
  over-approximates (a plain assignment rarely raises) in exactly the
  safe direction for the rule built on top — more paths can only make
  a must-analysis (lock held) more conservative.  Uncaught exceptions
  escaping through a ``finally`` are *not* modelled; the rule draws no
  conclusions from implicit exception exits.

Nested ``def``/``class``/``lambda`` bodies are opaque single nodes —
the analysis is intraprocedural.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: node kinds
ENTRY = "entry"
EXIT = "exit"
RAISE_EXIT = "raise_exit"
STMT = "stmt"
WITH_ENTER = "with_enter"
WITH_EXIT = "with_exit"
EXCEPT = "except"


class CFGNode:
    """One node: a statement (or synthetic point) plus its edges."""

    __slots__ = ("idx", "kind", "stmt", "succs", "preds")

    def __init__(self, idx: int, kind: str, stmt: Optional[ast.stmt]):
        self.idx = idx
        self.kind = kind
        self.stmt = stmt
        self.succs: List["CFGNode"] = []
        self.preds: List["CFGNode"] = []

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = type(self.stmt).__name__ if self.stmt is not None else ""
        return f"<CFGNode {self.idx} {self.kind} {tag} L{self.line}>"


class CFG:
    """The graph for one function body."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self.add(ENTRY, None)
        self.exit = self.add(EXIT, None)
        self.raise_exit = self.add(RAISE_EXIT, None)

    def add(self, kind: str, stmt: Optional[ast.stmt]) -> CFGNode:
        node = CFGNode(len(self.nodes), kind, stmt)
        self.nodes.append(node)
        return node

    def edge(self, a: CFGNode, b: CFGNode) -> None:
        if b not in a.succs:
            a.succs.append(b)
            b.preds.append(a)

    def stmt_nodes(self, stmt: ast.stmt) -> List[CFGNode]:
        """Every node carrying ``stmt`` (finally bodies are duplicated,
        so one source statement may own several nodes)."""
        return [n for n in self.nodes if n.stmt is stmt]


def own_exprs(node: CFGNode) -> List[ast.AST]:
    """The expressions evaluated *at* this node.

    For simple statements that is the whole statement; for compound
    statements only the header part this node stands for.  Rules must
    classify nodes through this accessor — walking ``node.stmt`` for an
    ``if`` would leak the branch bodies into the test node.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if node.kind == WITH_EXIT:
        return []  # __exit__ evaluates no user expression
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # opaque: nested scopes are not this method's flow
    return [stmt]


# -- the builder -----------------------------------------------------------

#: cleanup-stack entries threaded by escaping jumps
_FIN_FINALLY = "finally"
_FIN_WITH = "with"


class _LoopFrame:
    __slots__ = ("head", "breaks", "depth")

    def __init__(self, head: CFGNode, depth: int):
        self.head = head
        self.breaks: List[CFGNode] = []
        self.depth = depth  # cleanup-stack depth at loop entry


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.loops: List[_LoopFrame] = []
        #: cleanup stack, outermost first: (_FIN_FINALLY, [stmts]) or
        #: (_FIN_WITH, ast.With)
        self.cleanups: List[Tuple[str, object]] = []

    # frontier: the set of nodes whose fall-through reaches the next
    # statement.  An empty frontier means the next statement is dead.

    def seq(self, stmts: Sequence[ast.stmt], frontier: List[CFGNode]) -> List[CFGNode]:
        for stmt in stmts:
            if not frontier:
                break  # unreachable code: stop wiring
            frontier = self.stmt(stmt, frontier)
        return frontier

    def stmt(self, stmt: ast.stmt, frontier: List[CFGNode]) -> List[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._jump_exit(stmt, frontier, self.cfg.exit)
        if isinstance(stmt, ast.Raise):
            return self._jump_exit(stmt, frontier, self.cfg.raise_exit)
        if isinstance(stmt, ast.Break):
            return self._break(stmt, frontier)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt, frontier)
        # simple statement (incl. nested def/class, treated opaquely)
        node = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, node)
        return [node]

    # -- cleanup threading -------------------------------------------------

    def _thread_cleanups(
        self, frontier: List[CFGNode], down_to: int = 0
    ) -> List[CFGNode]:
        """Run fresh copies of the cleanup stack (innermost first) down
        to depth ``down_to``, returning the post-cleanup frontier."""
        for kind, payload in reversed(self.cleanups[down_to:]):
            if not frontier:
                return frontier
            if kind == _FIN_FINALLY:
                # a fresh copy: the finally body may itself contain
                # loops/trys, built with the *outer* cleanup stack not
                # re-entered (matching CPython: a finally body's own
                # jumps do not re-run the same finally)
                saved = self.cleanups
                self.cleanups = []
                frontier = self.seq(list(payload), frontier)  # type: ignore[arg-type]
                self.cleanups = saved
            else:  # _FIN_WITH
                wexit = self.cfg.add(WITH_EXIT, payload)  # type: ignore[arg-type]
                for f in frontier:
                    self.cfg.edge(f, wexit)
                frontier = [wexit]
        return frontier

    def _jump_exit(
        self, stmt: ast.stmt, frontier: List[CFGNode], target: CFGNode
    ) -> List[CFGNode]:
        node = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, node)
        out = self._thread_cleanups([node])
        for n in out:
            self.cfg.edge(n, target)
        return []

    def _break(self, stmt: ast.stmt, frontier: List[CFGNode]) -> List[CFGNode]:
        node = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, node)
        if self.loops:
            frame = self.loops[-1]
            out = self._thread_cleanups([node], down_to=frame.depth)
            frame.breaks.extend(out)
        return []

    def _continue(self, stmt: ast.stmt, frontier: List[CFGNode]) -> List[CFGNode]:
        node = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, node)
        if self.loops:
            frame = self.loops[-1]
            out = self._thread_cleanups([node], down_to=frame.depth)
            for n in out:
                self.cfg.edge(n, frame.head)
        return []

    # -- compound statements ----------------------------------------------

    def _if(self, stmt: ast.If, frontier: List[CFGNode]) -> List[CFGNode]:
        test = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, test)
        then_out = self.seq(stmt.body, [test])
        else_out = self.seq(stmt.orelse, [test]) if stmt.orelse else [test]
        return then_out + else_out

    def _loop(self, stmt: ast.stmt, frontier: List[CFGNode]) -> List[CFGNode]:
        head = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, head)
        frame = _LoopFrame(head, depth=len(self.cleanups))
        self.loops.append(frame)
        body_out = self.seq(stmt.body, [head])  # type: ignore[attr-defined]
        for n in body_out:
            self.cfg.edge(n, head)
        self.loops.pop()
        orelse = getattr(stmt, "orelse", [])
        normal_out = self.seq(orelse, [head]) if orelse else [head]
        return normal_out + frame.breaks

    def _with(self, stmt: ast.stmt, frontier: List[CFGNode]) -> List[CFGNode]:
        enter = self.cfg.add(WITH_ENTER, stmt)
        for f in frontier:
            self.cfg.edge(f, enter)
        self.cleanups.append((_FIN_WITH, stmt))
        body_out = self.seq(stmt.body, [enter])  # type: ignore[attr-defined]
        self.cleanups.pop()
        if not body_out:
            return []
        wexit = self.cfg.add(WITH_EXIT, stmt)
        for n in body_out:
            self.cfg.edge(n, wexit)
        return [wexit]

    def _match(self, stmt: ast.Match, frontier: List[CFGNode]) -> List[CFGNode]:
        subject = self.cfg.add(STMT, stmt)
        for f in frontier:
            self.cfg.edge(f, subject)
        outs: List[CFGNode] = [subject]  # no case may match
        for case in stmt.cases:
            outs.extend(self.seq(case.body, [subject]))
        return outs

    def _try(self, stmt: ast.Try, frontier: List[CFGNode]) -> List[CFGNode]:
        # handler entries exist before the body so raise edges can land
        handler_entries = [self.cfg.add(EXCEPT, h) for h in stmt.handlers]
        if stmt.finalbody:
            self.cleanups.append((_FIN_FINALLY, stmt.finalbody))
        first = len(self.cfg.nodes)
        body_out = self.seq(stmt.body, frontier)
        body_nodes = self.cfg.nodes[first:]
        # coarse: any body statement may raise into any handler
        for bn in body_nodes:
            for he in handler_entries:
                self.cfg.edge(bn, he)
        if not body_nodes and handler_entries:
            for f in frontier:
                for he in handler_entries:
                    self.cfg.edge(f, he)
        body_out = self.seq(stmt.orelse, body_out)
        handler_out: List[CFGNode] = []
        for he, h in zip(handler_entries, stmt.handlers):
            handler_out.extend(self.seq(h.body, [he]))
        if stmt.finalbody:
            self.cleanups.pop()
        normal = body_out + handler_out
        if stmt.finalbody:
            normal = self.seq(stmt.finalbody, normal)
        return normal


def build_cfg(fn: ast.FunctionDef) -> CFG:
    """Build the CFG for one function/method body."""
    b = _Builder()
    out = b.seq(fn.body, [b.cfg.entry])
    for n in out:
        b.cfg.edge(n, b.cfg.exit)
    return b.cfg


def iter_reachable(cfg: CFG) -> Iterator[CFGNode]:
    """Nodes reachable from entry, in a deterministic order."""
    seen = {cfg.entry.idx}
    stack = [cfg.entry]
    order: List[CFGNode] = []
    while stack:
        n = stack.pop()
        order.append(n)
        for s in n.succs:
            if s.idx not in seen:
                seen.add(s.idx)
                stack.append(s)
    order.sort(key=lambda n: n.idx)
    return iter(order)


def dump(cfg: CFG) -> str:  # pragma: no cover - debugging aid
    lines = []
    for n in cfg.nodes:
        succ = ",".join(str(s.idx) for s in n.succs)
        tag = type(n.stmt).__name__ if n.stmt is not None else "-"
        lines.append(f"{n.idx:3d} {n.kind:10s} {tag:12s} L{n.line:<4d} -> [{succ}]")
    return "\n".join(lines)
