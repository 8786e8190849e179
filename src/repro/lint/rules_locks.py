"""RL6xx — shared-memory concurrency discipline rules.

The exploration pool (:mod:`repro.engine.parallel`) and its shared
claim table (:mod:`repro.engine.seenset`) are the one place in the
tree where plain Python touches memory that other *processes* write
concurrently.  The soundness argument there is narrow and explicit:
every access to the shared buffer happens inside a ``with`` block on
the table's lock (so the lock is released on every path), and
everything shipped into a worker bootstrap survives pickling.  These
rules keep those claims machine-checked as the concurrency surface
grows.

``RL601``
    A shared-memory buffer access (a subscript of ``self.shm.buf`` or
    of a local alias of it) outside the body of a ``with`` block whose
    item names a lock.  The check is lexical: it applies to classes
    that assign ``self.shm``, ``__init__``/``__getstate__``/
    ``__setstate__`` are exempt (the object is private until
    published), and the ``with`` must enclose the access within the
    same function — a nested ``def`` or ``lambda`` leaves the block,
    since its body runs whenever it is called.

``RL602``
    A manual ``.acquire()`` that is not release-safe: neither inside a
    ``try`` whose ``finally`` releases the same receiver, nor
    immediately followed by one (simple assignments may intervene).
    Also flags the inverse hazard: a manual ``.release()`` *inside* a
    ``try`` body whose ``finally`` releases the same receiver
    unconditionally — an exception in the window between the inner
    release and the next acquire makes the ``finally`` release a lock
    the frame no longer holds, corrupting the semaphore count for
    every other process.  Prefer ``with lock:``; code that swaps locks
    inside one ``try`` must guard its ``finally`` release with a
    held-flag.

``RL603``
    A spawned-worker entry point that will not survive the pickle into
    the child process: ``Process(...)``/``Thread(...)`` with a
    ``target=`` that is a lambda, a nested function, or a bound
    method, or a lambda anywhere in ``args=``.  Spawn-context workers
    rebuild their arguments by pickling; anything closure-captured
    dies at the boundary, on some platforms only at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import FileCtx, Finding, LintContext, Rule, call_name

#: methods where the object is not yet shared with other processes
_PREPUBLICATION = frozenset({"__init__", "__setstate__", "__getstate__"})

#: spawn constructors worth checking for picklability
_SPAWNERS = frozenset({"Process", "Thread", "Pool"})

#: scope boundaries: a block inside one does not run under an
#: enclosing ``with``
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_self_shm(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "shm"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _assigns_shm(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(_is_self_shm(t) for t in targets):
            return True
    return False


def _is_buffer_expr(expr: ast.expr, aliases: Set[str]) -> bool:
    """``self.shm.buf`` or a local name bound from it."""
    if isinstance(expr, ast.Name):
        return expr.id in aliases
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "buf"
        and _is_self_shm(expr.value)
    )


def _buffer_aliases(fn: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_buffer_expr(node.value, out):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.add(tgt.id)
    return out


def _lockish(expr: ast.expr) -> bool:
    try:
        return "lock" in ast.unparse(expr).lower()
    except Exception:  # pragma: no cover - unparse of exotic nodes
        return False


def _under_lock(fctx: FileCtx, node: ast.AST) -> bool:
    """Whether ``node`` sits in the body of a ``with`` on a lock, within
    the innermost function that contains it."""
    cur = node
    for anc in fctx.ancestors(node):
        if isinstance(anc, _FUNCTIONS):
            return False
        if (
            isinstance(anc, (ast.With, ast.AsyncWith))
            and any(cur is s for s in anc.body)
            and any(_lockish(item.context_expr) for item in anc.items)
        ):
            return True
        cur = anc
    return False


class LockedBufferRule(Rule):
    code = "RL601"
    name = "unlocked-shared-buffer"
    summary = "shared-memory buffer access outside a with-block on a lock"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        for cls in ast.walk(fctx.tree):
            if not isinstance(cls, ast.ClassDef) or not _assigns_shm(cls):
                continue
            for fn in cls.body:
                if (
                    not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name in _PREPUBLICATION
                ):
                    continue
                aliases = _buffer_aliases(fn)
                for sub in ast.walk(fn):
                    if (
                        isinstance(sub, ast.Subscript)
                        and _is_buffer_expr(sub.value, aliases)
                        and not _under_lock(fctx, sub)
                    ):
                        yield fctx.finding(
                            self.code,
                            sub,
                            f"{cls.name}.{fn.name} touches the shared buffer "
                            "outside a with-block on a lock — cross-process "
                            "reads/writes of shm.buf are unordered without it",
                        )


def _call_text(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover
        return ""


def _releases_in(stmts: Sequence[ast.stmt], recv: str, unconditional: bool) -> bool:
    """Whether ``stmts`` contain ``<recv>.release()``.

    ``unconditional=True`` looks only at top-level ``Expr`` statements
    (a release guarded by ``if held:`` does not count); otherwise the
    whole subtree is searched.
    """
    if unconditional:
        pool: List[ast.AST] = [
            s.value for s in stmts if isinstance(s, ast.Expr)
        ]
    else:
        pool = [n for s in stmts for n in ast.walk(s)]
    for node in pool:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
            and _call_text(node.func.value) == recv
        ):
            return True
    return False


def _enclosing_stmt(fctx: FileCtx, node: ast.AST) -> Optional[ast.stmt]:
    cur: Optional[ast.AST] = node
    while cur is not None and not isinstance(cur, ast.stmt):
        cur = fctx.parent(cur)
    return cur


def _block_of(fctx: FileCtx, stmt: ast.stmt) -> Optional[List[ast.stmt]]:
    parent = fctx.parent(stmt)
    if parent is None:
        return None
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(parent, attr, None)
        if isinstance(block, list) and stmt in block:
            return block
    return None


class ReleaseSafeAcquireRule(Rule):
    code = "RL602"
    name = "release-safe-acquire"
    summary = "manual acquire()/release() not exception-safe"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(fctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "acquire":
                yield from self._check_acquire(fctx, node)
            elif node.func.attr == "release":
                yield from self._check_release(fctx, node)

    def _enclosing_trys(
        self, fctx: FileCtx, node: ast.AST
    ) -> Iterator[Tuple[ast.Try, bool]]:
        """(try, node_is_in_body) for each enclosing try, inner first."""
        cur: ast.AST = node
        for anc in fctx.ancestors(node):
            if isinstance(anc, ast.Try):
                # cur is a direct child of anc here (parent links), so
                # block membership is an identity check
                in_body = any(cur is s for s in anc.body + anc.orelse)
                yield anc, in_body
            cur = anc

    def _check_acquire(self, fctx: FileCtx, call: ast.Call) -> Iterator[Finding]:
        recv = _call_text(call.func.value)
        # (a) inside a try whose finally releases the receiver?
        for try_node, _in_body in self._enclosing_trys(fctx, call):
            if try_node.finalbody and _releases_in(
                try_node.finalbody, recv, unconditional=False
            ):
                return
        # (b) immediately followed by such a try (assignments may intervene)?
        stmt = _enclosing_stmt(fctx, call)
        block = _block_of(fctx, stmt) if stmt is not None else None
        if block is not None:
            for nxt in block[block.index(stmt) + 1 :]:
                if isinstance(nxt, (ast.Assign, ast.AnnAssign)):
                    continue
                if (
                    isinstance(nxt, ast.Try)
                    and nxt.finalbody
                    and _releases_in(nxt.finalbody, recv, unconditional=False)
                ):
                    return
                break
        yield fctx.finding(
            self.code,
            call,
            f"{recv}.acquire() is not release-safe — no try/finally (or "
            "with-block) guarantees the release on exception paths; a "
            "leaked lock deadlocks every sibling claimer",
        )

    def _check_release(self, fctx: FileCtx, call: ast.Call) -> Iterator[Finding]:
        recv = _call_text(call.func.value)
        for try_node, in_body in self._enclosing_trys(fctx, call):
            if not in_body or not try_node.finalbody:
                continue
            if _releases_in(try_node.finalbody, recv, unconditional=True):
                yield fctx.finding(
                    self.code,
                    call,
                    f"{recv}.release() inside a try whose finally also "
                    f"releases {recv} unconditionally — an exception in the "
                    "window releases a lock this frame no longer holds and "
                    "corrupts the semaphore count; guard the finally "
                    "release with a held-flag",
                )
                return


class PicklableWorkerRule(Rule):
    code = "RL603"
    name = "picklable-worker-target"
    summary = "spawned-worker target/args will not survive pickling"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(fctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node.func) not in _SPAWNERS:
                continue
            target = next(
                (kw.value for kw in node.keywords if kw.arg == "target"), None
            )
            if target is None:
                continue
            yield from self._check_target(fctx, node, target)
            for kw in node.keywords:
                if kw.arg == "args" or kw.arg == "kwargs":
                    for sub in ast.walk(kw.value):
                        if isinstance(sub, ast.Lambda):
                            yield fctx.finding(
                                self.code,
                                sub,
                                "lambda in spawned-worker args — the spawn "
                                "context pickles arguments into the child, "
                                "and lambdas do not pickle",
                            )

    def _check_target(
        self, fctx: FileCtx, call: ast.Call, target: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Lambda):
            yield fctx.finding(
                self.code,
                target,
                "lambda as spawned-worker target — spawn-context workers "
                "import their target by qualified name; use a module-level "
                "function",
            )
            return
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield fctx.finding(
                self.code,
                target,
                "bound method as spawned-worker target — pickling it drags "
                "the whole instance across the spawn boundary; use a "
                "module-level function taking the state it needs",
            )
            return
        if isinstance(target, ast.Name):
            for anc in fctx.ancestors(call):
                if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for sub in ast.walk(anc):
                        if (
                            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and sub is not anc
                            and sub.name == target.id
                        ):
                            yield fctx.finding(
                                self.code,
                                target,
                                f"nested function {target.id!r} as "
                                "spawned-worker target — it is not "
                                "importable from the child process; move it "
                                "to module level",
                            )
                            return
                    break


LOCK_RULES = (
    LockedBufferRule(),
    ReleaseSafeAcquireRule(),
    PicklableWorkerRule(),
)
