"""RL3xx — registry contract cross-checks.

``repro/protocols/registry.py`` records, for every protocol, the Table 1
row the paper claims for it (rounds, values, blocking, write
transactions).  The Table-1 benchmark prints those claims next to the
*measured* characterization — but a reader of the registry should not
have to run the benchmark to trust a row.  These rules load the registry
metadata and flag code patterns that contradict it, in the spirit of
"SNOW revisited"'s warning that characterization claims are easy to get
subtly wrong:

``RL301``
    A server whose ``PaperRow`` claims **non-blocking** (``nonblocking
    == "yes"``) contains a stored-request / deferred-reply pattern in
    its read path (``handle_read`` parks the request in an attribute
    instead of replying).  The deferral is tolerated when the concrete
    class's ``can_serve`` is literally ``return True`` — then the
    deferred branch is unreachable for this protocol (the pre-stabilized
    snapshot family).

``RL302``
    A client whose ``PaperRow`` claims **one round** (``rounds ==
    "1"``) can issue a ``ReadRequest`` from code reachable from its
    reply handler (``handle_message``/``on_idle``) — i.e. a multi-round
    read loop.

``RL303``
    A protocol whose ``PaperRow`` claims **no write transactions**
    (``wtx == "no"``) whose client does not reject multi-object writes:
    no ``validate`` in the client's MRO raises
    ``UnsupportedTransaction``.  Refusing the shape is how the
    functionality sacrifice is recorded; silently accepting it would
    fake a WTX row.

Findings are anchored at the *concrete registered class* so that a
suppression sits next to the protocol whose claim is being discussed,
not in a shared base class.

The registry is imported (not parsed) to read the metadata — the
factories in it are classes, so ``module``/``name`` map each protocol
to AST nodes in the project index.  When the import fails (linting a
partial tree), the RL3xx rules are skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.lint.engine import ClassInfo, FileCtx, Finding, LintContext, Rule


def load_registry_meta() -> Optional[Dict[str, Dict[str, object]]]:
    """Import the protocol registry and extract per-protocol facts.

    Returns ``None`` when the registry is not importable (e.g. the lint
    target is a partial tree); RL3xx rules then skip silently.
    """
    try:
        from repro.protocols.registry import REGISTRY
    except Exception:  # pragma: no cover - absent only on partial trees
        return None
    meta: Dict[str, Dict[str, object]] = {}
    for name in sorted(REGISTRY):
        info = REGISTRY[name]
        meta[name] = {
            "server_module": info.server_factory.__module__,
            "server_name": info.server_factory.__name__,
            "client_module": info.client_factory.__module__,
            "client_name": info.client_factory.__name__,
            "rounds": info.paper_row.rounds,
            "values": info.paper_row.values,
            "nonblocking": info.paper_row.nonblocking,
            "wtx": info.paper_row.wtx,
            "supports_wtx": info.supports_wtx,
            "supports_rw": info.supports_rw,
            "claims_fast_rot": info.claims_fast_rot,
        }
    return meta


def _resolve_registered(
    ctx: LintContext, module: str, name: str
) -> Optional[ClassInfo]:
    ci = ctx.index.by_qualname.get(f"{module}.{name}")
    if ci is None:
        ci = ctx.index.resolve(name)
    return ci


def _anchor(ctx: LintContext, ci: ClassInfo) -> Optional[Tuple[FileCtx, ast.AST]]:
    for fctx in ctx.files:
        if fctx.rel == ci.rel:
            return fctx, ci.node
    return None


def _returns_constant_true(func: ast.FunctionDef) -> bool:
    """Whether a function body is (docstring +) ``return True``."""
    body = [
        stmt
        for stmt in func.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        )
    ]
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is True
    )


def _param_names(func: ast.FunctionDef) -> List[str]:
    return [a.arg for a in func.args.args]


def _deferral_sites(func: ast.FunctionDef) -> List[ast.AST]:
    """Statements in ``func`` that park the request instead of replying.

    A deferral stores the message or request parameter into ``self``
    state: ``self.X.append((msg.src, req))``, ``self.X[key] = req`` and
    friends.
    """
    params = _param_names(func)
    # by convention handle_read(self, ctx, msg, req); be permissive
    interesting = {p for p in params if p not in ("self", "ctx")}
    sites: List[ast.AST] = []
    for node in ast.walk(func):
        stored: Optional[ast.expr] = None
        receiver: Optional[ast.expr] = None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "add", "appendleft", "setdefault")
        ):
            receiver = node.func.value
            for arg in node.args:
                stored = arg if stored is None else stored
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Subscript):
                    receiver = tgt.value
                    stored = node.value
        if stored is None or receiver is None:
            continue
        # the receiver must be server state (self.<attr>...)
        root = receiver
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id == "self"):
            continue
        names_in_stored = {
            n.id for n in ast.walk(stored) if isinstance(n, ast.Name)
        }
        if names_in_stored & interesting:
            sites.append(node)
    return sites


class NonBlockingClaimRule(Rule):
    code = "RL301"
    name = "nonblocking-claim"
    summary = "nonblocking PaperRow vs deferred-reply pattern in handle_read"

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.registry is None:
            return
        for proto in sorted(ctx.registry):
            meta = ctx.registry[proto]
            if meta["nonblocking"] != "yes":
                continue
            ci = _resolve_registered(
                ctx, str(meta["server_module"]), str(meta["server_name"])
            )
            if ci is None:
                continue
            found = ctx.index.find_method(ci, "handle_read")
            if found is None:
                continue
            owner, handle_read = found
            sites = _deferral_sites(handle_read)
            if not sites:
                continue
            # unreachable deferral: the concrete can_serve is `return True`
            can_serve = ctx.index.find_method(ci, "can_serve")
            if can_serve is not None and _returns_constant_true(can_serve[1]):
                continue
            anchor = _anchor(ctx, ci)
            if anchor is None:
                continue
            fctx, node = anchor
            yield fctx.finding(
                self.code,
                node,
                f"protocol {proto!r} claims non-blocking reads "
                f'(PaperRow.nonblocking == "yes") but {owner.name}.'
                f"handle_read (at {owner.rel}:{sites[0].lineno}) defers the "
                "reply into server state — a blocked read contradicts the row",
            )


def _reachable_methods(
    ctx: LintContext, ci: ClassInfo, roots: Tuple[str, ...]
) -> List[Tuple[ClassInfo, ast.FunctionDef]]:
    """Methods reachable from ``roots`` through ``self.m()`` calls."""
    out: List[Tuple[ClassInfo, ast.FunctionDef]] = []
    seen: Set[str] = set()
    work: List[str] = [r for r in roots]
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        found = ctx.index.find_method(ci, name)
        if found is None:
            continue
        out.append(found)
        for node in ast.walk(found[1]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                work.append(node.func.attr)
    return out


class OneRoundClaimRule(Rule):
    code = "RL302"
    name = "one-round-claim"
    summary = 'rounds == "1" PaperRow vs multi-round client read loop'

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.registry is None:
            return
        for proto in sorted(ctx.registry):
            meta = ctx.registry[proto]
            if meta["rounds"] != "1":
                continue
            ci = _resolve_registered(
                ctx, str(meta["client_module"]), str(meta["client_name"])
            )
            if ci is None:
                continue
            offending: Optional[Tuple[ClassInfo, ast.AST]] = None
            for owner, meth in _reachable_methods(
                ctx, ci, ("handle_message", "on_idle")
            ):
                for node in ast.walk(meth):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "ReadRequest"
                    ):
                        offending = (owner, node)
                        break
                if offending:
                    break
            if offending is None:
                continue
            anchor = _anchor(ctx, ci)
            if anchor is None:
                continue
            fctx, node = anchor
            owner, call = offending
            yield fctx.finding(
                self.code,
                node,
                f"protocol {proto!r} claims one-round reads "
                f'(PaperRow.rounds == "1") but {owner.name} can issue a '
                f"ReadRequest from its reply handler "
                f"(at {owner.rel}:{call.lineno}) — a multi-round read loop "
                "contradicts the row",
            )


class NoWtxGuardRule(Rule):
    code = "RL303"
    name = "no-wtx-guard"
    summary = 'wtx == "no" PaperRow without an UnsupportedTransaction guard'

    def check_project(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.registry is None:
            return
        for proto in sorted(ctx.registry):
            meta = ctx.registry[proto]
            if meta["wtx"] != "no":
                continue
            ci = _resolve_registered(
                ctx, str(meta["client_module"]), str(meta["client_name"])
            )
            if ci is None:
                continue
            guarded = False
            for owner in ctx.index.mro(ci):
                validate = owner.methods.get("validate")
                if validate is None:
                    continue
                for node in ast.walk(validate):
                    if isinstance(node, ast.Raise) and node.exc is not None:
                        exc = node.exc
                        name = ""
                        if isinstance(exc, ast.Call) and isinstance(
                            exc.func, ast.Name
                        ):
                            name = exc.func.id
                        elif isinstance(exc, ast.Name):
                            name = exc.id
                        if name == "UnsupportedTransaction":
                            guarded = True
            if guarded:
                continue
            anchor = _anchor(ctx, ci)
            if anchor is None:
                continue
            fctx, node = anchor
            yield fctx.finding(
                self.code,
                node,
                f"protocol {proto!r} claims no write transactions "
                f'(PaperRow.wtx == "no") but {ci.name} never raises '
                "UnsupportedTransaction in validate() — the sacrifice the "
                "row records must be enforced, not implied",
            )


CONTRACT_RULES = (
    NonBlockingClaimRule(),
    OneRoundClaimRule(),
    NoWtxGuardRule(),
)
