"""Cross-module class summaries for the flow-sensitive RL501.

RL501 reasons about the *dirty-tracking contract*: every
mutation of a :class:`~repro.sim.process.Process`'s or
:class:`~repro.sim.network.Network`'s state must be visible to the
snapshot cache, either because the executor bumps the version counter
around the entry point (``on_step``/``on_invoke``/anything handed a
``StepContext``) or because the method bumps it itself
(``mark_dirty()`` / ``self._version``).  Checking that intraprocedurally
requires interprocedural facts:

* which classes are dirty-tracked at all (subclass of ``Process`` or
  ``Network`` — matched by base-name chain so fixture stand-ins count —
  or anything defining ``mark_dirty``);
* which methods *mutate* ``self`` state, directly or through helper
  calls (``self._flush()`` that appends to ``self.outbox`` is a
  mutation of the caller too);
* which helpers *always mark* before returning, so a call to one
  counts as a mark at the call site;
* which methods are *covered* by the executor's own bump: the entry
  points above, closed transitively over ``self.<m>()`` calls **per
  concrete subclass** (``ServerBase.install`` has no ``ctx`` parameter,
  but every path to it goes through a covered handler of some concrete
  server, so it is covered at its defining class).

Everything here is a fixed point over those mutually recursive facts.
The lattice only grows (pure → mutates, not-always-marks →
always-marks, uncovered → covered), so iteration terminates.

Classification is *statement-level*, aligned with
:mod:`repro.lint.cfg` nodes via :func:`repro.lint.cfg.own_exprs`:
:meth:`DirtySummaries.classify` maps each CFG node of a method to
``mutation`` / ``mark`` / neither, which is exactly the input the
RL501 exposure analysis needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.cfg import CFG, STMT, build_cfg, own_exprs
from repro.lint.dataflow import exposed_nodes
from repro.lint.engine import ClassInfo, ProjectIndex, annotation_head

#: the dirty-tracked roots (simple names, so fixtures can stand them in)
DIRTY_ROOTS = ("Process", "Network")

#: methods RL501 never checks: lifecycle/serialization hooks (the object
#: is private, or only observed, there) and the marker itself
EXCLUDED_METHODS = frozenset(
    {"__init__", "__getstate__", "__setstate__", "__reduce__", "mark_dirty", "fp_state"}
)

#: container methods that mutate their receiver in place
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "sort",
        "reverse",
    }
)

#: executor-covered entry points: the simulator bumps the counter
#: around these, so their (transitive) mutations are already visible
COVERED_ENTRY_POINTS = ("on_step", "on_invoke")


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, else None."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_self_version(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "_version"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def collect_aliases(fn: ast.FunctionDef) -> Set[str]:
    """Local names that (may) alias state reachable from ``self``.

    Flow-insensitive and transitive: ``chain = self.store[k]`` makes
    ``chain`` an alias; ``for v in chain`` then makes ``v`` one too.
    Over-approximate on purpose — an alias that is never mutated costs
    nothing, a missed alias hides a mutation.
    """
    aliases: Set[str] = {"self"}
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                root = _root_name(node.value)
                if root in aliases and isinstance(
                    node.value, (ast.Attribute, ast.Subscript)
                ):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name) and tgt.id not in aliases:
                            aliases.add(tgt.id)
                            changed = True
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                root = _root_name(node.iter)
                if root in aliases and isinstance(
                    node.iter, (ast.Attribute, ast.Subscript)
                ):
                    if isinstance(node.target, ast.Name) and node.target.id not in aliases:
                        aliases.add(node.target.id)
                        changed = True
    return aliases


def _self_call_names(fn: ast.FunctionDef) -> Tuple[str, ...]:
    """Names of ``self.<m>(...)`` calls, in source order, de-duplicated."""
    out: List[str] = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
            and node.func.attr not in out
        ):
            out.append(node.func.attr)
    return tuple(out)


def _is_super_receiver(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "super"
    )


def _super_call_names(fn: ast.FunctionDef) -> Tuple[str, ...]:
    """Names of ``super().<m>(...)`` calls, de-duplicated."""
    out: List[str] = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _is_super_receiver(node.func.value)
            and node.func.attr not in out
        ):
            out.append(node.func.attr)
    return tuple(out)


def _has_ctx_param(fn: ast.FunctionDef) -> bool:
    for a in list(fn.args.args) + list(fn.args.kwonlyargs):
        if a.arg == "ctx" or annotation_head(a.annotation) == "StepContext":
            return True
    return False


@dataclass
class MethodSummary:
    """Interprocedural facts about one method, at its defining class."""

    owner: ClassInfo
    name: str
    node: ast.FunctionDef
    aliases: Set[str] = field(default_factory=set)
    self_calls: Tuple[str, ...] = ()
    super_calls: Tuple[str, ...] = ()
    #: mutates self state in its own body (helpers not counted)
    direct_mutates: bool = False
    #: mutates self state, transitively through self-calls
    mutates: bool = False
    #: every normal-return path crosses a mark (fixed point result)
    marks_always: bool = False

    @property
    def key(self) -> Tuple[str, str]:
        return (self.owner.qualname, self.name)


#: classification results for one CFG node
MUTATION = "mutation"
MARK = "mark"


class DirtySummaries:
    """The summary database for one lint run.  Build via :func:`build_summaries`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        #: dirty-tracked classes, deterministic order
        self.dirty_classes: List[ClassInfo] = []
        #: (defining qualname, method name) -> summary
        self.methods: Dict[Tuple[str, str], MethodSummary] = {}
        #: (defining qualname, method name) pairs covered by the
        #: executor bump, unioned over every concrete subclass
        self.covered: Set[Tuple[str, str]] = set()
        self._cfgs: Dict[int, CFG] = {}

    # -- queries -----------------------------------------------------------

    def is_dirty_tracked(self, ci: ClassInfo) -> bool:
        if self.index.is_subclass(ci, DIRTY_ROOTS[0]) or self.index.is_subclass(
            ci, DIRTY_ROOTS[1]
        ):
            return True
        return self.index.find_method(ci, "mark_dirty") is not None

    def cfg_for(self, fn: ast.FunctionDef) -> CFG:
        key = id(fn)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(fn)
        return self._cfgs[key]

    def summary_for(self, ci: ClassInfo, name: str) -> Optional[MethodSummary]:
        """Resolve ``self.<name>`` from ``ci`` through its MRO."""
        found = self.index.find_method(ci, name)
        if found is None:
            return None
        def_ci, _node = found
        return self.methods.get((def_ci.qualname, name))

    def resolve_after(
        self, ci: ClassInfo, after_qualname: Optional[str], name: str
    ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        """``find_method`` restricted to MRO entries *after* a class —
        the static approximation of ``super().<name>`` resolution."""
        started = after_qualname is None
        for c in self.index.mro(ci):
            if not started:
                if c.qualname == after_qualname:
                    started = True
                continue
            if name in c.methods:
                return c, c.methods[name]
        return None

    def super_summary_for(
        self, owner: ClassInfo, name: str
    ) -> Optional[MethodSummary]:
        """The summary ``super().<name>`` resolves to from ``owner``."""
        found = self.resolve_after(owner, owner.qualname, name)
        if found is None:
            return None
        def_ci, _node = found
        return self.methods.get((def_ci.qualname, name))

    # -- node classification ------------------------------------------------

    def classify(self, msum: MethodSummary, cfg: CFG) -> Dict[int, str]:
        """``node.idx -> MUTATION | MARK`` for one method's CFG.

        A statement that both mutates and marks (``self.buf.append(x);
        self._version += 1`` collapsed into one expression via a
        marking helper) classifies as MARK: the path is covered the
        moment the counter bumps, which is the property RL501 checks.
        """
        out: Dict[int, str] = {}
        for node in cfg.nodes:
            if node.kind != STMT or node.stmt is None:
                continue
            kind = self._classify_stmt(node, msum)
            if kind is not None:
                out[node.idx] = kind
        return out

    def _classify_stmt(self, node, msum: MethodSummary) -> Optional[str]:
        stmt = node.stmt
        aliases = msum.aliases
        is_mut = False
        is_mark = False
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for tgt in targets:
                for leaf in self._assign_leaves(tgt):
                    if _is_self_version(leaf):
                        is_mark = True
                    elif isinstance(
                        leaf, (ast.Attribute, ast.Subscript)
                    ) and _root_name(leaf) in aliases:
                        is_mut = True
        elif isinstance(stmt, ast.Delete):
            for tgt in stmt.targets:
                if isinstance(tgt, (ast.Attribute, ast.Subscript)) and _root_name(
                    tgt
                ) in aliases:
                    is_mut = True
        # calls anywhere in the expressions this node evaluates
        for expr in own_exprs(node):
            if not isinstance(expr, ast.AST):
                continue
            for sub in ast.walk(expr):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if not isinstance(func, ast.Attribute):
                    continue
                recv = func.value
                if (
                    func.attr in MUTATOR_METHODS
                    and isinstance(recv, (ast.Name, ast.Attribute, ast.Subscript))
                    and _root_name(recv) in aliases
                    and not (isinstance(recv, ast.Name) and recv.id == "self")
                ):
                    is_mut = True
                elif (
                    isinstance(recv, ast.Name) and recv.id == "self"
                ) or _is_super_receiver(recv):
                    if func.attr == "mark_dirty":
                        is_mark = True
                    else:
                        if _is_super_receiver(recv):
                            callee = self.super_summary_for(msum.owner, func.attr)
                        else:
                            callee = self.summary_for(msum.owner, func.attr)
                        if callee is not None:
                            if callee.mutates and callee.marks_always:
                                is_mark = True
                            elif callee.mutates:
                                is_mut = True
                            elif callee.marks_always:
                                is_mark = True
        if is_mark:
            return MARK
        if is_mut:
            return MUTATION
        return None

    @staticmethod
    def _assign_leaves(tgt: ast.expr) -> Iterable[ast.expr]:
        """Flatten tuple/list targets to assignable leaves."""
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                yield from DirtySummaries._assign_leaves(elt)
        elif isinstance(tgt, ast.Starred):
            yield tgt.value
        else:
            yield tgt


def build_summaries(index: ProjectIndex) -> DirtySummaries:
    db = DirtySummaries(index)

    # 1. dirty-tracked classes, and the classes whose methods they can
    #    reach through self (the full MRO of every dirty class)
    reachable: Dict[str, ClassInfo] = {}
    for name in sorted(index.by_name):
        for ci in index.by_name[name]:
            if db.is_dirty_tracked(ci):
                db.dirty_classes.append(ci)
                for base in index.mro(ci):
                    reachable.setdefault(base.qualname, base)

    # 2. per-method structural facts
    for qual in sorted(reachable):
        ci = reachable[qual]
        for mname in sorted(ci.methods):
            fn = ci.methods[mname]
            if isinstance(fn, ast.AsyncFunctionDef):
                continue
            msum = MethodSummary(
                owner=ci,
                name=mname,
                node=fn,
                aliases=collect_aliases(fn),
                self_calls=_self_call_names(fn),
                super_calls=_super_call_names(fn),
            )
            db.methods[msum.key] = msum

    # 3. fixed point: mutates / marks_always feed classification which
    #    feeds them back.  Both flags only ever flip one way.
    for msum in db.methods.values():
        msum.direct_mutates = _any_mutation(db, msum)
        msum.mutates = msum.direct_mutates
    changed = True
    while changed:
        changed = False
        for msum in db.methods.values():
            if not msum.mutates:
                callees = [
                    db.summary_for(msum.owner, n) for n in msum.self_calls
                ] + [db.super_summary_for(msum.owner, n) for n in msum.super_calls]
                if any(c is not None and c.mutates for c in callees):
                    msum.mutates = True
                    changed = True
            if not msum.marks_always and _always_marks(db, msum):
                msum.marks_always = True
                changed = True

    # 4. executor coverage: entry points, closed over self-calls per
    #    concrete class, recorded at the defining class
    for ci in db.dirty_classes:
        roots: List[str] = []
        seen_names: Set[str] = set()
        for base in index.mro(ci):
            for mname, fn in base.methods.items():
                if mname in seen_names:
                    continue
                seen_names.add(mname)
                if mname in COVERED_ENTRY_POINTS or _has_ctx_param(fn):
                    roots.append(mname)
        # closure items are (method name, resolve-after qualname): plain
        # self-calls resolve from the top of ci's MRO, super-calls resolve
        # past the class whose body made them — so an override that
        # delegates with ``super().m()`` still covers the base body
        work: List[Tuple[str, Optional[str]]] = [(r, None) for r in roots]
        visited: Set[Tuple[str, Optional[str]]] = set()
        while work:
            item = work.pop()
            if item in visited:
                continue
            visited.add(item)
            mname, after = item
            found = db.resolve_after(ci, after, mname)
            if found is None:
                continue
            def_ci, _fn = found
            db.covered.add((def_ci.qualname, mname))
            msum = db.methods.get((def_ci.qualname, mname))
            if msum is not None:
                work.extend((n, None) for n in msum.self_calls)
                work.extend((n, def_ci.qualname) for n in msum.super_calls)

    return db


def _any_mutation(db: DirtySummaries, msum: MethodSummary) -> bool:
    cfg = db.cfg_for(msum.node)
    for node in cfg.nodes:
        if node.kind == STMT and db._classify_stmt(node, msum) == MUTATION:
            return True
    return False


def _always_marks(db: DirtySummaries, msum: MethodSummary) -> bool:
    """No normal-return path avoids a mark node."""
    cfg = db.cfg_for(msum.node)
    kinds = db.classify(msum, cfg)
    marks = {idx for idx, k in kinds.items() if k == MARK}
    if not marks:
        return False
    return cfg.entry.idx not in exposed_nodes(cfg, marks)
