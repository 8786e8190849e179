"""RL4xx — simulator purity rules.

The executor's configuration machinery (snapshot / restore /
fingerprint, :mod:`repro.sim.executor`) is sound only if *all* mutable
state lives in process attributes and the network, and all communication
flows through the :class:`~repro.sim.process.StepContext` the executor
hands to each step.  Messages injected around the StepContext would
bypass the one-message-per-neighbour rule and the recorded events.
(State smuggled through module globals is caught dynamically: the paper
ledger's exact counts drift on it.)

``RL402``
    Protocol or analysis code constructs a raw
    :class:`~repro.sim.messages.Message` or touches the network's
    buffers (``in_transit`` / ``income`` / ``post`` / ``drain_income``)
    directly.  Messages are minted only by the executor's ``step`` —
    that is what makes ``msg_id``/``link_seq`` addressing and replay
    coherent.

``RL404``
    A Process method mutates a received payload (a parameter annotated
    with a Payload type, or anything reached through ``msg.payload``).
    Messages are immutable once sent — links "do not modify messages" —
    and payload objects are shared by reference with the network and
    any open recording window, so in-place mutation corrupts history.

``RL405``
    A raw ``sim.step(...)`` / ``sim.reuse_step(...)`` / ``sim.deliver(...)``
    / ``sim.deliver_msg(...)`` outside the exploration engine and the sim
    core.  Schedule choices belong to :mod:`repro.engine` (via
    ``enabled_events`` and ``Event.apply``) so the seen-set, the
    partial-order reduction and the counters all observe the same moves;
    ad-hoc driving elsewhere silently forks the schedule vocabulary.
    The theorem constructions (:mod:`repro.core.constructions`) are the
    one deliberate exception: σ_old/σ_new *are* hand-built schedules.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.engine import (
    ClassInfo,
    FileCtx,
    Finding,
    LintContext,
    Rule,
    annotation_head,
    module_name,
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

#: modules whose job *is* minting messages / touching buffers
SIM_CORE_MODULES = (
    "repro.sim.executor",
    "repro.sim.network",
    "repro.sim.messages",
    "repro.sim.trace",
    "repro.sim.adversaries",
    "repro.sim.scheduler",
    "repro.sim.events",
)

#: modules whose *purpose* is authoring schedules move by move: the
#: exploration engine itself, and the paper's σ_old/σ_new constructions
#: (Lemma 1 builds one specific adversarial schedule by hand — routing
#: it through the engine would obscure the proof it transcribes).
SCHEDULE_AUTHORITIES = (
    "repro.engine",
    "repro.engine.core",
    "repro.engine.parallel",
    "repro.core.constructions",
)

#: the Simulation methods that advance the schedule by one move
SCHEDULE_MOVES = frozenset({"step", "reuse_step", "deliver", "deliver_msg"})

NETWORK_INTERNALS = frozenset({"in_transit", "income", "post", "drain_income", "link_counts"})


def _process_classes(fctx: FileCtx, ctx: LintContext) -> List[ClassInfo]:
    out: List[ClassInfo] = []
    for name in sorted(ctx.index.by_name):
        for ci in ctx.index.by_name[name]:
            if ci.rel == fctx.rel and ctx.index.is_subclass(ci, "Process"):
                out.append(ci)
    return out


class RawMessageRule(Rule):
    code = "RL402"
    name = "raw-message"
    summary = "Message minted / network buffers touched outside the sim core"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        module = module_name(fctx.rel)
        if module in SIM_CORE_MODULES:
            return
        for node in ast.walk(fctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Message"
            ):
                yield fctx.finding(
                    self.code,
                    node,
                    "raw Message(...) constructed outside the sim core — "
                    "only Simulation.step mints messages (msg_id/link_seq "
                    "addressing and replay depend on it)",
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in NETWORK_INTERNALS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "network"
            ):
                yield fctx.finding(
                    self.code,
                    node,
                    f"direct access to network.{node.attr} outside the sim "
                    "core — deliveries and sends must go through the "
                    "executor",
                )


class PayloadMutationRule(Rule):
    code = "RL404"
    name = "payload-mutation"
    summary = "received payload mutated in place"

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        payload_names = {ci.name for ci in ctx.index.payload_classes()} | {
            "Payload",
            "Message",
        }
        for ci in _process_classes(fctx, ctx):
            for mname in sorted(ci.methods):
                meth = ci.methods[mname]
                tainted: Set[str] = {
                    a.arg
                    for a in meth.args.args
                    if annotation_head(a.annotation) in payload_names
                }
                # names bound from <msg>.payload
                for node in ast.walk(meth):
                    if isinstance(node, ast.Assign) and isinstance(
                        node.value, ast.Attribute
                    ):
                        if (
                            node.value.attr == "payload"
                            and isinstance(node.value.value, ast.Name)
                            and node.value.value.id in tainted
                        ):
                            for tgt in node.targets:
                                if isinstance(tgt, ast.Name):
                                    tainted.add(tgt.id)
                if not tainted:
                    continue
                yield from self._mutations(fctx, ci, mname, meth, tainted)

    def _mutations(
        self,
        fctx: FileCtx,
        ci: ClassInfo,
        mname: str,
        meth: ast.FunctionDef,
        tainted: Set[str],
    ) -> Iterator[Finding]:
        def rooted_in_tainted(expr: ast.expr) -> bool:
            while isinstance(expr, (ast.Attribute, ast.Subscript)):
                expr = expr.value
            return isinstance(expr, ast.Name) and expr.id in tainted

        for node in ast.walk(meth):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if isinstance(
                        tgt, (ast.Attribute, ast.Subscript)
                    ) and rooted_in_tainted(tgt):
                        yield fctx.finding(
                            self.code,
                            node,
                            f"{ci.name}.{mname} mutates a received payload — "
                            "messages are immutable once sent; copy into "
                            "server state instead",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATOR_METHODS
                and isinstance(node.func.value, (ast.Attribute, ast.Subscript))
                and rooted_in_tainted(node.func.value)
            ):
                yield fctx.finding(
                    self.code,
                    node,
                    f"{ci.name}.{mname} calls .{node.func.attr}() on a "
                    "received payload's state — messages are immutable once "
                    "sent",
                )


class RawScheduleRule(Rule):
    code = "RL405"
    name = "raw-schedule"
    summary = "raw sim.step()/sim.deliver() outside the exploration engine"

    @staticmethod
    def _sim_receiver(expr: ast.expr) -> bool:
        """``sim.step(...)``, ``self.sim.step(...)``, ``system.sim...``."""
        if isinstance(expr, ast.Name):
            return expr.id == "sim"
        if isinstance(expr, ast.Attribute):
            return expr.attr == "sim"
        return False

    def check_file(self, fctx: FileCtx, ctx: LintContext) -> Iterator[Finding]:
        module = module_name(fctx.rel)
        if module in SIM_CORE_MODULES or module in SCHEDULE_AUTHORITIES:
            return
        for node in ast.walk(fctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULE_MOVES
                and self._sim_receiver(node.func.value)
            ):
                yield fctx.finding(
                    self.code,
                    node,
                    f"raw sim.{node.func.attr}() outside the exploration "
                    "engine — schedule moves go through repro.engine "
                    "(enabled_events / Event.apply) or System.execute so "
                    "seen-sets, POR and counters see the same vocabulary",
                )


PURITY_RULES = (
    RawMessageRule(),
    PayloadMutationRule(),
    RawScheduleRule(),
)
