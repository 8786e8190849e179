"""Tests for the flow-sensitive lint core and the rules built on it.

* CFG construction: branch joins, loop back edges, break/continue,
  finally duplication, with-exit on early return, dead code;
* dataflow: ``ExitExposure`` and ``LockHeld`` on hand-built methods;
* RL501 against hand-written mutator bodies, plus a hypothesis
  property test that generates synthetic mutators (branches, loops,
  early returns) and checks the verdict against ground truth from
  bounded loop unrolling;
* mutation-style self-tests: deleting a real ``self._version`` bump
  from a copy of ``sim/network.py``, or a ``lock.acquire()`` from
  ``engine/seenset.py``, must be flagged;
* regression tests for the true positives the RL5xx/RL6xx families
  found in this tree (``drain_income`` ordering + version bump,
  ``StabilizingServer.tick``, ``SharedSeenSet.__contains__``).
"""

import ast
import hashlib
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.seenset import SharedSeenSet
from repro.lint import run_lint
from repro.lint.cfg import (
    EXCEPT,
    WITH_ENTER,
    WITH_EXIT,
    build_cfg,
    iter_reachable,
)
from repro.lint.dataflow import exposed_nodes, unlocked_at
from repro.protocols.stability import StabilizingServer
from repro.sim.messages import Message
from repro.sim.network import Network

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def fn_of(src: str, name: str = "f") -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(src))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"no function {name!r} in source")


def node_of(cfg, stmt):
    nodes = cfg.stmt_nodes(stmt)
    assert nodes, f"no CFG node for {ast.dump(stmt)[:60]}"
    return nodes[0]


def reaches(a, b) -> bool:
    """Is there a directed CFG path from node ``a`` to node ``b``?"""
    seen, work = set(), [a]
    while work:
        n = work.pop()
        if n.idx in seen:
            continue
        seen.add(n.idx)
        for s in n.succs:
            if s is b:
                return True
            work.append(s)
    return False


def stmts_of_type(fn, typ):
    found = [n for n in ast.walk(fn) if isinstance(n, typ)]
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def lint_source(source: str):
    """Lint a standalone source string, returning findings."""
    with tempfile.TemporaryDirectory() as td:
        p = Path(td) / "gen.py"
        p.write_text(source)
        findings, _ = run_lint([str(p)])
    return findings


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


def test_if_else_branches_join_before_return():
    fn = fn_of(
        """
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """
    )
    cfg = build_cfg(fn)
    a1, a2 = stmts_of_type(fn, ast.Assign)
    ret = stmts_of_type(fn, ast.Return)[0]
    n1, n2, nr = node_of(cfg, a1), node_of(cfg, a2), node_of(cfg, ret)
    assert reaches(n1, nr) and reaches(n2, nr)
    assert not reaches(n1, n2) and not reaches(n2, n1)
    assert reaches(nr, cfg.exit)


def test_while_loop_has_back_edge_and_exit():
    fn = fn_of(
        """
        def f(x):
            while x:
                x -= 1
            return x
        """
    )
    cfg = build_cfg(fn)
    head = node_of(cfg, stmts_of_type(fn, ast.While)[0])
    body = node_of(cfg, stmts_of_type(fn, ast.AugAssign)[0])
    assert head in body.succs  # back edge
    assert reaches(head, cfg.exit)


def test_break_bypasses_loop_else():
    fn = fn_of(
        """
        def f(xs):
            for x in xs:
                if x:
                    break
            else:
                return -1
            return 1
        """
    )
    cfg = build_cfg(fn)
    brk = node_of(cfg, stmts_of_type(fn, ast.Break)[0])
    ret_else, ret_after = stmts_of_type(fn, ast.Return)
    assert reaches(brk, node_of(cfg, ret_after))
    assert not reaches(brk, node_of(cfg, ret_else))


def test_return_threads_through_finally_copy():
    fn = fn_of(
        """
        def f(self, x):
            try:
                if x:
                    return 1
                self.work()
            finally:
                self.release()
            return 0
        """
    )
    cfg = build_cfg(fn)
    release = stmts_of_type(fn, ast.Try)[0].finalbody[0]
    # the finally body is duplicated: once on the fall-through path,
    # once on the jump path threaded by the early return
    copies = cfg.stmt_nodes(release)
    assert len(copies) == 2
    ret1, ret0 = stmts_of_type(fn, ast.Return)
    n1 = node_of(cfg, ret1)
    assert any(reaches(n1, c) for c in copies)
    assert not reaches(n1, node_of(cfg, ret0))  # the early return escapes


def test_early_return_exits_the_with_block():
    fn = fn_of(
        """
        def f(self, x):
            with self.lock:
                if x:
                    return 1
            return 0
        """
    )
    cfg = build_cfg(fn)
    ret1 = node_of(cfg, stmts_of_type(fn, ast.Return)[0])
    # the jump out of the with block passes a synthetic WITH_EXIT node
    assert [s.kind for s in ret1.succs] == [WITH_EXIT]
    exits = [n for n in cfg.nodes if n.kind == WITH_EXIT]
    assert len(exits) == 2  # jump path + fall-through path
    enters = [n for n in cfg.nodes if n.kind == WITH_ENTER]
    assert len(enters) == 1


def test_try_body_may_raise_into_handler():
    fn = fn_of(
        """
        def f(self):
            try:
                self.work()
            except ValueError:
                self.undo()
            return 0
        """
    )
    cfg = build_cfg(fn)
    work = node_of(cfg, stmts_of_type(fn, ast.Try)[0].body[0])
    handler = [n for n in cfg.nodes if n.kind == EXCEPT]
    assert len(handler) == 1 and handler[0] in work.succs


def test_code_after_return_is_dead():
    fn = fn_of(
        """
        def f():
            return 1
            x = 2
        """
    )
    cfg = build_cfg(fn)
    dead = stmts_of_type(fn, ast.Assign)[0]
    live = {n.idx for n in iter_reachable(cfg)}
    assert all(n.idx not in live for n in cfg.stmt_nodes(dead))


# ---------------------------------------------------------------------------
# dataflow
# ---------------------------------------------------------------------------


def test_exit_exposure_conditional_blocker_leaks():
    fn = fn_of(
        """
        def f(self, x):
            self.items.append(x)
            if x:
                self.mark()
            return x
        """
    )
    cfg = build_cfg(fn)
    mut = node_of(cfg, fn.body[0])
    blocker = node_of(cfg, stmts_of_type(fn, ast.If)[0].body[0])
    assert mut.idx in exposed_nodes(cfg, {blocker.idx})


def test_exit_exposure_unconditional_blocker_covers():
    fn = fn_of(
        """
        def f(self, x):
            self.items.append(x)
            self.mark()
            return x
        """
    )
    cfg = build_cfg(fn)
    mut = node_of(cfg, fn.body[0])
    blocker = node_of(cfg, fn.body[1])
    assert mut.idx not in exposed_nodes(cfg, {blocker.idx})


def _with_lock_delta(node):
    if node.kind == WITH_ENTER:
        return 1
    if node.kind == WITH_EXIT:
        return -1
    return 0


def test_lock_held_inside_with_but_not_after():
    fn = fn_of(
        """
        def f(self):
            with self.lock:
                inside = self.buf[0]
            outside = self.buf[1]
        """
    )
    cfg = build_cfg(fn)
    inside, outside = stmts_of_type(fn, ast.Assign)
    idxs = {node_of(cfg, inside).idx, node_of(cfg, outside).idx}
    unlocked = unlocked_at(cfg, _with_lock_delta, idxs)
    assert node_of(cfg, inside).idx not in unlocked
    assert node_of(cfg, outside).idx in unlocked


def test_lock_held_is_must_not_may():
    fn = fn_of(
        """
        def f(self, x):
            if x:
                self.lock.acquire()
            touched = self.buf[0]
        """
    )

    def delta(node):
        if isinstance(node.stmt, ast.Expr) and "acquire" in ast.dump(node.stmt):
            return 1
        return 0

    cfg = build_cfg(fn)
    touched = node_of(cfg, stmts_of_type(fn, ast.Assign)[0])
    # held on one branch only: must-analysis says unlocked
    assert touched.idx in unlocked_at(cfg, delta, {touched.idx})


# ---------------------------------------------------------------------------
# RL501 on synthetic mutators: hand-written cases
# ---------------------------------------------------------------------------

_TEMPLATE = """\
class Process:
    def mark_dirty(self):
        self._version = getattr(self, "_version", 0) + 1


class Thing(Process):
    def bump(self):
{body}
"""


def _rl501_fires(body: str) -> bool:
    source = _TEMPLATE.format(
        body=textwrap.indent(textwrap.dedent(body), " " * 8)
    )
    findings = lint_source(source)
    assert all(f.code == "RL501" for f in findings)
    return bool(findings)


@pytest.mark.parametrize(
    "body,expected",
    [
        ("self.count += 1", True),
        ("self.count += 1\nself.mark_dirty()", False),
        ("self.mark_dirty()\nself.count += 1", True),
        ("if self.flag:\n    self.count += 1\nself.mark_dirty()", False),
        ("if self.flag:\n    self.count += 1\n    self.mark_dirty()", False),
        ("self.count += 1\nif self.flag:\n    self.mark_dirty()", True),
        ("while self.flag:\n    self.count += 1\n    self.mark_dirty()", False),
        ("while self.flag:\n    self.mark_dirty()\n    self.count += 1", True),
        ("try:\n    self.count += 1\nfinally:\n    self.mark_dirty()", False),
        (
            "if self.flag:\n    return None\n"
            "self.count += 1\nself.mark_dirty()",
            False,
        ),
        (
            "self.count += 1\nif self.flag:\n    return None\n"
            "self.mark_dirty()",
            True,
        ),
        ("return None", False),
        ("self.mark_dirty()", False),
    ],
)
def test_rl501_hand_written(body, expected):
    assert _rl501_fires(body) is expected


# ---------------------------------------------------------------------------
# RL501 property test: generated mutators vs. bounded path enumeration
# ---------------------------------------------------------------------------


@st.composite
def stmt_blocks(draw, depth=0):
    """A random mutator body over {mutate, mark, return, if, while}."""
    kinds = ["mut", "mark", "ret"]
    if depth < 2:
        kinds += ["if", "while"]
    block = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "if":
            orelse = draw(
                st.one_of(st.just(None), stmt_blocks(depth=depth + 1))
            )
            block.append(("if", draw(stmt_blocks(depth=depth + 1)), orelse))
        elif kind == "while":
            block.append(("while", draw(stmt_blocks(depth=depth + 1))))
        else:
            block.append((kind,))
    return block


def _render(block, indent=0):
    pad = "    " * indent
    out = []
    for s in block:
        if s[0] == "mut":
            out.append(pad + "self.count += 1")
        elif s[0] == "mark":
            out.append(pad + "self.mark_dirty()")
        elif s[0] == "ret":
            out.append(pad + "return None")
        elif s[0] == "if":
            out.append(pad + "if self.flag:")
            out.extend(_render(s[1], indent + 1))
            if s[2] is not None:
                out.append(pad + "else:")
                out.extend(_render(s[2], indent + 1))
        elif s[0] == "while":
            out.append(pad + "while self.flag:")
            out.extend(_render(s[1], indent + 1))
    return out


def _run_block(block, states, returns):
    """Propagate the set of possible dirty flags through a block.

    Branch conditions are opaque, so both arms are always feasible;
    loops are unrolled twice, which reaches the fixed point of the
    two-valued dirty state.  Dirty flags live at ``return`` statements
    are accumulated into ``returns``.
    """
    for s in block:
        if not states:
            return states
        if s[0] == "mut":
            states = {True}
        elif s[0] == "mark":
            states = {False}
        elif s[0] == "ret":
            returns |= states
            return set()
        elif s[0] == "if":
            then = _run_block(s[1], set(states), returns)
            other = (
                _run_block(s[2], set(states), returns)
                if s[2] is not None
                else set(states)
            )
            states = then | other
        elif s[0] == "while":
            out, cur = set(states), set(states)
            for _ in range(2):
                cur = _run_block(s[1], cur, returns)
                out |= cur
            states = out
    return states


def _dirty_exit_possible(block) -> bool:
    returns = set()
    fallthrough = _run_block(block, {False}, returns)
    return True in (returns | fallthrough)


@settings(max_examples=50, deadline=None)
@given(stmt_blocks())
def test_rl501_matches_path_enumeration(block):
    body = "\n".join(_render(block)) or "pass"
    assert _rl501_fires(body) is _dirty_exit_possible(block)


# ---------------------------------------------------------------------------
# mutation-style self-tests on real source
# ---------------------------------------------------------------------------


def test_deleting_version_bump_from_network_is_flagged(tmp_path):
    """RL501 catches exactly the drain_income class of bug it was
    built for: a mutator in sim/network.py whose version bump is gone."""
    src = (SRC / "repro" / "sim" / "network.py").read_text()
    assert "self._version += 1" in src
    (tmp_path / "network.py").write_text(
        src.replace("self._version += 1", "pass")
    )
    findings, _ = run_lint([str(tmp_path / "network.py")])
    assert findings, "mutators without a version bump must be flagged"
    assert {f.code for f in findings} == {"RL501"}
    assert any("drain_income" in f.message for f in findings)


def test_deleting_lock_acquire_from_seenset_is_flagged(tmp_path):
    """RL601 catches a shared-memory probe that reads the table without
    first taking its region lock."""
    src = (SRC / "repro" / "engine" / "seenset.py").read_text()
    dropped = src.replace(
        "lock.acquire()\n            held = True", "held = True", 1
    )
    assert dropped != src
    (tmp_path / "seenset.py").write_text(dropped)
    findings, _ = run_lint([str(tmp_path / "seenset.py")])
    assert "RL601" in {f.code for f in findings}, (
        "unlocked shared-buffer access must be flagged"
    )


def test_unmutated_network_and_seenset_are_clean():
    findings, _ = run_lint(
        [
            str(SRC / "repro" / "sim" / "network.py"),
            str(SRC / "repro" / "engine" / "seenset.py"),
        ]
    )
    assert findings == []


# ---------------------------------------------------------------------------
# regressions for the true positives these rules found
# ---------------------------------------------------------------------------


def _msg(i, src, dst, seq):
    return Message(msg_id=i, src=src, dst=dst, link_seq=seq, payload=None)


def test_drain_income_is_canonical_and_bumps_version():
    net = Network(["a", "b", "c"])
    m1 = _msg(1, "a", "c", 0)
    m2 = _msg(2, "b", "c", 0)
    m3 = _msg(3, "a", "c", 1)
    for m in (m1, m2, m3):
        net.post(m)
    # deliver in a scrambled order: the drain must canonicalize it
    net.deliver("b", "c", 0)
    net.deliver("a", "c", 1)
    net.deliver("a", "c", 0)
    before = net._version
    out = net.drain_income("c")
    assert out == [m1, m3, m2]  # (src, link_seq) order
    assert net.income["c"] == []
    assert net._version == before + 1  # the mutation was published
    assert net.drain_income("c") == []
    assert net._version == before + 1  # empty drain mutates nothing


def test_stabilizing_server_tick_marks_dirty():
    s = StabilizingServer("s1", ["x"], ("s1",), {"x": ("s1",)})
    before = s._version
    assert s.tick() == s.clock
    assert s._version == before + 1


def test_seenset_contains_is_read_only():
    s = SharedSeenSet(64)
    try:
        fp = hashlib.blake2b(b"probe", digest_size=16).digest()
        assert fp not in s
        assert s.stats() == (0, 0)  # the probe left no trace
        assert s.claim(fp) is True  # ...and did not claim
        assert fp in s
        assert s.stats() == (0, 1)
        zero = bytes(16)
        assert zero not in s
        assert s.claim(zero) is True
        assert zero in s
    finally:
        s.unlink()
