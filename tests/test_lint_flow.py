"""Tests for the flow-sensitive lint core and the rule built on it.

* CFG construction: branch joins, loop back edges, break/continue,
  finally duplication, with-exit on early return, dead code;
* dataflow: ``LockHeld`` on hand-built methods;
* a mutation-style self-test: deleting a ``lock.acquire()`` from a copy
  of ``engine/seenset.py`` must be flagged;
* regression tests for what the flow-sensitive rules found in this
  tree (``drain_income`` ordering + version bump,
  ``SharedSeenSet.__contains__``).
"""

import ast
import hashlib
import textwrap
from pathlib import Path

from repro.engine.seenset import SharedSeenSet
from repro.lint import run_lint
from repro.lint.cfg import (
    EXCEPT,
    WITH_ENTER,
    WITH_EXIT,
    build_cfg,
    iter_reachable,
)
from repro.lint.dataflow import unlocked_at
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
# mutation-style self-tests on real source
# ---------------------------------------------------------------------------


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
