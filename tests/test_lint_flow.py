"""Tests for RL601, the lexical lock check, and what it guards.

* RL601 on hand-written tables: a buffer access is covered by an
  enclosing ``with`` on a lock in the same function, and by nothing
  else — not a ``with`` on another branch, not one around a nested
  ``def`` or ``lambda``;
* a mutation-style self-test: taking the ``with self.lock:`` out of a
  copy of ``engine/seenset.py`` must be flagged;
* a regression test for what the old flow-sensitive rules found in
  this tree (``drain_income`` ordering + version bump).
"""

import textwrap
from pathlib import Path

from repro.lint import run_lint
from repro.sim.messages import Message
from repro.sim.network import Network

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


# ---------------------------------------------------------------------------
# RL601 on hand-written tables
# ---------------------------------------------------------------------------


TABLE = """\
class Table:
    def __init__(self, shm, lock):
        self.shm = shm
        self.lock = lock
"""


def rl601_lines(tmp_path, body: str):
    """The lines of ``body``, a method appended to ``TABLE``, that RL601
    flags, numbered from ``body``'s first line."""
    path = tmp_path / "table.py"
    path.write_text(TABLE + textwrap.indent(textwrap.dedent(body), "    "))
    findings, _ = run_lint([str(path)])
    offset = TABLE.count("\n")
    return sorted(f.line - offset for f in findings if f.code == "RL601")


def test_lock_held_inside_with_but_not_after(tmp_path):
    assert rl601_lines(
        tmp_path,
        """
        def f(self):
            with self.lock:
                inside = self.shm.buf[0]
            outside = self.shm.buf[1]
        """,
    ) == [5]


def test_lock_held_is_must_not_may(tmp_path):
    # held on one branch only: the access after the branch is unlocked
    assert rl601_lines(
        tmp_path,
        """
        def f(self, x):
            if x:
                with self.lock:
                    pass
            touched = self.shm.buf[0]
        """,
    ) == [6]


def test_early_return_exits_the_with_block(tmp_path):
    # the early return's value is read inside the block; the code after
    # the block runs once the lock is released
    assert rl601_lines(
        tmp_path,
        """
        def f(self, x):
            with self.lock:
                if x:
                    return self.shm.buf[0]
            return self.shm.buf[1]
        """,
    ) == [6]


def test_a_buffer_alias_is_checked_like_the_buffer(tmp_path):
    assert rl601_lines(
        tmp_path,
        """
        def f(self):
            buf = self.shm.buf
            with self.lock:
                buf[0] = 1
            return buf[1]
        """,
    ) == [6]


def test_a_nested_def_or_lambda_leaves_the_with_block(tmp_path):
    # their bodies run whenever they are called, not under this with
    assert rl601_lines(
        tmp_path,
        """
        def f(self):
            with self.lock:
                def peek():
                    return self.shm.buf[0]
                first = lambda: self.shm.buf[1]
                def poke():
                    with self.lock:
                        self.shm.buf[2] = 1
            return peek, first, poke
        """,
    ) == [5, 6]


# ---------------------------------------------------------------------------
# mutation-style self-tests on real source
# ---------------------------------------------------------------------------


def test_taking_the_lock_out_of_seenset_is_flagged(tmp_path):
    """RL601 catches a claim that reads and writes the shared table
    without holding its lock."""
    src = (SRC / "repro" / "engine" / "seenset.py").read_text()
    dropped = src.replace("with self.lock:\n", "if True:\n", 1)
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
# regressions for the true positives the flow-sensitive rules found
# ---------------------------------------------------------------------------


def _msg(i, src, dst, seq):
    return Message(msg_id=i, src=src, dst=dst, link_seq=seq, payload=None)


def test_drain_income_is_canonical_and_records_its_write():
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
    net._touched = set()  # what a digest's recording starts with
    out = net.drain_income("c")
    assert out == [m1, m3, m2]  # (src, link_seq) order
    assert net.income["c"] == []
    assert net._touched == {"c"}  # the write was recorded
    net._touched.clear()
    assert net.drain_income("c") == []
    assert net._touched == set()  # empty drain writes nothing

