"""A worklist dataflow framework over :mod:`repro.lint.cfg` graphs.

:func:`solve` is the generic fixed-point engine: give it a CFG and an
:class:`Analysis` (direction, boundary value, join, transfer) and it
iterates to convergence.  The two analyses the flow-sensitive rule
families actually run are provided here so rules stay declarative:

* :class:`ExitExposure` — backward *may* analysis: from which nodes can
  the normal ``exit`` be reached **without** passing through a blocker
  node?  RL501 instantiates blockers = mark nodes; a mutation node with
  an exposed successor has a path to return that misses ``mark_dirty``.
  Explicit ``raise`` exits are deliberately not exposure sources: an
  aborting path hands no stale snapshot to anyone.
* :class:`LockHeld` — forward *must* analysis over a small gen/kill
  vocabulary: how many lock handles are certainly held at each point?
  RL601 instantiates gens = lock acquires / lock ``with`` entries and
  kills = releases / ``with`` exits, then flags shared-buffer accesses
  whose in-state holds nothing.

Both lattices are tiny (bool / small int), so convergence is a handful
of passes even on the largest methods in the tree.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generic, Iterable, Optional, Set, Tuple, TypeVar

from repro.lint.cfg import CFG, CFGNode

V = TypeVar("V")

FORWARD = "forward"
BACKWARD = "backward"


class Analysis(Generic[V]):
    """One dataflow problem: direction, lattice and transfer."""

    direction: str = FORWARD

    def boundary(self) -> V:
        """Value at the boundary node (entry forward, exits backward)."""
        raise NotImplementedError

    def initial(self) -> V:
        """The optimistic starting value for every other node (⊥)."""
        raise NotImplementedError

    def join(self, a: V, b: V) -> V:
        raise NotImplementedError

    def transfer(self, node: CFGNode, value: V) -> V:
        return value


def solve(cfg: CFG, analysis: Analysis[V]) -> Dict[int, Tuple[V, V]]:
    """Run ``analysis`` to fixed point; ``node.idx -> (in, out)``.

    Forward: *in* joins predecessors' *out*; *out* = transfer(node, in).
    Backward the roles flip (in = transfer over joined successor ins),
    but the returned pair keeps the same orientation — ``(toward
    entry, toward exit)`` — so callers index it uniformly.
    """
    forward = analysis.direction == FORWARD
    values: Dict[int, V] = {n.idx: analysis.initial() for n in cfg.nodes}
    if forward:
        boundary_nodes = [cfg.entry]
    else:
        boundary_nodes = [cfg.exit, cfg.raise_exit]

    def incoming_of(node: CFGNode) -> V:
        """The join of the values flowing into ``node``."""
        sources = node.preds if forward else node.succs
        if node in boundary_nodes:
            incoming = analysis.boundary()
        elif sources:
            incoming, sources = values[sources[0].idx], sources[1:]
        else:
            return analysis.initial()
        for s in sources:
            incoming = analysis.join(incoming, values[s.idx])
        return incoming

    work = deque(cfg.nodes)
    in_work: Set[int] = {n.idx for n in cfg.nodes}
    while work:
        node = work.popleft()
        in_work.discard(node.idx)
        new = analysis.transfer(node, incoming_of(node))
        if new != values[node.idx]:
            values[node.idx] = new
            for dep in node.succs if forward else node.preds:
                if dep.idx not in in_work:
                    in_work.add(dep.idx)
                    work.append(dep)

    out: Dict[int, Tuple[V, V]] = {}
    for n in cfg.nodes:
        incoming = incoming_of(n)
        if forward:
            out[n.idx] = (incoming, values[n.idx])
        else:
            out[n.idx] = (values[n.idx], incoming)
    return out


# --------------------------------------------------------------------------
# exit exposure (RL501)
# --------------------------------------------------------------------------


class ExitExposure(Analysis[bool]):
    """Backward may-analysis: "can this node reach ``exit`` without
    crossing a blocker?"  A blocker node's value is forced False — the
    path is considered covered the moment it hits a mark."""

    direction = BACKWARD

    def __init__(self, blockers: Set[int]):
        self.blockers = blockers

    def boundary(self) -> bool:
        return True

    def initial(self) -> bool:
        return False

    def join(self, a: bool, b: bool) -> bool:
        return a or b

    def transfer(self, node: CFGNode, value: bool) -> bool:
        if node.idx in self.blockers:
            return False
        return value


def exposed_nodes(cfg: CFG, blockers: Set[int]) -> Set[int]:
    """Node indices from which ``exit`` is reachable blocker-free.

    The ``raise_exit`` boundary is excluded: only normal returns expose
    stale state to the snapshot cache.  A node that *is* a blocker is
    never exposed; a mutation node is "dirty" when any of its
    *successors* is exposed (the mutation happens, then a return path
    exists that never marks).
    """
    exposure = _RaiseBlindExposure(blockers)
    sol = solve(cfg, exposure)
    return {idx for idx, (toward_entry, _toward_exit) in sol.items() if toward_entry}


class _RaiseBlindExposure(ExitExposure):
    """ExitExposure with the raise_exit boundary pinned False."""

    def transfer(self, node: CFGNode, value: bool) -> bool:
        if node.kind == "raise_exit":
            return False
        return super().transfer(node, value)


def dirty_mutations(
    cfg: CFG,
    mutation_idxs: Iterable[int],
    mark_idxs: Set[int],
) -> Set[int]:
    """The mutation nodes with an unmarked path to the normal exit.

    A mutation node's own exposure value already encodes "there is a
    path *from here on* that returns without crossing a mark" — the
    backward transfer at the node joins over its successors, so a
    mutation immediately followed by a mark on every path is clean.
    """
    exposed = exposed_nodes(cfg, mark_idxs)
    return {m for m in mutation_idxs if m in exposed}


# --------------------------------------------------------------------------
# lock tracking (RL601)
# --------------------------------------------------------------------------


class LockHeld(Analysis[Optional[int]]):
    """Forward must-analysis: the number of lock handles certainly held.

    The value is ``None`` for not-yet-reached (⊥, join identity) or a
    small int.  Join is ``min`` — a point reachable both with and
    without the lock counts as unlocked.  ``classify(node)`` returns
    +1 for an acquire-like node, -1 for a release-like node, 0
    otherwise; the count is floored at zero so an unmatched release
    cannot manufacture negative credit.
    """

    direction = FORWARD

    def __init__(self, classify: Callable[[CFGNode], int]):
        self.classify = classify

    def boundary(self) -> Optional[int]:
        return 0

    def initial(self) -> Optional[int]:
        return None

    def join(self, a: Optional[int], b: Optional[int]) -> Optional[int]:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def transfer(self, node: CFGNode, value: Optional[int]) -> Optional[int]:
        if value is None:
            return None
        return max(0, value + self.classify(node))


def unlocked_at(
    cfg: CFG,
    classify: Callable[[CFGNode], int],
    interesting: Iterable[int],
) -> Set[int]:
    """The subset of ``interesting`` node indices whose in-state holds
    no lock on some path (must-held count is 0 or unreached)."""
    sol = solve(cfg, LockHeld(classify))
    out: Set[int] = set()
    for idx in interesting:
        held_in, _held_out = sol[idx]
        if not held_in:
            out.add(idx)
    return out
