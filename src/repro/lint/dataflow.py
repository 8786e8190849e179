"""A worklist dataflow framework over :mod:`repro.lint.cfg` graphs.

:func:`solve` is the generic fixed-point engine: give it a CFG and a
forward :class:`Analysis` (boundary value, join, transfer) and it
iterates to convergence.  The one analysis the flow-sensitive rules
run is provided here so rules stay declarative:

* :class:`LockHeld` — forward *must* analysis over a small gen/kill
  vocabulary: how many lock handles are certainly held at each point?
  RL601 instantiates gens = lock acquires / lock ``with`` entries and
  kills = releases / ``with`` exits, then flags shared-buffer accesses
  whose in-state holds nothing.

The lattice is tiny (a small int), so convergence is a handful of
passes even on the largest methods in the tree.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generic, Iterable, Optional, Set, Tuple, TypeVar

from repro.lint.cfg import CFG, CFGNode

V = TypeVar("V")


class Analysis(Generic[V]):
    """One forward dataflow problem: lattice and transfer."""

    def boundary(self) -> V:
        """Value at the entry node."""
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

    *in* joins the predecessors' *out*; *out* = transfer(node, in).
    """
    values: Dict[int, V] = {n.idx: analysis.initial() for n in cfg.nodes}

    def incoming_of(node: CFGNode) -> V:
        """The join of the values flowing into ``node``."""
        sources = node.preds
        if node is cfg.entry:
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
            for dep in node.succs:
                if dep.idx not in in_work:
                    in_work.add(dep.idx)
                    work.append(dep)

    return {n.idx: (incoming_of(n), values[n.idx]) for n in cfg.nodes}


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
