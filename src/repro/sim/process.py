"""Process state machines and the step context.

A :class:`Process` models one node of the system graph (a client or a
server).  The simulator calls :meth:`Process.on_step` to perform a
*computation step*: the process receives every message currently residing
in its income buffers and may send at most one message to each neighbour
through the :class:`StepContext`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.messages import Message, Payload, ProcessId


class StepContext:
    """Capability handed to a process for the duration of one step.

    Enforces the model's "at most one message per neighbour per step" rule
    and collects the sends so the executor can place them in the outcome
    buffers atomically at the end of the step.
    """

    #: whether the step read :attr:`step_index`; a step that did not
    #: took the same path at every index (see ``Snapshotter.apply``)
    index_read = False

    def __init__(self, pid: ProcessId, neighbors: Iterable[ProcessId], step_index: int):
        self.pid = pid
        self._neighbors = frozenset(neighbors)
        self._step_index = step_index
        self._sends: Dict[ProcessId, Payload] = {}

    @property
    def step_index(self) -> int:
        """The global event counter at this step (recorded as read)."""
        self.index_read = True
        return self._step_index

    def send(self, dst: ProcessId, payload: Payload) -> None:
        """Queue ``payload`` for ``dst``.  At most one send per neighbour."""
        if dst == self.pid:
            raise ValueError(f"{self.pid} attempted to send to itself")
        if dst not in self._neighbors:
            raise ValueError(f"{self.pid} has no link to {dst}")
        if dst in self._sends:
            raise ValueError(
                f"{self.pid} attempted a second send to {dst} in one step "
                "(the model allows at most one message per neighbour per step)"
            )
        self._sends[dst] = payload

    def sent_to(self, dst: ProcessId) -> bool:
        """Whether a message to ``dst`` is already queued this step."""
        return dst in self._sends

    @property
    def sends(self) -> List[Tuple[ProcessId, Payload]]:
        return list(self._sends.items())


class Process:
    """Base class for all simulated processes.

    Subclasses implement :meth:`on_step`.  All state must be held in plain
    Python attributes so that :meth:`repro.sim.executor.Simulation.snapshot`
    (a serialization) captures the full configuration.  State changes in
    :meth:`on_step` and ``on_invoke``; the snapshot machinery caches
    nothing about a process it cannot see change (``docs/model.md``).
    """

    def __init__(self, pid: ProcessId):
        self.pid = pid

    def __getstate__(self):
        # a copy: object.__getstate__() returns the live __dict__ itself,
        # and fp_state() overrides write their masks into what this returns
        return dict(self.__dict__)

    def fp_state(self):
        """State as seen by *trace-canonical* fingerprints.

        Defaults to the full snapshot state.  Subclasses that record
        purely diagnostic data derived from the global event counter —
        data the process never branches on, such as a client's
        invocation/completion stamps — override this to mask it, so
        configurations that differ only by a permutation of independent
        events collide under ``Simulation.fingerprint(canonical=True)``.
        State the process *does* branch on must never be masked; a
        protocol whose decisions read the global counter itself (a
        synchronized-clock model) cannot be canonicalized this way and
        must set ``por_safe=False`` in the registry instead.
        """
        return self.__getstate__()

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        """Perform one computation step.

        ``inbox`` contains *all* messages delivered to this process since
        its previous step (the model: a step reads all messages residing in
        the income buffers).  Sends go through ``ctx.send``.
        """
        raise NotImplementedError

    def wants_step(self) -> bool:
        """Whether stepping this process (with an empty inbox) is useful.

        Used by fair schedulers to decide quiescence: a configuration is
        quiescent only when no messages are in transit or pending delivery
        and no process wants a step.  Processes with deferred work (a
        blocked read, an unfinished commit-wait, replication queues) must
        return ``True``.  A wanted step can still change nothing (a
        client waiting for replies): :meth:`stutters` says when.
        """
        return False

    def stutters(self) -> bool:
        """Whether a step with an empty inbox changes nothing and sends
        nothing.  The DFS decides such a step from its seen-set instead
        of taking it (``docs/model.md``); ``False`` is always sound."""
        return False


class NullProcess(Process):
    """A process that does nothing; handy in tests."""

    def on_step(self, ctx: StepContext, inbox: Sequence[Message]) -> None:
        return None
