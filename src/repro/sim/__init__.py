"""Asynchronous message-passing simulator.

This package implements the system model of Section 2 of the paper:

* processes (clients and servers) are deterministic state machines whose
  state includes one *income* and one *outcome* buffer per incident link;
* a **computation step** lets a process read all messages residing in its
  income buffers, perform local computation, and send at most one message
  to each of its neighbours;
* a **delivery event** removes one message from the outcome buffer of the
  source and places it in the income buffer of the destination;
* links do not lose, modify, inject or duplicate messages;
* the order of events is controlled by an adversary (a
  :class:`~repro.sim.scheduler.Scheduler` or an explicit script of
  :mod:`~repro.sim.events` moves).

The simulator is deterministic: an execution is a pure function of the
initial configuration and the sequence of events applied to it.  A
:meth:`Simulation.recording` window records that sequence and
:meth:`Simulation.replay` re-applies it, filtered or not, which is what
makes the paper's indistinguishability splices executable (see
:mod:`repro.core.splicing`).
"""

from repro.sim.messages import Message, Payload
from repro.sim.process import Process, StepContext
from repro.sim.network import Network
from repro.sim.executor import (
    PICKLE_PROTOCOL,
    SNAPSHOT_MODES,
    Simulation,
    Configuration,
    DeepCopyConfiguration,
    ReplayError,
    SimCounters,
    use_snapshot_mode,
)
from repro.sim.scheduler import (
    Scheduler,
    RoundRobinScheduler,
    RandomScheduler,
    run_until_quiescent,
)
from repro.sim.trace import TraceEvent, StepEvent, DeliverEvent, InvokeEvent
from repro.sim.clock import TrueTimeOracle, TTInterval

__all__ = [
    "Message",
    "Payload",
    "Process",
    "StepContext",
    "Network",
    "PICKLE_PROTOCOL",
    "SNAPSHOT_MODES",
    "Simulation",
    "Configuration",
    "DeepCopyConfiguration",
    "SimCounters",
    "use_snapshot_mode",
    "ReplayError",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "run_until_quiescent",
    "TraceEvent",
    "StepEvent",
    "DeliverEvent",
    "InvokeEvent",
    "TrueTimeOracle",
    "TTInterval",
]
