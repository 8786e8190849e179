"""Replayable scheduler commands.

An execution fragment is fully determined by the configuration it starts
from and the sequence of commands applied to it:

* :class:`StepCmd` — let one process take a computation step;
* :class:`DeliverCmd` — deliver one in-transit message, addressed
  structurally by ``(src, dst, link_seq)``;
* :class:`InvokeCmd` — hand a transaction invocation to a client.

The proof machinery (:mod:`repro.core.splicing`) records the command log
of an execution fragment, filters it (removing all steps of one server,
keeping only the steps of another, ...), and replays the filtered list
from a snapshot.  The paper's legality arguments guarantee that, for a
protocol satisfying the premises, every surviving ``DeliverCmd`` still
addresses a message that exists; if not, :class:`ReplayError` is raised
and identifies the broken premise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.sim.messages import ProcessId


class ReplayError(RuntimeError):
    """A replayed command could not be applied to the current configuration."""


@dataclass(frozen=True, slots=True)
class Command:
    pass


@dataclass(frozen=True, slots=True)
class StepCmd(Command):
    pid: ProcessId

    def __repr__(self) -> str:
        return f"step({self.pid})"


@dataclass(frozen=True, slots=True)
class DeliverCmd(Command):
    src: ProcessId
    dst: ProcessId
    link_seq: int

    def __repr__(self) -> str:
        return f"deliver({self.src}->{self.dst}#{self.link_seq})"


@dataclass(frozen=True, slots=True)
class InvokeCmd(Command):
    pid: ProcessId
    txn: Any

    def __repr__(self) -> str:
        return f"invoke({self.pid}, {self.txn})"


def steps_of(commands: Sequence[Command], pid: ProcessId) -> List[StepCmd]:
    return [c for c in commands if isinstance(c, StepCmd) and c.pid == pid]


def without_steps_of(commands: Sequence[Command], pid: ProcessId) -> List[Command]:
    """Drop every command executed *by* ``pid`` (steps), keeping deliveries.

    Deliveries addressed to ``pid`` are kept — in the model a delivery
    event is performed by the network/adversary, not by the process, and
    the paper's subsequences (β_p, ρ_p) remove only the *steps* taken by
    the excluded server.  Deliveries of messages that the excluded process
    never sent in the filtered run will fail at replay time, which is
    exactly the legality check.
    """
    return [c for c in commands if not (isinstance(c, StepCmd) and c.pid == pid)]


def only_steps_of(commands: Sequence[Command], pid: ProcessId) -> List[Command]:
    """Keep only the steps of ``pid`` plus deliveries addressed to ``pid``."""
    out: List[Command] = []
    for c in commands:
        if isinstance(c, StepCmd) and c.pid == pid:
            out.append(c)
        elif isinstance(c, DeliverCmd) and c.dst == pid:
            out.append(c)
    return out
