"""repro.engine — the unified schedule-space exploration engine.

Public surface:

* :func:`repro.engine.core.run` — explore a prepared system depth
  first, with optional sleep-set partial-order reduction and optional
  parallel frontier workers;
* :class:`repro.engine.core.ExplorationResult` — the result record,
  extending the repo-wide :class:`repro.engine.outcome.SearchOutcome`
  budget vocabulary;
* the typed event model itself lives in :mod:`repro.sim.events` (the sim
  layer owns what an event *is*; the engine owns how the space of event
  sequences is searched).
"""

from repro.engine.core import (
    ExplorationResult,
    SearchNode,
    SerialSearch,
    resolve_checker,
    run,
)
from repro.engine.outcome import SearchOutcome

__all__ = [
    "ExplorationResult",
    "SearchNode",
    "SearchOutcome",
    "SerialSearch",
    "resolve_checker",
    "run",
]
