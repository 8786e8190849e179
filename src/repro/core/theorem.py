"""Theorem 1, as an executable check.

``check_impossibility(protocol)`` confronts a protocol with the
theorem's four properties and reports which one it gives up:

1. **W** — can it even accept the multi-object write-only transaction
   ``T_w = (w(X0)x0, w(X1)x1)``?  (COPS, COPS-SNOW, Orbe, GentleRain,
   Contrarian refuse → ``NO_MULTI_WRITE``.)
2. **N/O/V** — are its read-only transactions measured fast on a
   concurrent probe workload?  (Wren, Cure, Eiger, RAMP, Spanner,
   Calvin, COPS-RW fail at least one sub-property → ``NOT_FAST``.)
3. If it claims all four, the Lemma 3 induction runs: either a spliced
   execution produces a mixed read — a causal-consistency violation
   witness (``CAUSAL_VIOLATION``, e.g. FastClaim) — or the write's
   visibility keeps being pushed out by forced messages round after
   round (``UNBOUNDED_VISIBILITY``) or stalls outright (``STALLED``).

Every outcome demonstrates the theorem's trade-off on that protocol.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.analysis.metrics import Characterization, measure
from repro.core.induction import run_induction
from repro.core.setup import SetupError, TheoremSystem, prepare_theorem_system
from repro.core.witness import (
    NO_MULTI_WRITE,
    NOT_FAST,
    STALLED,
    TheoremVerdict,
)
from repro.txn.client import UnsupportedTransaction
from repro.workloads.generators import DEFAULT_FAST_SPEC


def prepare_or_verdict(
    protocol: str, fast_report: Optional[Characterization] = None, **setup: Any
) -> Union[TheoremSystem, TheoremVerdict]:
    """Figure 1's ``C_0`` and property W, the preamble of both drivers.

    Returns the prepared system, or the verdict that ends the check:
    ``STALLED`` when setup fails, ``NO_MULTI_WRITE`` when ``c_w`` refuses
    ``T_w``.  ``fast_report`` is attached to either verdict.
    """
    try:
        tsys = prepare_theorem_system(protocol, **setup)
    except SetupError as exc:
        return TheoremVerdict(
            protocol=protocol,
            outcome=STALLED,
            detail=f"setup failed: {exc}",
            fast_report=fast_report,
        )
    try:
        tsys.system.client(tsys.cw).validate(tsys.tw())
    except UnsupportedTransaction as exc:
        return TheoremVerdict(
            protocol=protocol,
            outcome=NO_MULTI_WRITE,
            detail=(
                f"the protocol refuses multi-object write transactions: {exc} "
                "— it keeps fast ROTs by giving up W"
            ),
            fast_report=fast_report,
        )
    return tsys


def check_impossibility(
    protocol: str,
    max_k: int = 8,
    objects: Sequence[str] = ("X0", "X1"),
    n_servers: int = 2,
    skip_fast_check: bool = False,
    **params: Any,
) -> TheoremVerdict:
    """Run the full Theorem 1 check against one protocol."""
    fast_report: Optional[Characterization] = None
    if not skip_fast_check:
        fast_report = measure(protocol, DEFAULT_FAST_SPEC, check=False, **params)

    # property W: does the protocol accept T_w at all?
    tsys = prepare_or_verdict(
        protocol, fast_report, objects=objects, n_servers=n_servers, **params
    )
    if isinstance(tsys, TheoremVerdict):
        return tsys

    # properties N/O/V: measured fastness
    if fast_report is not None and not fast_report.fast:
        return TheoremVerdict(
            protocol=protocol,
            outcome=NOT_FAST,
            detail=(
                "the protocol keeps multi-object write transactions by "
                "giving up " + "; ".join(fast_report.failing_properties())
            ),
            fast_report=fast_report,
        )

    # the protocol claims everything: run the induction
    verdict = run_induction(tsys, max_k=max_k)
    verdict.fast_report = fast_report
    return verdict

