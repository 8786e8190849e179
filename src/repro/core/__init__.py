"""The paper's impossibility proof, executable.

Pipeline: :func:`~repro.core.theorem.check_impossibility` (Theorem 1,
two servers) and
:func:`~repro.core.general.check_impossibility_general` (Theorem 2,
m servers / partial replication) drive, per protocol:

1. :func:`~repro.analysis.metrics.measure` — measured fast-ROT verification;
2. :mod:`~repro.core.setup` — the Figure 1 initialization to ``C_0``;
3. :mod:`~repro.core.induction` — the Lemma 3 / Lemma 6 induction
   (one loop, :func:`~repro.core.induction.induct`, with the theorem's
   roles), using
   :mod:`~repro.core.visibility` (Definition 2 probes),
   :mod:`~repro.core.constructions` (Constructions 1–2) and
   :mod:`~repro.core.splicing` (β_new/ρ_new) to assemble the γ/δ
   executions whose mixed reads are the concrete Lemma 1 contradictions.
"""

from repro.core.constructions import (
    ConstructionError,
    SigmaOldResult,
    finish_with_new,
    run_sigma_old,
)
from repro.core.general import check_impossibility_general, run_general_induction
from repro.core.induction import (
    MsDetector,
    build_splice_witness,
    run_induction,
)
from repro.core.setup import SetupError, TheoremSystem, prepare_theorem_system
from repro.core.splicing import RecordedFragment, SpliceError, splice_new
from repro.core.theorem import check_impossibility
from repro.core.visibility import FrozenScheduler, probe_read, values_visible
from repro.core.witness import (
    CAUSAL_VIOLATION,
    INCONCLUSIVE,
    NO_MULTI_WRITE,
    NOT_FAST,
    OUTCOMES,
    STALLED,
    UNBOUNDED_VISIBILITY,
    MixedReadWitness,
    TheoremVerdict,
)

__all__ = [
    "ConstructionError",
    "SigmaOldResult",
    "finish_with_new",
    "run_sigma_old",
    "check_impossibility_general",
    "run_general_induction",
    "MsDetector",
    "build_splice_witness",
    "run_induction",
    "SetupError",
    "TheoremSystem",
    "prepare_theorem_system",
    "RecordedFragment",
    "SpliceError",
    "splice_new",
    "check_impossibility",
    "FrozenScheduler",
    "probe_read",
    "values_visible",
    "CAUSAL_VIOLATION",
    "INCONCLUSIVE",
    "NO_MULTI_WRITE",
    "NOT_FAST",
    "OUTCOMES",
    "STALLED",
    "UNBOUNDED_VISIBILITY",
    "MixedReadWitness",
    "TheoremVerdict",
]
