"""The protocol registry: name → factories + paper metadata.

Each entry records the Table 1 row the paper claims for the system, so
the Table-1 benchmark can print paper-claimed and measured
characterizations side by side.  Whether the system supports
multi-object write transactions (the flag the impossibility engine
needs) and whether its row claims fast ROTs are read off that row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.process import Process
from repro.txn.client import ClientBase


@dataclass(frozen=True)
class PaperRow:
    """One row of Table 1, as printed in the paper."""

    rounds: str
    values: str
    nonblocking: str
    wtx: str
    consistency: str


@dataclass(frozen=True)
class ProtocolInfo:
    name: str
    title: str
    server_factory: Callable[..., Process]
    client_factory: Callable[..., ClientBase]
    consistency: str  # strongest level the implementation targets
    paper_row: PaperRow
    description: str = ""
    #: safe for the engine's partial-order reduction.  The independence
    #: relation (repro.sim.events) assumes a step reads nothing but the
    #: process's own state and drained inbox — the asynchronous model,
    #: enforced for messages/buffers by the RL4xx purity lints.  Protocols
    #: whose visibility decisions read ``ctx.step_index`` (the TrueTime /
    #: GST-stability families: a synchronized-clock assumption grafted
    #: onto the asynchronous simulator) fall outside that argument —
    #: permuting independent events shifts the clock values their
    #: branches compare — so they set this to False and the explorer
    #: refuses ``por=True``.
    por_safe: bool = True
    #: whether clients accept read-write transactions; generated
    #: workloads hand RW transactions only to protocols that set it
    supports_rw: bool = False
    extras_factory: Optional[Callable[..., List[Process]]] = None
    server_param_names: Tuple[str, ...] = ()
    client_param_names: Tuple[str, ...] = ()

    @property
    def supports_wtx(self) -> bool:
        """The paper's row gives the system multi-object write
        transactions (Table 1's W column); the clients' ``validate``
        accepts them exactly then."""
        return self.paper_row.wtx == "yes"

    @property
    def client_needs_extras(self) -> bool:
        """Clients take the first extra process's pid (e.g. a sequencer)."""
        return self.extras_factory is not None

    @property
    def claims_fast_rot(self) -> bool:
        """The paper's row claims fast ROTs (Definition 5): one round, one
        value per read, non-blocking."""
        row = self.paper_row
        return row.rounds == "1" and row.values == "1" and row.nonblocking == "yes"

    def make_extras(self, servers, placement, params) -> List[Process]:
        if self.extras_factory is None:
            return []
        return self.extras_factory(servers, placement, params)

    def make_server(self, pid, objects, peers, placement, params, extra_pids):
        kwargs = {k: params[k] for k in self.server_param_names if k in params}
        return self.server_factory(pid, objects, peers, placement, **kwargs)

    def make_client(self, pid, servers, placement, params, extra_pids):
        kwargs = {k: params[k] for k in self.client_param_names if k in params}
        if self.client_needs_extras:
            return self.client_factory(pid, servers, placement, extra_pids[0], **kwargs)
        return self.client_factory(pid, servers, placement, **kwargs)


REGISTRY: Dict[str, ProtocolInfo] = {}


def _register(info: ProtocolInfo) -> None:
    if info.name in REGISTRY:
        raise ValueError(f"duplicate protocol {info.name}")
    REGISTRY[info.name] = info


def get_protocol(name: str) -> ProtocolInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {', '.join(sorted(REGISTRY))}"
        ) from None


def protocol_names() -> Tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def _build_registry() -> None:
    from repro.protocols.calvin import CalvinClient, CalvinSequencer, CalvinServer
    from repro.protocols.contrarian import ContrarianClient, ContrarianServer
    from repro.protocols.cops import CopsClient, CopsServer
    from repro.protocols.cops_rw import CopsRwClient, CopsRwServer
    from repro.protocols.cops_snow import CopsSnowClient, CopsSnowServer
    from repro.protocols.cure import CureClient, CureServer
    from repro.protocols.eiger import EigerClient, EigerServer
    from repro.protocols.fastclaim import FastClaimClient, FastClaimServer
    from repro.protocols.gentlerain import GentleRainClient, GentleRainServer
    from repro.protocols.orbe import OrbeClient, OrbeServer
    from repro.protocols.ramp import RampClient, RampServer
    from repro.protocols.spanner import SpannerClient, SpannerServer
    from repro.protocols.wren import WrenClient, WrenServer

    _register(
        ProtocolInfo(
            name="cops",
            title="COPS",
            server_factory=CopsServer,
            client_factory=CopsClient,
            consistency="causal",
            paper_row=PaperRow("<=2", "<=2", "yes", "no", "Causal Consistency"),
            description="dependency-tracked puts; two-round get_trans",
        )
    )
    _register(
        ProtocolInfo(
            name="cops_snow",
            title="COPS-SNOW",
            server_factory=CopsSnowServer,
            client_factory=CopsSnowClient,
            consistency="causal",
            paper_row=PaperRow("1", "1", "yes", "no", "Causal Consistency"),
            description="fast ROTs via readers checks (the N+R+V corner)",
        )
    )
    _register(
        ProtocolInfo(
            name="eiger",
            title="Eiger",
            server_factory=EigerServer,
            client_factory=EigerClient,
            consistency="causal",
            paper_row=PaperRow("<=3", "<=2", "yes", "yes", "Causal Consistency"),
            description="2PC-CI write txns; multi-round non-blocking reads",
        )
    )
    _register(
        ProtocolInfo(
            name="orbe",
            title="Orbe",
            server_factory=OrbeServer,
            client_factory=OrbeClient,
            consistency="causal",
            paper_row=PaperRow("2", "1", "no", "no", "Causal Consistency"),
            description="vector snapshots; blocking reads",
            # visibility branches on the global step counter (the
            # synchronized-clock model) — outside the asynchronous
            # commutation argument behind the POR independence relation
            por_safe=False,
        )
    )
    _register(
        ProtocolInfo(
            name="gentlerain",
            title="GentleRain",
            server_factory=GentleRainServer,
            client_factory=GentleRainClient,
            consistency="causal",
            paper_row=PaperRow("2", "1", "no", "no", "Causal Consistency"),
            description="scalar GST snapshots; blocking reads, O(1) metadata",
            # visibility branches on the global step counter (the
            # synchronized-clock model) — outside the asynchronous
            # commutation argument behind the POR independence relation
            por_safe=False,
        )
    )
    _register(
        ProtocolInfo(
            name="contrarian",
            title="Contrarian",
            server_factory=ContrarianServer,
            client_factory=ContrarianClient,
            consistency="causal",
            paper_row=PaperRow("2", "1", "yes", "no", "Causal Consistency"),
            description="pre-stabilized snapshots; non-blocking two-round reads",
            # visibility branches on the global step counter (the
            # synchronized-clock model) — outside the asynchronous
            # commutation argument behind the POR independence relation
            por_safe=False,
        )
    )
    _register(
        ProtocolInfo(
            name="wren",
            title="Wren",
            server_factory=WrenServer,
            client_factory=WrenClient,
            consistency="causal",
            paper_row=PaperRow("2", "1", "yes", "yes", "Causal Consistency"),
            description="the N+V+W corner: stable snapshots + 2PC write txns",
            # visibility branches on the global step counter (the
            # synchronized-clock model) — outside the asynchronous
            # commutation argument behind the POR independence relation
            por_safe=False,
        )
    )
    _register(
        ProtocolInfo(
            name="cure",
            title="Cure",
            server_factory=CureServer,
            client_factory=CureClient,
            consistency="causal",
            paper_row=PaperRow("2", "1", "no", "yes", "Causal Consistency"),
            description="vector snapshots + 2PC write txns; blocking reads",
            # visibility branches on the global step counter (the
            # synchronized-clock model) — outside the asynchronous
            # commutation argument behind the POR independence relation
            por_safe=False,
        )
    )
    _register(
        ProtocolInfo(
            name="ramp",
            title="RAMP",
            server_factory=RampServer,
            client_factory=RampClient,
            consistency="read-atomic",
            paper_row=PaperRow("<=2", "<=2", "yes", "yes", "Read Atomicity"),
            description="read-atomic multi-partition transactions",
        )
    )
    from repro.protocols.occult import OccultClient, OccultServer
    from repro.protocols.ramp_small import RampSmallClient, RampSmallServer

    _register(
        ProtocolInfo(
            name="occult",
            title="Occult",
            server_factory=OccultServer,
            client_factory=OccultClient,
            consistency="causal",
            paper_row=PaperRow(">=1", ">=1", "yes", "yes", "Per Client Parallel SI"),
            description=(
                "master/slave shardstamps; clients repair staleness by "
                "retrying (no slowdown cascades)"
            ),
        )
    )

    _register(
        ProtocolInfo(
            name="ramp_small",
            title="RAMP-Small",
            server_factory=RampSmallServer,
            client_factory=RampSmallClient,
            consistency="read-atomic",
            paper_row=PaperRow("2", "<=2", "yes", "yes", "Read Atomicity"),
            description="two fixed rounds, constant metadata (the RAMP family's "
            "other trade-off)",
        )
    )
    _register(
        ProtocolInfo(
            name="spanner",
            title="Spanner",
            server_factory=SpannerServer,
            client_factory=SpannerClient,
            supports_rw=True,
            consistency="strict-serializable",
            paper_row=PaperRow("1", "1", "no", "yes", "Strict Serializability"),
            description="the R+V+W corner: TrueTime reads, locking 2PC writes",
            # TrueTime *is* a synchronized clock: commit-wait reads the
            # global step counter, so schedules do not commute
            por_safe=False,
            server_param_names=("epsilon",),
            client_param_names=("epsilon",),
        )
    )
    _register(
        ProtocolInfo(
            name="calvin",
            title="Calvin",
            server_factory=CalvinServer,
            client_factory=CalvinClient,
            supports_rw=True,
            consistency="strict-serializable",
            paper_row=PaperRow("2", "1", "no", "yes", "Strict Serializability"),
            description="deterministic sequencing",
            extras_factory=lambda servers, placement, params: [
                CalvinSequencer("seq0", servers, placement)
            ],
        )
    )
    _register(
        ProtocolInfo(
            name="cops_rw",
            title="COPS-RW (paper §3.4 N+R+W sketch)",
            server_factory=CopsRwServer,
            client_factory=CopsRwClient,
            consistency="causal",
            paper_row=PaperRow("1", "many", "yes", "yes", "Causal Consistency"),
            description="ships sibling and dependency values with every read",
        )
    )
    from repro.protocols.handshake import HandshakeClient, HandshakeServer
    from repro.protocols.swiftcloud import SwiftCloudClient, SwiftCloudServer

    _register(
        ProtocolInfo(
            name="swiftcloud",
            title="SwiftCloud† (different system model)",
            server_factory=SwiftCloudServer,
            client_factory=SwiftCloudClient,
            consistency="causal",
            paper_row=PaperRow("1", "1", "yes", "yes", "Causal Consistency"),
            description=(
                "fast ROTs + WTX by unbounded staleness: reads at a lazily "
                "advancing epoch — violates the minimal-progress premise "
                "(the paper's §4 loophole)"
            ),
            # epoch advancement branches on the stability clock (global
            # step counter) — same synchrony caveat as the GST family
            por_safe=False,
            client_param_names=("sync_every",),
        )
    )
    _register(
        ProtocolInfo(
            name="handshake",
            title="Handshake-K (tunable strawman)",
            server_factory=HandshakeServer,
            client_factory=HandshakeClient,
            consistency="causal",  # the *claim*; Theorem 1 refutes it
            paper_row=PaperRow("1", "1", "yes", "yes", "(impossible)"),
            description=(
                "delays visibility behind 2K server-to-server hops; the "
                "induction's depth-k specimen"
            ),
            server_param_names=("sync_hops",),
        )
    )
    _register(
        ProtocolInfo(
            name="fastclaim",
            title="FastClaim (impossible strawman)",
            server_factory=FastClaimServer,
            client_factory=FastClaimClient,
            supports_rw=True,
            consistency="causal",  # the *claim*; Theorem 1 refutes it
            paper_row=PaperRow("1", "1", "yes", "yes", "(impossible)"),
            description="claims all four properties; the theorem's target",
        )
    )


_build_registry()
