"""Command-line interface.

::

    python -m repro list                         # the protocol zoo
    python -m repro theorem fastclaim            # run Theorem 1
    python -m repro theorem fastclaim --general --servers 3 --objects 4
    python -m repro table1                       # regenerate Table 1
    python -m repro figure 3                     # regenerate a figure
    python -m repro workload wren --txns 100     # run + characterize
    python -m repro check cops_snow              # consistency spot-check
    python -m repro explore fastclaim --por      # schedule-space search

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence


def _objects(n: int) -> tuple:
    return tuple(f"X{i}" for i in range(n))


def cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.protocols import REGISTRY

    rows = []
    for name in sorted(REGISTRY):
        info = REGISTRY[name]
        paper = info.paper_row
        rows.append(
            [
                name,
                info.title,
                f"{paper.rounds}/{paper.values}/{paper.nonblocking}",
                "yes" if info.supports_wtx else "no",
                info.consistency,
            ]
        )
    print(
        format_table(
            ["name", "system", "R/V/N (paper)", "WTX", "consistency"], rows
        )
    )
    return 0


def cmd_theorem(args: argparse.Namespace) -> int:
    if args.general:
        from repro.core import check_impossibility_general

        verdict = check_impossibility_general(
            args.protocol,
            objects=_objects(args.objects),
            n_servers=args.servers,
            replication=args.replication,
            max_k=args.max_k,
            **_proto_params(args),
        )
    else:
        from repro.core import check_impossibility

        verdict = check_impossibility(
            args.protocol, max_k=args.max_k, **_proto_params(args)
        )
    print(verdict.describe())
    if verdict.fast_report is not None:
        print(verdict.fast_report.describe())
    return 0 if verdict.consistent_with_theorem else 1


#: the protocol parameters every protocol-building subcommand takes
PROTO_PARAMS = ("sync_hops", "epsilon", "sync_every")


def _proto_params(args: argparse.Namespace) -> dict:
    return {
        name: getattr(args, name)
        for name in PROTO_PARAMS
        if getattr(args, name) is not None
    }


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import measure, render_table1
    from repro.protocols import protocol_names
    from repro.workloads import TABLE1_SPEC

    spec = replace(
        TABLE1_SPEC, n_txns=args.txns, read_ratio=args.read_ratio, seed=args.seed
    )
    chars = []
    for name in sorted(protocol_names()):
        ch = measure(name, spec, objects=_objects(args.objects), n_servers=args.servers)
        chars.append(ch)
        print(f"  measured {name} ({ch.n_txns} txns)", file=sys.stderr)
    print(render_table1(chars, include_unimplemented=args.all_rows))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis import figure1, figure2, figure3

    fig = {1: figure1, 2: figure2, 3: figure3}[args.number]
    kwargs = {}
    if args.number == 3:
        kwargs["max_k"] = args.max_k
    print(fig(args.protocol, **kwargs))
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.analysis import measure
    from repro.analysis.tables import format_table
    from repro.workloads import WorkloadSpec

    spec = WorkloadSpec(
        n_txns=args.txns,
        read_ratio=args.read_ratio,
        read_size=(2, 3),
        seed=args.seed,
    )
    ch = measure(
        args.protocol,
        spec,
        objects=_objects(args.objects),
        n_servers=args.servers,
        **_proto_params(args),
    )
    row = ch.row()
    print(
        format_table(
            list(row.keys()),
            [list(row.values())],
            title=f"{args.protocol}: {ch.n_txns} transactions",
        )
    )
    print(
        f"avg ROT latency: {ch.avg_rot_latency:.1f} events; "
        f"value/meta bytes per ROT: {ch.avg_value_bytes:.0f}/"
        f"{ch.avg_metadata_bytes:.0f}"
    )
    print(ch.consistency.describe())
    return 0 if ch.consistency_ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import Store
    from repro.analysis import render_spacetime

    store = Store(
        protocol=args.protocol,
        objects=_objects(args.objects),
        n_servers=args.servers,
        clients=("w", "r"),
        seed=args.seed,
        **_proto_params(args),
    )
    writes = {f"X{i}": f"v{i}@w" for i in range(min(args.objects, 2))}
    with store.system.sim.recording() as events:
        try:
            store.write("w", writes)
        except Exception:
            for obj, val in writes.items():
                store.write("w", {obj: val})
        store.settle()
        store.read("r", list(_objects(args.objects))[:2])
    print(render_spacetime(events, pids=("w", "r") + tuple(store.system.service_pids)))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.core.explore import explore_write_read_race

    result = explore_write_read_race(
        args.protocol,
        max_depth=args.max_depth,
        max_states=args.max_states,
        checker=args.checker,
        por=args.por,
        **_proto_params(args),
    )
    print(result.describe())
    return 1 if result.violation_found else 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro import Store

    store = Store(
        protocol=args.protocol,
        objects=_objects(args.objects),
        n_servers=args.servers,
        seed=args.seed,
        **_proto_params(args),
    )
    store.write("c0", {"X0": "v1@c0"})
    store.read("c1", ["X0", "X1"])
    store.write("c1", {"X1": "v2@c1"})
    store.read("c2", ["X0", "X1"])
    report = store.check_consistency(exact=True)
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    from repro.workloads import TABLE1_SPEC

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Executable reproduction of 'Distributed Transactional Systems "
            "Cannot Be Fast' (SPAA 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    proto = argparse.ArgumentParser(add_help=False)
    for name in PROTO_PARAMS:
        proto.add_argument("--" + name.replace("_", "-"), type=int, default=None)

    sub.add_parser("list", help="list the protocol zoo").set_defaults(fn=cmd_list)

    t = sub.add_parser("theorem", parents=[proto], help="run the impossibility check")
    t.add_argument("protocol")
    t.add_argument("--max-k", type=int, default=6)
    t.add_argument("--general", action="store_true", help="Theorem 2 engine")
    t.add_argument("--servers", type=int, default=3)
    t.add_argument("--objects", type=int, default=3)
    t.add_argument("--replication", type=int, default=1)
    t.set_defaults(fn=cmd_theorem)

    tb = sub.add_parser("table1", help="regenerate Table 1")
    tb.add_argument("--txns", type=int, default=TABLE1_SPEC.n_txns)
    tb.add_argument("--read-ratio", type=float, default=TABLE1_SPEC.read_ratio)
    tb.add_argument("--seed", type=int, default=TABLE1_SPEC.seed)
    tb.add_argument("--servers", type=int, default=2)
    tb.add_argument("--objects", type=int, default=4)
    tb.add_argument("--all-rows", action="store_true",
                    help="include the paper's unimplemented rows")
    tb.set_defaults(fn=cmd_table1)

    f = sub.add_parser("figure", help="regenerate a figure (1, 2 or 3)")
    f.add_argument("number", type=int, choices=(1, 2, 3))
    f.add_argument("--protocol", default=None)
    f.add_argument("--max-k", type=int, default=6)
    f.set_defaults(fn=cmd_figure)

    w = sub.add_parser(
        "workload", parents=[proto], help="run a workload and characterize"
    )
    w.add_argument("protocol")
    w.add_argument("--txns", type=int, default=100)
    w.add_argument("--read-ratio", type=float, default=0.7)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--servers", type=int, default=2)
    w.add_argument("--objects", type=int, default=4)
    w.set_defaults(fn=cmd_workload)

    tr = sub.add_parser(
        "trace", parents=[proto], help="space-time diagram of a small scenario"
    )
    tr.add_argument("protocol")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--servers", type=int, default=2)
    tr.add_argument("--objects", type=int, default=2)
    tr.set_defaults(fn=cmd_trace)

    e = sub.add_parser(
        "explore",
        parents=[proto],
        help="exhaustively explore the write/read-race schedule space",
    )
    e.add_argument("protocol")
    e.add_argument("--por", dest="por", action="store_true", default=False,
                   help="partial-order reduction (POR-safe protocols only)")
    e.add_argument("--no-por", dest="por", action="store_false")
    e.add_argument("--checker", choices=("causal", "read-atomic", "sessions"),
                   default="causal")
    e.add_argument("--max-depth", type=int, default=40)
    e.add_argument("--max-states", type=int, default=50_000)
    e.set_defaults(fn=cmd_explore)

    c = sub.add_parser("check", parents=[proto], help="quick consistency spot-check")
    c.add_argument("protocol")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--servers", type=int, default=2)
    c.add_argument("--objects", type=int, default=2)
    c.set_defaults(fn=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure" and args.protocol is None:
        args.protocol = "cops_snow" if args.number == 1 else "fastclaim"
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
