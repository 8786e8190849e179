#!/usr/bin/env python3
"""Regenerate Table 1 (and the metadata-cost comparison) from live runs.

Every registered protocol executes the same seeded mixed workload; the
measured R/V/N/WTX row is printed next to the paper's claimed row, the
matching consistency checker verifies each history, and a second table
quantifies the wire cost (GentleRain's O(1) metadata vs Orbe's vectors
vs COPS-RW's "prohibitively big amount of data").
"""

from repro.analysis import measure, render_table1
from repro.analysis.tables import format_table
from repro.protocols import protocol_names
from repro.workloads import TABLE1_SPEC


def main() -> None:
    chars = []
    meta_rows = []
    for name in sorted(protocol_names()):
        ch = measure(name, TABLE1_SPEC)
        chars.append(ch)
        meta_rows.append(
            [
                name,
                f"{ch.avg_value_bytes:.0f}",
                f"{ch.avg_metadata_bytes:.0f}",
                f"{ch.avg_rot_latency:.1f}",
                ch.max_hops,
            ]
        )
    print(render_table1(chars, include_unimplemented=True))
    print()
    print(
        format_table(
            [
                "protocol",
                "value bytes/ROT",
                "metadata bytes/ROT",
                "latency (events)",
                "hops",
            ],
            meta_rows,
            title="Wire-cost comparison (the price of each design corner)",
        )
    )


if __name__ == "__main__":
    main()
