"""Metrics, Table-1 rendering, and figure regeneration."""

from repro.analysis.metrics import (
    Characterization,
    TxnStats,
    analyze_transactions,
    approx_size,
    characterize,
    measure,
    payload_references,
    payload_sizes,
)
from repro.analysis.tables import UNIMPLEMENTED_ROWS, format_table, render_table1
from repro.analysis.figures import figure1, figure2, figure3
from repro.analysis.spacetime import lane_diagram, render_spacetime

__all__ = [
    "Characterization",
    "TxnStats",
    "analyze_transactions",
    "approx_size",
    "characterize",
    "measure",
    "payload_references",
    "payload_sizes",
    "UNIMPLEMENTED_ROWS",
    "format_table",
    "render_table1",
    "figure1",
    "figure2",
    "figure3",
    "lane_diagram",
    "render_spacetime",
]
