"""The committed paper ledger is what the code produces.

``benchmarks/results/PAPER_LEDGER.json`` is generated under
``PYTHONHASHSEED=0`` (``make ledger``); this suite rebuilds it under the
interpreter's own hash seed and holds the two to equality, so a protocol,
schedule or metric change cannot land without the ledger diff beside it
— and the equality doubles as the hash-seed-independence check.
"""

import copy
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.protocols import REGISTRY, protocol_names

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "paper_ledger.py"


@pytest.fixture(scope="module")
def paper_ledger():
    spec = importlib.util.spec_from_file_location("paper_ledger", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ledger(paper_ledger):
    """One ``build_ledger()`` run (its shape assertions included), as JSON."""
    return json.loads(json.dumps(paper_ledger.build_ledger()))


@pytest.fixture(scope="module")
def committed(paper_ledger):
    return json.loads(paper_ledger.LEDGER_PATH.read_text())


def test_every_section_matches_the_committed_ledger(paper_ledger, ledger, committed):
    assert set(committed) == {s.name for s in paper_ledger.SECTIONS} | {"env"}
    drifted = list(paper_ledger.drift(committed, ledger))
    assert not drifted, "stale PAPER_LEDGER.json — run `make ledger`:\n" + "\n".join(
        drifted
    )


def test_an_edited_number_is_named(paper_ledger, committed):
    stale = copy.deepcopy(committed)
    stale["table1"]["fastclaim"]["measured"]["verified"] = "yes"
    stale["cost"]["cops_snow"] += 1
    stale["env"]["python"] = "0.0"  # the stamp is never compared
    assert [line.split(":")[0] for line in paper_ledger.drift(stale, committed)] == [
        "ledger.cost.cops_snow",
        "ledger.table1.fastclaim.measured.verified",
    ]


def test_table1_claims_are_the_registry_rows(ledger):
    table1 = ledger["table1"]
    assert sorted(table1) == sorted(protocol_names())
    for protocol, row in table1.items():
        assert row["claimed"] == asdict(REGISTRY[protocol].paper_row), protocol


def test_table1_verdicts_are_the_expected_map(paper_ledger, ledger):
    table1 = ledger["table1"]
    assert {p: row["verdict"] for p, row in table1.items()} == paper_ledger.EXPECTED
    assert all(row["consistent_with_theorem"] for row in table1.values())


def test_grids_cover_the_former_tables(ledger):
    """Each of the 16 former tables is a section with the same grid."""
    n_protocols = len(protocol_names())
    assert {name: len(rows) for name, rows in ledger.items() if name != "env"} == {
        "table1": n_protocols,
        "table1_unimplemented": 9,
        "theorem1_depth": 4,  # K = 1..4
        "theorem2": 5 + 2,  # topologies + COPS-SNOW + the Handshake ring
        "limits_3of4": 4,
        "figures": 4,
        "cost": n_protocols - 1,
        "read_ratio_sweep": (n_protocols - 1) * 3,
        "wire_cost": 7 + 2,  # protocols + the COPS-RW growth pair
        "server_scaling": 4 * 3 + 2,  # + Wren at 2 and 8 clients
        "visibility": n_protocols,
        "geo": 4 + 3,  # chain lengths 1/2/4/6 + home-DC reads at 2/3/4 DCs
        "adversaries": 7 * 4,
    }
