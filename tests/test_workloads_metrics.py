"""Workload generators, metrics, tables and figures."""

import gc
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    approx_size,
    analyze_transactions,
    characterize,
    format_table,
    payload_references,
    payload_sizes,
    render_table1,
    figure1,
    figure3,
)
from repro.analysis.metrics import Characterization, TxnStats
from repro.consistency import check_history
from repro.protocols import build_system
from repro.protocols.base import ReadReply, ReadRequest, ValueEntry
from repro.workloads import (
    BALANCED,
    READ_HEAVY,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfGenerator,
    generate_workload,
    run_workload,
)


# ---------------------------------------------------------------------------
# zipf
# ---------------------------------------------------------------------------


class TestZipf:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(5, theta=-1)
        with pytest.raises(ValueError):
            ZipfGenerator(5, seed=-1)  # as numpy's SeedSequence refuses it

    def test_pmf_sums_to_one(self):
        z = ZipfGenerator(50, 0.99)
        assert abs(sum(z.pmf()) - 1.0) < 1e-9

    def test_pmf_monotone_decreasing(self):
        z = ZipfGenerator(30, 0.8)
        pmf = z.pmf()
        assert all(pmf[i] >= pmf[i + 1] - 1e-12 for i in range(len(pmf) - 1))

    def test_theta_zero_uniform(self):
        z = ZipfGenerator(10, 0.0)
        pmf = z.pmf()
        # np.allclose's default tolerances
        assert all(math.isclose(p, 0.1, rel_tol=1e-05, abs_tol=1e-08) for p in pmf)

    def test_skew_concentrates_mass(self):
        hot = ZipfGenerator(100, 1.2, seed=1)
        samples = [hot.sample() for _ in range(2000)]
        assert samples.count(0) > 2000 * 0.15

    def test_sample_distinct(self):
        z = ZipfGenerator(10, 0.99, seed=2)
        got = z.sample_distinct(10)
        assert sorted(got) == list(range(10))
        with pytest.raises(ValueError):
            z.sample_distinct(11)

    @given(st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_samples_in_range(self, n, seed):
        z = ZipfGenerator(n, 0.99, seed=seed)
        for _ in range(20):
            assert 0 <= z.sample() < n

    def test_determinism(self):
        a = ZipfGenerator(20, 0.9, seed=7)
        b = ZipfGenerator(20, 0.9, seed=7)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    #: the first three ``random()`` draws for the seeds of ``sim_mix``'s
    #: first four runs, ``41 * 100 + i`` (numpy's ``default_rng(seed)``
    #: stream): the stream's identity, checked without numpy
    PINNED = {
        4100: (0.128636642645504, 0.893799108298383, 0.5939870091585048),
        4101: (0.49952765353517803, 0.5944231966235678, 0.12474911362849339),
        4102: (0.3890812864513403, 0.5492949427563207, 0.32576226874200775),
        4103: (0.8513762594845549, 0.29612893992289224, 0.284745970828688),
    }

    def test_pinned_first_draws(self):
        for seed, draws in self.PINNED.items():
            z = ZipfGenerator(4, 0.99, seed=seed)
            assert tuple(z.random() for _ in draws) == draws, seed

    def test_stream_is_numpys(self):
        np = pytest.importorskip("numpy")
        # the big seeds hash 2, 3, 4 and 7 entropy words
        seeds = [*range(3000), *self.PINNED, 2**32 + 5, 2**64 + 7, 10**30, 2**200 + 3]
        for seed in seeds:
            z, rng = ZipfGenerator(4, 0.99, seed=seed), np.random.default_rng(seed)
            assert [z.random() for _ in range(20)] == [rng.random() for _ in range(20)], seed
        for n in (1, 2, 3, 4, 5, 10, 50, 100, 1000):
            for theta in (0, 0.5, 0.8, 0.9, 0.99, 1, 1.2, 2):
                z, rng = ZipfGenerator(n, theta, seed=n), np.random.default_rng(n)
                cdf = np.cumsum(1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta))
                cdf /= cdf[-1]
                assert z.pmf() == np.diff(cdf, prepend=0.0).tolist(), (n, theta)
                want = [int(cdf.searchsorted(rng.random(), side="left")) for _ in range(500)]
                assert [z.sample() for _ in range(500)] == want, (n, theta)

    def test_a_workload_run_leaves_numpy_unloaded(self):
        code = textwrap.dedent("""
            import sys
            from repro.protocols import build_system
            from repro.workloads import WorkloadSpec, run_workload
            system = build_system("cops", objects=("X0", "X1", "X2"), n_servers=2)
            assert run_workload(system, WorkloadSpec(n_txns=20, seed=3)).records
            assert "numpy" not in sys.modules
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------


class TestWorkloadGenerator:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_ratio=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(read_ratio=0.9, rw_ratio=0.5)

    def test_schedule_length(self):
        sched = generate_workload(
            WorkloadSpec(n_txns=37), ("X0", "X1"), ("c0", "c1")
        )
        assert len(sched) == 37

    def test_read_ratio_respected(self):
        spec = WorkloadSpec(n_txns=400, read_ratio=0.9, seed=5)
        sched = generate_workload(spec, tuple(f"X{i}" for i in range(8)), ("c0",))
        n_reads = sum(1 for _, t in sched if t.is_read_only)
        assert 0.82 <= n_reads / 400 <= 0.97

    def test_unique_values(self):
        spec = WorkloadSpec(n_txns=300, read_ratio=0.2, seed=5)
        sched = generate_workload(spec, ("X0", "X1"), ("c0", "c1"))
        values = [v for _, t in sched for _, v in t.writes]
        assert len(values) == len(set(values))

    def test_no_wtx_capability(self):
        spec = WorkloadSpec(n_txns=200, read_ratio=0.0, write_size=(2, 3), seed=1)
        sched = generate_workload(
            spec, tuple(f"X{i}" for i in range(6)), ("c0",), supports_wtx=False
        )
        assert all(len(t.writes) == 1 for _, t in sched)

    def test_determinism(self):
        spec = WorkloadSpec(n_txns=50, seed=9)
        a = generate_workload(spec, ("X0", "X1"), ("c0", "c1"))
        b = generate_workload(spec, ("X0", "X1"), ("c0", "c1"))
        assert [(c, repr(t)) for c, t in a] == [(c, repr(t)) for c, t in b]

    def test_rw_transactions_generated(self):
        spec = WorkloadSpec(n_txns=300, read_ratio=0.3, rw_ratio=0.4, seed=2)
        sched = generate_workload(
            spec, tuple(f"X{i}" for i in range(8)), ("c0",), supports_rw=True
        )
        assert any(t.read_set and t.writes for _, t in sched)


class TestRunWorkload:
    @pytest.mark.parametrize("protocol", ["cops_snow", "wren", "spanner"])
    def test_completes_and_consistent_count(self, protocol):
        system = build_system(protocol, objects=("X0", "X1", "X2"), n_servers=2)
        spec = WorkloadSpec(n_txns=40, read_ratio=0.7, seed=3)
        hist = run_workload(system, spec)
        assert len(hist.records) == 40
        assert not hist.active

    def test_deterministic(self):
        def run():
            system = build_system("cops", objects=("X0", "X1"), n_servers=2)
            hist = run_workload(system, WorkloadSpec(n_txns=30, seed=4))
            return [(r.txid, tuple(sorted(r.reads.items()))) for r in hist.records]

        assert run() == run()

    def test_retention_is_linear(self):
        # a forward run plus its check keeps O(1) bytes per committed txn:
        # no record copies its client's past, and the strict check keeps
        # only the covering real-time edges
        def retained_per_txn(n):
            system = build_system("spanner", objects=("X0", "X1", "X2", "X3"), n_servers=2)
            spec = WorkloadSpec(n_txns=n, read_ratio=0.5, read_size=(2, 3), seed=5)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                history = run_workload(system, spec)
                report = check_history(history, system.info.consistency)
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert report.ok and len(history) == n
            return kept / n

        retained_per_txn(50)  # warm-up: lazy imports and module caches
        small, large = retained_per_txn(100), retained_per_txn(400)
        assert large <= 1.25 * small, (small, large)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestPayloadIntrospection:
    def test_references_by_txid(self):
        assert payload_references(ReadRequest(txid="t", keys=("X",)), "t")
        assert not payload_references(ReadRequest(txid="u", keys=("X",)), "t")

    def test_references_calvin_batches(self):
        from repro.protocols.base import ServerMsg

        sm = ServerMsg(kind="batch", data={"entries": [{"txid": "t"}]})
        assert payload_references(sm, "t")
        assert not payload_references(sm, "z")

    def test_approx_size_basics(self):
        assert approx_size("abcd") == 4
        assert approx_size(7) == 8
        assert approx_size([1, 2]) == 16
        assert approx_size({"a": 1}) == 9

    def test_payload_sizes_split(self):
        reply = ReadReply(
            txid="t",
            values=(ValueEntry("X", "valuevalue", ts=(1, "s")),),
            meta={"snap": 12345},
        )
        vb, mb = payload_sizes(reply)
        assert vb == len("valuevalue")
        assert mb > 0


class TestCharacterize:
    def test_rows_have_all_fields(self):
        system = build_system("cops_snow", objects=("X0", "X1"), n_servers=2)
        with system.sim.recording() as events:
            hist = run_workload(system, WorkloadSpec(n_txns=30, seed=1))
        ch = characterize(system, hist, events)
        row = ch.row()
        assert row["protocol"] == "cops_snow"
        assert row["R"] == 1 and row["N"] == "yes" and row["WTX"] == "no"
        assert ch.fast

    def test_wren_row(self):
        system = build_system("wren", objects=("X0", "X1"), n_servers=2)
        with system.sim.recording() as events:
            hist = run_workload(system, WorkloadSpec(n_txns=30, read_ratio=0.6, seed=1))
        ch = characterize(system, hist, events)
        assert ch.max_rounds == 2 and ch.n_blocked == 0 and ch.supports_wtx
        assert not ch.fast

    def test_three_hop_reads_are_not_fast(self):
        # one client round whose replies come through a sequencer (3
        # hops) is not Definition 4's one-roundtrip read, for the ROT as
        # for the run
        rot = TxnStats(
            txid="t", client="c", read_only=True, rounds=1, hops=3,
            values_per_object={"X": 1},
        )
        assert not rot.one_round and not rot.fast
        assert rot.one_value and rot.nonblocking
        ch = Characterization(
            protocol="relayed", rots=[rot] * 5, supports_wtx=True,
            consistency_level="causal", consistency=None, n_txns=5,
            events_per_txn=4.0,
        )
        assert not ch.one_round and not ch.fast and ch.row()["fast"] == "no"
        assert ch.row()["N"] == "yes" and ch.row()["V"] == 1

    def test_latency_positive(self):
        system = build_system("contrarian", objects=("X0", "X1"), n_servers=2)
        with system.sim.recording() as events:
            hist = run_workload(system, WorkloadSpec(n_txns=20, seed=1))
        ch = characterize(system, hist, events)
        assert ch.avg_rot_latency > 0


class TestTables:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len({len(l) for l in lines if l}) <= 2

    def test_render_table1_contains_systems(self):
        system = build_system("cops_snow", objects=("X0", "X1"), n_servers=2)
        with system.sim.recording() as events:
            hist = run_workload(system, WorkloadSpec(n_txns=20, seed=1))
        ch = characterize(system, hist, events)
        out = render_table1([ch], include_unimplemented=True)
        assert "COPS-SNOW" in out
        assert "RoCoCo-SNOW" in out  # unimplemented row present


class TestFigures:
    def test_figure1_text(self):
        out = figure1("cops_snow")
        assert "Q_in" in out and "C_0" in out and "X0:init" in out

    def test_figure3_text(self):
        out = figure3("fastclaim", max_k=3)
        assert "CAUSAL_VIOLATION" in out
        assert "mix of old and new" in out
