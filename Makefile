# Convenience targets; see README.md for details.
#
# PYTHONPATH=src on every python invocation so a clean checkout works
# without `pip install -e .`.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: install test test-fast lint mutants bench bench-smoke ledger examples all

install:
	pip install -e . || python setup.py develop  # offline fallback

test:
	$(PY) -m pytest tests/

test-fast:
	$(PY) -m pytest tests/ -m "not slow"

# static determinism and simulator-contract linter (docs/lint.md)
lint:
	$(PY) -m repro.lint src benchmarks tests/helpers.py

# apply each one-hunk mutant under tests/mutations/ to a fresh copy of the
# committed tree; exits 1 unless the test each one names fails there
mutants:
	$(PY) tests/mutations/run.py

# the two gated pytest-benchmark scripts (each writes one BENCH_*.json)
bench:
	$(PY) -m pytest benchmarks/bench_explore.py benchmarks/bench_parallel.py \
		--benchmark-only

# regenerate benchmarks/results/PAPER_LEDGER.json (every paper table,
# theorem run and figure); exits 1 naming the keys that drifted from the
# committed ledger.  The committed file is the PYTHONHASHSEED=0 one;
# tests/test_paper_ledger.py rebuilds it under a random seed.
ledger:
	PYTHONHASHSEED=0 $(PY) benchmarks/paper_ledger.py

# fast perf-regression gate: exact exploration counts vs the committed
# baseline (PYTHONHASHSEED pinned so any failure reproduces bit-for-bit)
bench-smoke:
	PYTHONHASHSEED=0 $(PY) benchmarks/bench_smoke.py

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/staleness_tradeoff.py
	$(PY) examples/geo_replication.py
	$(PY) examples/social_network.py
	$(PY) examples/protocol_comparison.py
	$(PY) examples/impossibility_demo.py

all: test lint ledger bench
