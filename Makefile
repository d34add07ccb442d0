# Developer entry points.  The default `make check` is the suite CI
# runs on every change: lint plus the full test tree minus the
# exhaustive chaos sweeps, which includes the property/metamorphic and
# obs suites.

PY := PYTHONPATH=src python -m

.PHONY: check lint test property obs serve test-serve chaos \
	bench bench-obs bench-serve bench-check bench-scale-smoke soak-smoke \
	perfbench-smoke drift reference-update loc

check: lint
	$(PY) pytest -q -m "not chaos"

# Ruff config lives in pyproject.toml.  The local toolchain may not
# ship ruff; skip with a notice rather than fail (CI always runs it).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed locally; skipping (CI enforces it)"; \
	fi

# Tier-1: everything, fail fast (the acceptance gate).
test:
	$(PY) pytest -x -q

property:
	$(PY) pytest -q tests/property

obs:
	$(PY) pytest -q -m obs

# Serving-grade pass: daemon e2e goldens (real subprocess + HTTP),
# concurrency determinism, and the delta/rebuild property suite.
test-serve:
	$(PY) pytest -q -m serve tests

serve: test-serve

chaos:
	$(PY) pytest -q -m chaos

bench:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q

bench-obs:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q test_obs_overhead.py

bench-serve:
	cd benchmarks && PYTHONPATH=../src python -m pytest -q test_serve_latency.py

# Out-of-core scale benchmark at CI-sized scales (~20x smaller); writes
# BENCH_scale_smoke.json, never the committed full-scale baseline.
bench-scale-smoke:
	cd benchmarks && REPRO_SCALE_SMOKE=1 PYTHONPATH=../src python -m pytest -q test_scale.py

# Traffic soak smoke: a short seeded open-loop mixed stream against a
# real daemon subprocess, replayed twice to assert byte-identical
# streams; writes BENCH_soak_smoke.json + soak_report_smoke.json,
# never the committed full-length BENCH_soak.json baseline.
soak-smoke:
	cd benchmarks && REPRO_SOAK_SMOKE=1 PYTHONPATH=../src python -m pytest -q test_soak.py

# Re-run the timed benchmarks and fail on >25% regression against the
# committed BENCH_*.json baselines (see benchmarks/check_regression.py).
bench-check:
	PYTHONPATH=src python benchmarks/check_regression.py

# Benchmark smoke: perfbench's helper tests, then one short traced run
# per workload.  The traced run wraps program functions by name, so a
# rename or deletion that breaks one fails here, not in the next
# benchmark run.
PERFBENCH_SMOKE_WORKLOADS := offline-scan dense-paper serve-mixed

perfbench-smoke:
	python -m pytest -q perfbench/tests
	for workload in $(PERFBENCH_SMOKE_WORKLOADS); do \
		python3 perfbench/run.py --workload $$workload --seed 1 --seconds 1 --trace 1 \
			|| exit 1; \
	done

# Accuracy drift gate: re-run the canonical seeded sweep into a fresh
# ledger and check it against the committed reference bands.
drift:
	rm -f /tmp/repro-drift-ledger.jsonl
	$(PY) repro runs record --ledger /tmp/repro-drift-ledger.jsonl
	$(PY) repro runs drift --ledger /tmp/repro-drift-ledger.jsonl

# Rebaseline the drift gate after an intentional accuracy change:
# regenerates benchmarks/results/ledger_seed0.jsonl and
# REFERENCE_accuracy.json; review the diff and commit both.
reference-update:
	PYTHONPATH=src python benchmarks/update_reference.py

# Tracked src/**/*.py line count: the one way CHANGES.md counts src/.
loc:
	@git ls-files 'src/*.py' | xargs wc -l | tail -1
