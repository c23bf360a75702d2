PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-runtime test-chaos bench bench-smoke bench-goldens \
	perfbench-tests validate clean

test:
	$(PYTHON) -m pytest -x -q

test-runtime:
	$(PYTHON) -m pytest -x -q tests/runtime

# Seeded fault-injection determinism suite (see docs/faults.md).  On
# failure the report prints the exact SATIOT_FAULTS spec to replay.
test-chaos:
	$(PYTHON) -m pytest -q -m chaos tests/chaos

bench:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest --benchmark-only -q

# Tiny-mode benchmarks: seconds, not minutes.  Verifies parallel ==
# serial bit-identity, cache-warm < cache-cold, the columnar trace
# store's merge+filter / archive-size wins, the serving layer's
# batched-vs-unbatched speedup under concurrent load, and the batched
# SGP4 fleet pass search's coarse-grid speedup + bit-identity (metrics
# JSON lands in benchmarks/output/ and is uploaded as a CI artifact).
bench-smoke:
	cd benchmarks && SATIOT_BENCH_TINY=1 PYTHONPATH=../src \
		$(PYTHON) -m pytest bench_runtime_scaling.py bench_trace_store.py \
		-q -p no:cacheprovider
	cd benchmarks && PYTHONPATH=../src $(PYTHON) bench_serving.py --smoke
	cd benchmarks && PYTHONPATH=../src $(PYTHON) bench_orbit_batch.py --smoke
	cd benchmarks && PYTHONPATH=../src $(PYTHON) bench_twin.py --smoke
	cd benchmarks && PYTHONPATH=../src $(PYTHON) bench_catalog_sweep.py --smoke
	cd benchmarks && PYTHONPATH=../src $(PYTHON) bench_trace_store.py --smoke
	$(PYTHON) -m satiot scenario run benchmarks/scenarios/smoke.json \
		--smoke --out benchmarks/output/scenario-smoke

# Regenerate the 36 committed benchmarks/output/*.txt tables cold (the
# ephemeris cache off, so every grid and window is computed fresh) and
# fail if any differs from the committed copy.
GOLDEN_BENCHES = $(notdir $(wildcard $(addprefix benchmarks/bench_, \
	ablation_*.py appendix_*.py extension_*.py fig*.py optimization_*.py \
	table*.py)))

bench-goldens:
	cd benchmarks && SATIOT_EPHEMERIS_CACHE=0 PYTHONPATH=../src \
		$(PYTHON) -m pytest $(GOLDEN_BENCHES) --benchmark-disable \
		-q -p no:cacheprovider
	git diff --exit-code -- benchmarks/output

# The benchmark's own tests: they wrap public satiot names, so a
# refactor that drops one fails here.
perfbench-tests:
	$(PYTHON) -m pytest perfbench -q -p no:cacheprovider

validate:
	$(PYTHON) -m satiot validate

clean:
	rm -rf benchmarks/output benchmarks/.ephemeris-cache \
		.pytest_cache .benchmarks
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
