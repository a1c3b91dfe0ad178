# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test lint type bench bench-smoke bench-compare obs-overhead serve-demo serve-http-demo slo-check perfbench-check examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	ruff check .

type:
	mypy

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	REPRO_BENCH_SCALE=0.25 REPRO_BENCH_WINDOW=10 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# gate fresh smoke-scale benchmark artifacts against committed baselines
bench-compare:
	$(PYTHON) benchmarks/compare_baselines.py --time-tolerance 2.0

# measure the instrumentation layer's own decision-path cost
obs-overhead:
	$(PYTHON) -m repro.cli obs overhead --scale 0.2

# two monitored sites behind AIMD admission gates, live
serve-demo:
	$(PYTHON) -m repro.cli serve --sites 2 --profile stress --scale 0.2 --seed 7

# the same two sites behind the HTTP front end; curl /admit, /decide,
# /healthz or /metrics on port 8127, Ctrl-C drains gracefully
serve-http-demo:
	$(PYTHON) -m repro.cli serve-http --sites 2 --profile stress --scale 0.2 --seed 7 --port 8127

# end-to-end SLO check: serve, drive open-loop, gate p99 + zero errors
slo-check:
	$(PYTHON) benchmarks/run_http_slo.py --rps 200 --duration 10
	$(PYTHON) benchmarks/compare_baselines.py --only http --time-tolerance 2.0

# the serving benchmark's output checks on both fleets and on the
# simulated-traffic sites: every window decided, none held or degraded,
# sharded signatures equal to single-process ones; then `repro serve`
# with the benchmark's meter, stacked fold against the per-site loop,
# must print the same decisions; the exit codes gate, timings do not
perfbench-check:
	python3 perfbench/run.py --workload fleet-recorded --seed 1 --seconds 5 --trace 0
	python3 perfbench/run.py --workload fleet-sharded --seed 1 --seconds 5 --trace 0
	python3 perfbench/run.py --workload serve-live --seed 1 --seconds 5 --trace 0
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --sites 4 --scale 0.2 --meter .bench_build/meter.json > .bench_build/serve-fleet.txt
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --sites 4 --scale 0.2 --meter .bench_build/meter.json --no-fleet > .bench_build/serve-per-site.txt
	grep -v '^#' .bench_build/serve-fleet.txt > .bench_build/serve-fleet.decisions
	grep -v '^#' .bench_build/serve-per-site.txt > .bench_build/serve-per-site.decisions
	diff .bench_build/serve-fleet.decisions .bench_build/serve-per-site.decisions

examples:
	$(PYTHON) examples/quickstart.py 0.2
	$(PYTHON) examples/bottleneck_shift.py 0.2
	$(PYTHON) examples/capacity_planning.py 0.2
	$(PYTHON) examples/admission_control.py 0.2
	$(PYTHON) examples/service_differentiation.py 0.2
	$(PYTHON) examples/three_tier_chain.py 0.2

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks .repro-cache htmlcov .coverage
	find benchmarks/results -type f ! -name baselines.json ! -name trajectory.json -delete 2>/dev/null || true
	find . -name __pycache__ -type d -exec rm -rf {} +
