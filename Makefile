# Convenience entry points. All targets assume the baked-in python
# toolchain; nothing here installs packages.

PYTHONPATH := src
export PYTHONPATH

.PHONY: test test-session test-concurrency test-optimizer lint loc fuzz \
	bench bench-feedback bench-storage \
	bench-server bench-plansel bench-json bench-summary bench-pairs

# Tier-1 suite (fast; slow-marked full-size benchmarks are deselected by
# the pytest addopts default). Lints first — a lint finding fails the run.
test: lint
	python -m pytest -x -q

# Static lint over the whole tree. Uses ruff/pyflakes when installed,
# otherwise the bundled dependency-free AST checker in tools/lint.py.
lint:
	python tools/lint.py src tests benchmarks tools

# Lines of Python under src/repro/engine — the number ROADMAP's
# "net-negative line counts in engine/" goal is read off — and under
# src/repro/sim, the simulators that used to count against it. The
# engine count is a ratchet: above ENGINE_LOC_MAX the target (and CI's
# "Engine line count" step) fails, so growing engine/ is a reviewed
# one-line edit here; lower it whenever a PR shrinks the engine.
ENGINE_LOC_MAX := 11628
loc:
	@engine=$$(find src/repro/engine -name '*.py' | xargs cat | wc -l); \
	printf 'engine %s\n' $$engine; \
	printf 'sim    %s\n' $$(find src/repro/sim -name '*.py' | xargs cat | wc -l); \
	if [ $$engine -gt $(ENGINE_LOC_MAX) ]; then \
		echo "engine/ grew past ENGINE_LOC_MAX=$(ENGINE_LOC_MAX)"; exit 1; \
	fi

# Session-layer battery (slow variants included): the safety-gated
# session API (policy/audit/dry-run/rollback), the public-surface +
# error-hierarchy guards, and the agent-session fuzz arm racing random
# scripts under random policies against a serial oracle on the
# reference executor.
test-session:
	python -m pytest \
		tests/test_engine_session.py \
		tests/test_api_surface.py \
		tests/test_engine_fuzz_differential.py::test_fuzz_agent_session_rollback_matches_serial_oracle \
		-q -m ''

# The concurrency battery at full size (slow variants included): server
# admission properties, no-torn-reads races, plan-cache hammering, and
# the server-mode fuzzer. PYTHONFAULTHANDLER + the per-test watchdog
# (tests/conftest.py) make a deadlock dump stacks and fail instead of
# hanging CI.
test-concurrency:
	PYTHONFAULTHANDLER=1 REPRO_TEST_TIMEOUT=120 python -m pytest \
		tests/test_engine_server.py \
		tests/test_engine_server_concurrency.py \
		tests/test_engine_pipeline_concurrency.py \
		tests/test_engine_fuzz_differential.py -q -m ''

# Optimizer battery (slow variants included): plan selection (hint-set
# arms, UES bounds, bandit/pessimistic selectors, regret caps), the
# classic optimizer suite, cardinality feedback, the planning memo and
# bisect histogram parity, ANALYZE's value-count merge against the dict
# merge it replaced, the exact aggregation fold order, and the
# selector-race fuzz arm (three selectors vs the cost oracle on random
# catalogs).
test-optimizer:
	python -m pytest \
		tests/test_engine_plan_selection.py \
		tests/test_engine_optimizer.py \
		tests/test_engine_feedback.py \
		tests/test_engine_plan_memo.py \
		tests/test_engine_value_counts.py \
		tests/test_engine_fold_order.py \
		tests/test_engine_fuzz_differential.py::test_fuzz_selector_race \
		-q -m ''

# Differential query fuzzer (engine vs the reference executor under
# tests/ and vs stdlib sqlite3) with a larger case budget than tier-1's
# ~200. Override the budget: make fuzz FUZZ_CASES=5000
FUZZ_CASES ?= 1000
fuzz:
	REPRO_FUZZ_CASES=$(FUZZ_CASES) python -m pytest \
		tests/test_engine_fuzz_differential.py -q -m ''

# Benchmark suite in fast mode (pytest-benchmark entry points).
bench:
	REPRO_BENCH_FAST=1 python -m pytest benchmarks -q -m 'not slow'

# Cardinality-feedback benchmark alone (q-error before/after feedback and
# the drift-driven join-order replan), regenerating BENCH_P5.json.
bench-feedback:
	python -m pytest benchmarks/bench_p5_feedback.py -q -m ''
	python benchmarks/bench_p5_feedback.py

# Segmented-storage benchmark alone, including the slow ≥2x scan/alloc
# gates, regenerating BENCH_P6.json.
bench-storage:
	python -m pytest benchmarks/bench_p6_storage.py -q -m ''
	python benchmarks/bench_p6_storage.py

# Multi-tenant serving benchmark alone (snapshot isolation at 8+
# sessions, fair-share interference, Zipf traffic), regenerating
# BENCH_P8.json.
bench-server:
	python -m pytest benchmarks/bench_p8_server.py -q -m ''
	python benchmarks/bench_p8_server.py

# Plan-selection benchmark alone (four-strategy race over the skewed +
# correlated workload, slow full-size gates included), regenerating
# BENCH_P9.json.
bench-plansel:
	python -m pytest benchmarks/bench_p9_plansel.py -q -m ''
	python benchmarks/bench_p9_plansel.py

# One-table headline summary of the committed BENCH_P*.json artifacts.
bench-summary:
	python tools/bench_summary.py

# Alternating parent/change pairs of the end-to-end benchmark, judged by
# the choosing-metrics rule. PARENT and CHANGE are two checkouts, e.g.
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   make bench-pairs PARENT=/tmp/parent CHANGE=. ARGS="--workload mixed_rw"
bench-pairs:
	python tools/bench_pairs.py $(PARENT) $(CHANGE) $(ARGS)

# Regenerate the committed BENCH_P*.json artifacts at full size.
bench-json:
	python benchmarks/bench_p5_feedback.py
	python benchmarks/bench_p6_storage.py
	python benchmarks/bench_p8_server.py
	python benchmarks/bench_p9_plansel.py
