# Convenience entry points. All targets assume the baked-in python
# toolchain; nothing here installs packages.

PYTHONPATH := src
export PYTHONPATH

.PHONY: test test-session test-concurrency test-optimizer lint loc fuzz \
	bench bench-pairs load-phases

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
ENGINE_LOC_MAX := 10264
loc:
	@engine=$$(find src/repro/engine -name '*.py' | xargs cat | wc -l); \
	printf 'engine %s\n' $$engine; \
	printf 'sim    %s\n' $$(find src/repro/sim -name '*.py' | xargs cat | wc -l); \
	if [ $$engine -gt $(ENGINE_LOC_MAX) ]; then \
		echo "engine/ grew past ENGINE_LOC_MAX=$(ENGINE_LOC_MAX)"; exit 1; \
	fi

# Session-layer battery (slow variants included): the safety-gated
# session API (policy/audit/dry-run/rollback), the public-surface +
# error-hierarchy guards, the number-vs-text range rule on every
# session route, and the agent-session fuzz arm racing random scripts
# under random policies against a serial oracle on the reference
# executor.
test-session:
	python -m pytest \
		tests/test_engine_session.py \
		tests/test_api_surface.py \
		tests/test_engine_range_types.py \
		tests/test_engine_fuzz_differential.py::test_fuzz_agent_session_rollback_matches_serial_oracle \
		-q -m ''

# The concurrency battery at full size (slow variants included): server
# admission properties, no-torn-reads races, plan-cache hammering,
# shape-template binding racing DDL, the warm route (plans prepared
# once, one catalog snapshot per commit, a snapshot built mid-write
# never reused), and the server-mode fuzzer.
# PYTHONFAULTHANDLER + the per-test watchdog (tests/conftest.py) make a
# deadlock dump stacks and fail instead of hanging CI.
test-concurrency:
	PYTHONFAULTHANDLER=1 REPRO_TEST_TIMEOUT=120 python -m pytest \
		tests/test_engine_server.py \
		tests/test_engine_server_concurrency.py \
		tests/test_engine_pipeline_concurrency.py \
		tests/test_engine_warm_route.py \
		tests/test_engine_fuzz_differential.py -q -m ''

# Optimizer battery (slow variants included): join orders (UES bounds,
# orders installed through order=, one plan per statement, dropped-table
# regressions), the classic optimizer suite, what repro.ai4db installs
# from outside or scores the planner with (the cardinality-feedback
# loop, the sampling, exact-count and upper-bound estimators and the
# exact counter behind the oracle, the rewrite rules, the order-pricing
# objective and the learned MCTS/DQN orderers it scores), the planning
# memo and bisect histogram parity, ANALYZE's value-count merge
# against the dict merge it replaced, the exact aggregation fold order,
# and the enumerator-race fuzz arm (dp against the greedy, random and ues
# orders on random catalogs, rows checked against dp's).
test-optimizer:
	python -m pytest \
		tests/test_engine_plan_selection.py \
		tests/test_engine_optimizer.py \
		tests/test_ai4db_optimization.py \
		tests/test_ai4db_feedback.py \
		tests/test_ai4db_estimators.py \
		tests/test_ai4db_rules.py \
		tests/test_engine_plan_memo.py \
		tests/test_engine_value_counts.py \
		tests/test_engine_fold_order.py \
		tests/test_engine_fuzz_differential.py::test_fuzz_enumerator_race \
		-q -m ''

# Differential query fuzzer (engine vs the reference executor under
# tests/ and vs stdlib sqlite3, and the front end's shape route vs parse
# + lower under redrawn literals) with a larger case budget than
# tier-1's ~200. Override the budget: make fuzz FUZZ_CASES=5000
FUZZ_CASES ?= 1000
fuzz:
	REPRO_FUZZ_CASES=$(FUZZ_CASES) python -m pytest \
		tests/test_engine_fuzz_differential.py -q -m ''

# Benchmark suite in fast mode (pytest-benchmark entry points).
bench:
	REPRO_BENCH_FAST=1 python -m pytest benchmarks -q -m 'not slow'

# Alternating parent/change pairs of the end-to-end benchmark, judged by
# the choosing-metrics rule. PARENT and CHANGE are two checkouts, e.g.
#   git archive HEAD~1 | tar -x -C /tmp/parent
#   make bench-pairs PARENT=/tmp/parent CHANGE=. ARGS="--workload mixed_rw"
bench-pairs:
	python tools/bench_pairs.py $(PARENT) $(CHANGE) $(ARGS)

# Per-phase split of the benchmark's catalog build (insert typing, seal,
# CREATE INDEX, ANALYZE) in two checkouts, alternating pairs, e.g.
#   make load-phases PARENT=/tmp/parent CHANGE=. ARGS="--seed 7"
load-phases:
	python tools/load_phases.py $(PARENT) $(CHANGE) $(ARGS)
