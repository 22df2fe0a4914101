# Convenience targets for the TASTE reproduction workspace.

.PHONY: verify build test clippy examples crash-resume train-resume repro overload-sweep swap-bench perf-smoke perf-pairs sched-1core loc

# The one gate every change must pass.
verify:
	cargo build --release && cargo test -q && cargo clippy --all-targets -- -D warnings

build:
	cargo build --release

test:
	cargo test -q

clippy:
	cargo clippy --all-targets -- -D warnings

# Every example end to end, stopping at the first non-zero exit: seven of
# the ten train a model and assert on what it then detects, and no test
# runs them. Offline, pass the patched cargo of the verify skill as
# CARGO="cargo --offline --config …".
CARGO ?= cargo
examples:
	@set -e; for f in examples/*.rs; do \
		e=$$(basename $$f .rs); echo "== example $$e"; \
		$(CARGO) run --release --quiet --example $$e; \
	done

# Everything that proves durable state in release mode (too slow, or too
# exhaustive, for `verify`): the fault matrix over the two primitives in
# `taste_core::durable`, the serving kill-and-resume scenarios and the
# training kill-and-resume scenario.
crash-resume:
	cargo test --release -p taste-core --lib durable
	cargo test --release -p taste-framework --test crash_resume -- --ignored
	cargo test --release -p taste-model --test train_resume -- --ignored

# The quick-scale checkpoint-overhead benchmark (writes
# results/BENCH_train.json; ROADMAP item 1 retires it).
train-resume:
	TASTE_REPRO_SCALE=quick cargo run -p taste-bench --release --bin repro -- train_resume

# Non-test lines per file: everything above the first `#[cfg(test)]`, the
# count simplicity PRs report. `make loc FILES="a.rs b.rs"`.
loc:
	@for f in $(FILES); do awk -v f=$$f '/^#\[cfg\(test\)\]/{exit} {n++} END{printf "%6d %s\n", n, f}' $$f; done \
		| awk '{s+=$$1; print} END{printf "%6d total\n", s}'

# Quick-scale reproduction of every table and figure.
repro:
	TASTE_REPRO_SCALE=quick cargo run -p taste-bench --release --bin repro -- all

# Quick-scale overload sweep (goodput/shedding at 0.5x-4x offered load).
overload-sweep:
	TASTE_REPRO_SCALE=quick cargo run -p taste-bench --release --bin repro -- overload_sweep

# Quick-scale hot-reload benchmark (registry publish/load, swap latency,
# canary overhead; writes results/BENCH_swap.json).
swap-bench:
	cargo run -p taste-bench --release --bin repro -- swap_bench --smoke

# The engine's unit and integration tests pinned to one core: with no
# parallelism a lost wake-up or an ordering assumption in the scheduler
# loop hangs or fails here instead of hiding behind a second core.
sched-1core:
	taskset -c 0 cargo test --release -p taste-framework

# The benchmark under perf/ (its own offline workspace) against the
# current crates: build, its tests, and three traced smoke rounds — the
# zero-latency path with per-table dispatch, the same with micro-batching
# on (both dispatch styles drive the one model body), then the cloud path
# (modelled RDS waits, grouped catalog reads). Fails when a refactor
# breaks the API perf/README.md pins.
PERF = --offline --manifest-path perf/Cargo.toml
perf-smoke:
	cargo build --release $(PERF)
	cargo test $(PERF) --workspace
	cargo run --release --quiet $(PERF) --bin perf -- run --workload wiki_local --smoke --seconds 5 --trace 1
	cargo run --release --quiet $(PERF) --bin perf -- run --workload wiki_local_batched --smoke --seconds 5 --trace 1
	cargo run --release --quiet $(PERF) --bin perf -- run --workload wiki_cloud --smoke --seconds 5 --trace 1

# The measurement protocol of a change that claims a gain (or has to show
# it moved nothing): N alternating 20 s pairs of a parent checkout's perf
# binary against this one's on seeds 11.., odd seeds parent first; prints
# every run, both medians, the parent's interquartile distance and the win
# count. `make perf-pairs WORKLOAD=wiki_cloud PARENT=../parent [N=10] [SECONDS=20]`
N ?= 10
SECONDS ?= 20
perf-pairs:
	@scripts/perf-pairs.sh "$(WORKLOAD)" "$(PARENT)" $(N) $(SECONDS)
