# Workspace convenience targets. `make ci` is the full gate the tree is
# expected to keep green.

CARGO ?= cargo

.PHONY: ci build test fmt clippy doc report golden obs-schema bench-smoke engine-conformance transport-conformance pipeline-conformance shard-conformance chaos-smoke scale-smoke serve-conformance serve-smoke dynamic-conformance dynamic-smoke serve-chaos

ci: build test fmt clippy doc obs-schema bench-smoke engine-conformance transport-conformance pipeline-conformance chaos-smoke scale-smoke serve-conformance serve-smoke dynamic-conformance dynamic-smoke serve-chaos

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: a doc link to a renamed, deleted or
# private item fails here instead of rendering as plain text.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

# Regenerate every experiment table (quick mode).
report:
	$(CARGO) run -p dw-bench --bin report --release

# Refresh the golden regression snapshots (and the quick-mode report
# tables, pinned by dw-bench's report_golden) after an intentional change.
golden:
	UPDATE_GOLDEN=1 $(CARGO) test -q -p dwapsp --test golden_regression
	UPDATE_GOLDEN=1 $(CARGO) test -q -p dwapsp --test obs_schema
	UPDATE_GOLDEN=1 $(CARGO) test -q -p dw-bench --test report_golden

# The dwapsp-obs-v1 wire formats, pinned: golden JSONL + Chrome-trace
# fixtures of a recorded Algorithm 3 run, and the parse -> re-export
# byte-identity round trip. Refresh intentional changes with
# `UPDATE_GOLDEN=1` (the `golden` target does both suites).
obs-schema:
	$(CARGO) test -q -p dwapsp --test obs_schema

# The round engine in release, where its worker pool really runs chunks
# at the same time: dw-congest whole (the pool's handoff tests, seq ==
# par and thread-count bit identity, the scheduling modes), the
# scheduling suite again with its ignored brute-force hunt (ActiveSet
# against ExhaustivePoll on 1,600 tiny graphs), then the
# fault-injection and CONGEST-model suites, which compare parallel runs
# with sequential ones. Tier-1 runs them only in a debug build.
engine-conformance:
	$(CARGO) test --release -q -p dw-congest
	$(CARGO) test --release -q -p dw-congest --test scheduling_conformance -- --include-ignored
	$(CARGO) test --release -q -p dwapsp --test fault_conformance --test congest_model

# The threads and TCP backends must reproduce the simulator bit for
# bit (distances, RunStats, outcomes) at shard counts P in
# {1, 2, ceil(n/3), n} on random graphs, with and without fault plans
# (partitions, one-way loss and caps included), whole-worker chaos
# recovery, a panic on either side ending the run instead of hanging
# it, the wire codec under garbage; then Algorithm 1 / short-range / Reliable at
# one node per worker, and the multi-process CLI quickstart. Whole test
# targets only: a name filter can be emptied by a rename without anyone
# noticing.
transport-conformance:
	$(CARGO) test --release -q -p dw-transport
	$(CARGO) test --release -q -p dwapsp --test transport_conformance
	$(CARGO) test --release -q -p dwapsp --test cli_quickstart

# There is one worker plane (DESIGN.md §8), so the sharded workers'
# suite is the transport suite.
shard-conformance: transport-conformance

# Algorithm 1's execution, not only its answers, is pinned (release
# build, because the key arithmetic's overflow contract must hold there
# too): `NodeList` against the scan-everything list it replaced, over
# random operation sequences; RunStats + InvariantReport + a hash of
# every node's checkpoint bytes on two fixed graphs, recorded before the
# list grew its columns and cursor; then the end-to-end properties and
# the golden round/message/distance snapshots. (The crate's unit tests
# run whole — they also hold Algorithm 1 on every runtime spelling and
# under chaos.)
pipeline-conformance:
	$(CARGO) test --release -q -p dw-pipeline --lib
	$(CARGO) test --release -q -p dw-pipeline --test pinned_behaviour
	$(CARGO) test --release -q -p dwapsp --test prop_pipeline
	$(CARGO) test --release -q -p dwapsp --test golden_regression

# Crash-fault smoke test (DESIGN.md §10): kill one node mid-run on the
# thread backend, recover from checkpoint + neighbor replay, and require
# distances bit-identical to the fault-free simulator (exit 0); then the
# README's two link-fault runs (DESIGN.md §15), a healing partition and
# a closing one-way loss under a bandwidth cap, which must end with the
# fault-free distances too. The generated graph is checked explicitly so
# a silent gen failure cannot surface later as a confusing load error.
chaos-smoke:
	$(CARGO) run --release -q -p dwapsp --bin dwapsp -- gen --family zero-heavy \
		--n 14 --w 5 --seed 9 --out target/chaos-smoke.json \
		|| { echo "chaos-smoke: FAIL — graph generation exited nonzero" >&2; exit 1; }
	@test -s target/chaos-smoke.json \
		|| { echo "chaos-smoke: FAIL — target/chaos-smoke.json missing or empty after gen" >&2; exit 1; }
	$(CARGO) run --release -q -p dwapsp --bin dwapsp -- chaos \
		--graph target/chaos-smoke.json --runtime threads --kill 5@4 --cadence 3
	$(CARGO) run --release -q -p dwapsp --bin dwapsp -- chaos \
		--graph target/chaos-smoke.json --runtime threads --partition '0.1.2.3@1:6'
	$(CARGO) run --release -q -p dwapsp --bin dwapsp -- chaos \
		--graph target/chaos-smoke.json --runtime threads --asym-loss '3-4@1:9' \
		--bandwidth-cap '0-1@8'

# The pipeline benchmark's own tests (benchmark/, a separate workspace
# that builds against crates/): its unit tests, then all four workloads
# in smoke mode behind the correctness gate. Nothing else in `ci` builds
# benchmark/, so a crates/ API change that breaks it fails here. Speed is
# judged by the benchmark's full runs (BENCHMARK.json), not by this.
bench-smoke:
	$(CARGO) test --release --offline -q --manifest-path benchmark/Cargo.toml

# Large-graph memory/time guard: one n=50k short-range SSSP run that must
# go quiet inside the Lemma II.15 budget, finish inside a 120 s box, and
# keep peak RSS under 128 MiB + 10x the graph's own CSR footprint. The
# test is ignored in `test` and has its target to itself, so the peak is
# its own.
scale-smoke:
	$(CARGO) test --release -q -p dw-pipeline --test scale_smoke -- --include-ignored

# The gateway's hot-path contract (DESIGN.md §13) against a scripted slow
# shard: batches form from what parks during a round trip (no timer),
# installs ship ahead of parked queries, cache hits overtake shard round
# trips and reply frames never interleave, a client that stops reading is
# dropped without delaying others, a pause inside a frame does not desync
# the stream, shutdown does not wait for attached clients. One test
# thread: the timing-sensitive ones must not be starved on a 2-vCPU
# runner.
serve-conformance:
	$(CARGO) test --release -q -p dw-serve --test gateway_conformance -- --test-threads=1

# Serving-plane smoke test (DESIGN.md §13), in release: dw-serve's unit
# tests stand up live loopback deployments (`Deployment`). Algorithm 1's
# tables go through the snapshot codec to 3 shards + the gateway and
# every pair is asked both ways against sequential Dijkstra; a killed
# shard must surface the typed ShardUnavailable within a bounded
# deadline while the survivor stays correct; swaps, versioned boots, the
# cache, and the deployment's own stall / restart hooks. Whole test
# target, as in transport-conformance.
serve-smoke:
	$(CARGO) test --release -q -p dw-serve --lib

# The dynamic-update path (DESIGN.md §14), in release: dw-graph's unit
# tests (the in-place CSR patch against a rebuild over chained batches),
# dw-seqref's (the one tree order, `hops_from_parents`, `hops_match`
# against the walk, `verify_row`'s refusals), dw-dynamic's (the recompute
# transaction, the carried hop column), then the randomized update
# streams against cold solves. Whole test targets only, as in
# transport-conformance.
dynamic-conformance:
	$(CARGO) test --release -q -p dw-graph --lib
	$(CARGO) test --release -q -p dw-seqref --lib
	$(CARGO) test --release -q -p dw-dynamic --lib
	$(CARGO) test --release -q -p dw-dynamic --test update_proptest

# Dynamic-update smoke test (DESIGN.md §14): seeded update batches
# repaired cell by cell in the (d, l, parent) order and pushed to a live
# 2-shard deployment. A hammer thread queries throughout and requires
# zero ShardUnavailable and every mid-swap probe answer to match an
# installed generation (old or new, never mixed); every swap must land
# on the whole fleet, the first whole and the rest as deltas; after the
# last, every pair answers like Dijkstra on the patched graph. The
# live tests are ignored in `test`; one test thread and --nocapture, so
# each push's install bytes print.
dynamic-smoke:
	$(CARGO) test --release -q -p dw-dynamic --test live_updates -- --include-ignored --test-threads=1 --nocapture

# Serving-plane chaos (DESIGN.md §15): a shard-link stall and a shard
# kill during a query + table-swap stream on a live 3-shard deployment.
# Asserts generation fencing (no answer from a retired generation), no
# ShardUnavailable outside the killed block, live shards unaffected and
# no query hung; prints per-nemesis recovery latencies (the E21 rows).
serve-chaos:
	$(CARGO) test --release -q -p dw-dynamic --test live_chaos -- --include-ignored --test-threads=1 --nocapture
