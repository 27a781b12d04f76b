# Workspace convenience targets. `make ci` is the full gate the tree is
# expected to keep green.

CARGO ?= cargo

.PHONY: ci build test fmt clippy report golden obs-schema bench-smoke bench-check bench-baseline transport-conformance pipeline-conformance shard-conformance chaos-smoke scale-smoke serve-conformance serve-smoke dynamic-smoke serve-chaos maelstrom-smoke

ci: build test fmt clippy obs-schema bench-check transport-conformance pipeline-conformance shard-conformance chaos-smoke scale-smoke serve-conformance serve-smoke dynamic-smoke serve-chaos maelstrom-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Regenerate every experiment table (quick mode).
report:
	$(CARGO) run -p dw-bench --bin report --release

# Refresh the golden regression snapshots after an intentional change.
golden:
	UPDATE_GOLDEN=1 $(CARGO) test -q -p dwapsp --test golden_regression
	UPDATE_GOLDEN=1 $(CARGO) test -q -p dwapsp --test obs_schema

# The dwapsp-obs-v1 wire formats, pinned: golden JSONL + Chrome-trace
# fixtures of a recorded Algorithm 3 run, and the parse -> re-export
# byte-identity round trip. Refresh intentional changes with
# `UPDATE_GOLDEN=1` (the `golden` target does both suites).
obs-schema:
	$(CARGO) test -q -p dwapsp --test obs_schema

# The transport backends must reproduce the simulator bit for bit
# (distances, RunStats, outcomes) — threads + loopback TCP + stdio, with
# and without fault plans, for Algorithm 1 / short-range / Reliable.
transport-conformance:
	$(CARGO) test --release -q -p dw-transport --test conformance
	$(CARGO) test --release -q -p dwapsp --test transport_conformance

# Algorithm 1's execution, not only its answers, is pinned (release
# build, because the key arithmetic's overflow contract must hold there
# too): `NodeList` against the scan-everything list it replaced, over
# random operation sequences; RunStats + InvariantReport + a hash of
# every node's checkpoint bytes on two fixed graphs, recorded before the
# list grew its columns and cursor; then the end-to-end properties and
# the golden round/message/distance snapshots.
pipeline-conformance:
	$(CARGO) test --release -q -p dw-pipeline --lib -- list::tests key::tests
	$(CARGO) test --release -q -p dw-pipeline --test pinned_behaviour
	$(CARGO) test --release -q -p dwapsp --test prop_pipeline
	$(CARGO) test --release -q -p dwapsp --test golden_regression

# The sharded workers (DESIGN.md §11) specifically: property-based
# differential tests over shard counts P in {1, 2, ceil(n/3), n} on
# random graphs and fault plans, plus the whole-shard chaos recovery
# and sharded-runtime selection tests.
shard-conformance:
	$(CARGO) test --release -q -p dw-transport --test conformance sharded_
	$(CARGO) test --release -q -p dw-transport --lib sharded_
	$(CARGO) test --release -q -p dw-pipeline --lib sharded

# Crash-fault smoke test (DESIGN.md §10): kill one node mid-run on the
# thread backend, recover from checkpoint + neighbor replay, and require
# distances bit-identical to the fault-free simulator (exit 0). The
# generated graph is checked explicitly so a silent gen failure cannot
# surface later as a confusing load error.
chaos-smoke:
	$(CARGO) run --release -q -p dwapsp --bin dwapsp -- gen --family zero-heavy \
		--n 14 --w 5 --seed 9 --out target/chaos-smoke.json \
		|| { echo "chaos-smoke: FAIL — graph generation exited nonzero" >&2; exit 1; }
	@test -s target/chaos-smoke.json \
		|| { echo "chaos-smoke: FAIL — target/chaos-smoke.json missing or empty after gen" >&2; exit 1; }
	$(CARGO) run --release -q -p dwapsp --bin dwapsp -- chaos \
		--graph target/chaos-smoke.json --runtime threads --kill 5@4 --cadence 3

# Engine micro-benchmarks (criterion shim): scheduling modes x seq/par on
# idle-heavy, dense and fast-forward workloads, plus small e15_transport /
# e16_alg3_phases passes. For eyeballing, not CI.
bench-smoke:
	$(CARGO) bench -p dw-bench --bench engine_microbench
	$(CARGO) run --release -p dw-bench --bin transport_bench -- --smoke

# Throughput regression gate: re-measures the workload set of the
# highest-numbered BENCH_*.json (engine modes + e15 transport runtimes +
# e15 sharded workers + e16 recorded phases + scale_* n>=50k + serve_*
# query-plane QPS) and fails on a >20% rounds/sec regression, or on any
# e15_sharded_* mode falling more than 10x behind the simulator.
# Soft-passes with a warning until a baseline exists.
bench-check:
	$(CARGO) run --release -p dw-bench --bin bench_check

# Re-record the BENCH_9.json baseline (carries the frozen pre_pr history
# forward from BENCH_8.json).
bench-baseline:
	$(CARGO) run --release -p dw-bench --bin transport_bench -- --out BENCH_9.json --keep-pre BENCH_8.json

# Large-graph memory/time guard: one n=50k short-range SSSP run that must
# go quiet inside the Lemma II.15 budget, finish inside the time box, and
# keep peak RSS under 128 MiB + 10x the graph's own CSR footprint.
scale-smoke:
	$(CARGO) run --release -q -p dw-bench --bin scale_smoke

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

# Serving-plane smoke test (DESIGN.md §13): compute APSP tables with
# Algorithm 1, persist them through the snapshot codec, stand up 2 shard
# servers + the gateway on loopback, verify ~1k mixed distance/path
# queries against sequential Dijkstra, then kill one shard and require
# the typed ShardUnavailable degradation within a bounded deadline.
serve-smoke:
	$(CARGO) run --release -q -p dw-bench --bin serve_smoke

# Dynamic-update smoke test (DESIGN.md §14): seeded update batches
# recomputed incrementally (Algorithm-1 dirty re-solve) and pushed to a
# live 2-shard deployment — a hammer thread queries throughout and
# requires zero ShardUnavailable, every mid-swap probe answer to match
# an installed generation (old or new, never mixed), and the post-swap
# tables to answer bit-identically to Dijkstra on the patched graph.
dynamic-smoke:
	$(CARGO) run --release -q -p dw-bench --bin dynamic_smoke

# Serving-plane chaos (DESIGN.md §15): a ChaosPlan-scripted shard kill
# and gateway<->shard partition during a mixed query + table-swap
# stream. Asserts generation fencing (no answer from a retired
# generation), typed ShardUnavailable degradation inside the timeout
# budget, live shards unaffected, and full recovery once healed;
# prints per-nemesis recovery latencies (the E21 rows).
serve-chaos:
	$(CARGO) run --release -q -p dw-bench --bin serve_chaos

# Maelstrom validation (DESIGN.md §15): `dwapsp run-node --maelstrom`
# under the real Jepsen harness's echo workload with its partition
# nemesis. The stdio handshake self-check always runs; the harness leg
# skips explicitly (a SKIP line, exit 0) when java or the Maelstrom
# distribution is unavailable — CI containers are offline.
maelstrom-smoke:
	sh scripts/maelstrom_smoke.sh
