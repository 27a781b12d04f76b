//! The metric registry: every name the benchmark prints, with its unit,
//! its direction and, for a per-layer metric, the end-to-end metric it
//! should move and on which workload. `BENCHMARK.json` at the root of the
//! repository is what [`benchmark_json`] prints; a test holds the file to
//! it.

use crate::workloads;
use std::fmt::Write as _;

/// A metric a user of the system would see, with the share of the parent
/// commit's median by which it may worsen before a change is rejected.
/// A timing is the first quartile (nearest rank) of the run's samples: see
/// `README.md`, "Noise".
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        meaning: "graph generation, Dijkstra oracle rows and the graph JSON write, outside the \
                  timed pipeline; one set-up a cycle, first quartile over the cycles",
    },
    EndToEnd {
        name: "time_to_serving_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        meaning: "graph JSON on disk to the first verified answer from the gateway, one cold \
                  rep; first quartile over the reps of all cycles after the warm-up",
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        meaning: "the solve call alone, on the workload's algorithm and runtime, every row \
                  checked against Dijkstra; first quartile over cold reps",
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
        meaning: "client-observed latency at 8 closed-loop connections, which keep both cores \
                  busy; median over a cycle's loaded sub-run, first quartile over the cycles",
    },
    EndToEnd {
        name: "update_visible_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        meaning: "batch handed to apply_update_batch, tables pushed and accepted, probe query \
                  answered with the patched graph's distance; first quartile over the batches of \
                  all cycles",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
        meaning: "VmHWM of the workload's process after its first cold rep: one pass from graph \
                  JSON to first answer in a fresh process",
    },
];

/// A metric of one layer. `moves` names the end-to-end metric and the
/// workload it is predicted to move; `-` where it is a baseline or an
/// exact count that must not move at all.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        moves,
    }
}

const EXACT: &str = "- (exact count, pinned, must not move under a speed-up)";
const COLD: &str = "time_to_serving_s";

pub const PER_LAYER: &[PerLayer] = &[
    lower("bench.trace_overhead_share", "ratio", "- (traced over untraced time_to_serving_s, minus 1)"),
    lower("bench.unattributed_s", "s", "- (cold rep time outside every adapter span)"),
    lower("bench.update_unattributed_ms", "ms", "- (update batch time outside apply, push, probe)"),
    higher("bench.cold_reps", "count", "- (sample count behind time_to_serving_s and solve_s)"),
    higher("bench.query_samples", "count", "- (sample count behind query_p50_us and query_p99_us)"),
    higher("bench.update_batches", "count", "- (sample count behind update_visible_ms)"),
    lower("bench.peak_rss_end_mib", "MiB", "- (VmHWM when the traced pass ends: every phase, and the load generator's own buffers)"),
    lower("graphgen.gen_s", "s", "setup_s, largest on kssp20k_sim_path"),
    lower("graphgen.load_json_s", "s", "time_to_serving_s on kssp20k_sim_path"),
    lower("graphgen.csr_bytes", "B", "peak_rss_mib on kssp20k_sim_path"),
    lower("graphgen.patch_us", "us", "update_visible_ms on kssp20k_sim_path"),
    lower("seqref.oracle_s", "s", "setup_s; solve_s on apsp384_oracle_swap"),
    lower("congest.rounds", "count", EXACT),
    lower("congest.rounds_executed", "count", EXACT),
    lower("congest.messages", "count", EXACT),
    lower("congest.max_link_load", "count", EXACT),
    lower("congest.slab_peak", "count", EXACT),
    lower("congest.slab_bytes", "B", EXACT),
    lower("congest.ns_per_message", "ns", "solve_s on apsp256_sim_uniform"),
    lower("congest.us_per_executed_round", "us", "solve_s on kssp20k_sim_path"),
    lower("congest.probe_dense_ns_per_msg", "ns", "- (all-broadcast probe: engine cost without Algorithm 1)"),
    lower("congest.probe_idle_us_per_round", "us", "- (single-token probe: engine cost of an idle round)"),
    lower("pipeline.solve_sim_s", "s", "solve_s on apsp256_sim_uniform and kssp20k_sim_path"),
    lower("pipeline.round_bound_ratio", "ratio", "- (rounds over Theorem I.1's bound, exact, stays <= 1)"),
    lower("pipeline.incremental_solve_us", "us", "update_visible_ms on apsp256_sim_uniform"),
    lower("transport.solve_threads_s", "s", "- (thread backend baseline on kssp1k_tcp_zipf)"),
    lower("transport.solve_tcp_s", "s", "solve_s on kssp1k_tcp_zipf"),
    lower("transport.sim_gap_threads", "ratio", "- (solve_threads_s over pipeline.solve_sim_s)"),
    lower("transport.sim_gap_tcp", "ratio", "solve_s on kssp1k_tcp_zipf (solve_tcp_s over pipeline.solve_sim_s)"),
    lower("transport.overhead_us_per_round_threads", "us", "- (baseline)"),
    lower("transport.overhead_us_per_round_tcp", "us", "solve_s on kssp1k_tcp_zipf"),
    lower("transport.share_of_solve", "ratio", "solve_s on kssp1k_tcp_zipf; 0 on every other workload"),
    lower("transport.failed_runs", "count", "- (transport solves that returned an error)"),
    lower("blocker.alg3_s", "s", "- (Algorithm 3 baseline on apsp256_sim_uniform's graph)"),
    lower("blocker.alg3_rounds", "count", "- (exact)"),
    lower("blocker.q_size", "count", "- (exact)"),
    lower("obs.recorder_overhead_share", "ratio", "solve_s when recording; ROADMAP 5(d) wants <= 0.02"),
    lower("serve.table_build_s", "s", COLD),
    lower("serve.table_persist_s", "s", "time_to_serving_s on apsp384_oracle_swap"),
    lower("serve.table_load_s", "s", "time_to_serving_s on apsp384_oracle_swap"),
    lower("serve.table_file_bytes", "B", EXACT),
    lower("serve.shard_split_s", "s", "time_to_serving_s on apsp384_oracle_swap (inside serve.deploy_s)"),
    lower("serve.deploy_s", "s", "time_to_serving_s on apsp384_oracle_swap"),
    lower("serve.first_answer_s", "s", COLD),
    lower("serve.answer_dist_ns", "ns", "query_qps on kssp20k_sim_path"),
    lower("serve.answer_path_ns", "ns", "query_qps on kssp20k_sim_path"),
    lower("serve.mean_path_hops", "count", "- (size of the walk behind serve.answer_path_ns)"),
    lower("serve.batch_ns_per_query", "ns", "query_p50_us on apsp256_sim_uniform"),
    higher("serve.mean_batch_size", "count", "query_qps on apsp256_sim_uniform"),
    lower("serve.gateway_added_us", "us", "serve.p50_1conn_us less the shard's own time; query_p50_us on apsp256_sim_uniform"),
    higher("serve.cache_hit_rate", "ratio", "query_p50_us and query_qps on kssp1k_tcp_zipf"),
    lower("serve.route_ns_per_query", "ns", "query_p50_us on kssp1k_tcp_zipf"),
    lower("serve.lookup_ns_per_query", "ns", "query_p50_us on apsp256_sim_uniform"),
    lower("serve.walk_ns_per_query", "ns", "query_p50_us on kssp20k_sim_path"),
    lower("serve.query_p99_us", "us", "- (99th percentile under load; too unsteady on a shared box for a bound)"),
    higher("serve.qps_8conn", "1/s", "- (answers per second under the load behind query_p50_us; median over cycles. Collapsed fivefold for minutes at a time on the sizing box, so it has no bound)"),
    higher("serve.qps_1conn", "1/s", "- (one connection: an idle deployment, bound by wake-up latency)"),
    lower("serve.p50_1conn_us", "us", "- (one connection; the 200 us flush tick plus four thread hops)"),
    lower("serve.p99_1conn_us", "us", "- (one connection)"),
    lower("dynamic.apply_batch_ms", "ms", "update_visible_ms on apsp256_sim_uniform"),
    lower("dynamic.solve_us", "us", "update_visible_ms (apply_batch_ms less graphgen.patch_us)"),
    lower("dynamic.recomputed_fraction", "ratio", "update_visible_ms"),
    lower("dynamic.full_recompute_ms", "ms", "- (the from-scratch solve an update is compared with)"),
    higher("dynamic.speedup_vs_full", "ratio", "update_visible_ms"),
    lower("dynamic.push_ms", "ms", "update_visible_ms and dynamic.swap_query_p99_us on apsp384_oracle_swap"),
    lower("dynamic.push_bytes", "B", "dynamic.push_ms"),
    lower("dynamic.probe_us", "us", "update_visible_ms"),
    lower("dynamic.update_visible_p90_ms", "ms", "- (too few batches per run for a bound; see README)"),
    lower("dynamic.swap_query_p50_us", "us", "- (the one query connection beside the updater, 2 ms between its queries)"),
    lower("dynamic.swap_query_p99_us", "us", "- (the same; its tail is where an install shows)"),
    lower("dynamic.swaps_rejected", "count", "- (must stay 0)"),
];

/// The program and arguments `BENCHMARK.json` names; the driver appends
/// `--workload .. --seed .. --seconds .. --trace ..`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures for. Set-up, replay and process start come
/// on top: a run takes 22 to 30 s of wall clock on the sizing box.
pub const RUN_SECONDS: u32 = 28;

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The exact text of `BENCHMARK.json` (`-- describe` prints it).
pub fn benchmark_json() -> String {
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut s = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n",
        quoted.join(", ")
    );
    let rows = |s: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(s, "  \"{key}\": [");
        let _ = writeln!(s, "    {}", rows.join(",\n    "));
        let _ = writeln!(s, "  ]{}", if last { "" } else { "," });
    };
    rows(
        &mut s,
        "workloads",
        workloads::all()
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
        false,
    );
    rows(
        &mut s,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m.higher_is_better),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    rows(
        &mut s,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m.higher_is_better)
                )
            })
            .collect(),
        true,
    );
    s.push_str("}\n");
    s
}

/// The glossary tables of `README.md` (`-- glossary` prints them).
pub fn glossary_markdown() -> String {
    let mut s = String::from(
        "| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound,
            m.meaning
        );
    }
    s.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.moves
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `-- describe`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let whys = workloads::all();
        assert!((2..=8).contains(&whys.len()));
        assert!(whys.iter().all(|w| !w.why.contains(['"', '\\', '\n'])));
    }
}
