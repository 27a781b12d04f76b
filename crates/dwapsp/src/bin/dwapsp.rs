//! `dwapsp` — command-line front end.
//!
//! ```text
//! dwapsp gen  --family zero-heavy --n 32 --w 6 --seed 7 --out g.json
//! dwapsp run  --graph g.json --algo alg1|alg3|bf|approx [--sources 0,3,9]
//!             [--h 4] [--eps 1/2]
//! dwapsp validate --graph g.json          # run everything, diff vs Dijkstra
//! dwapsp info --graph g.json              # structural stats
//! ```
//!
//! Graphs are the JSON documents of `dw_graph::io` (n, directed, edge
//! list), so instances are easy to craft by hand or from other tools.
//!
//! The serving plane (`dw-serve`) adds a compute-once / query-forever
//! workflow:
//!
//! ```text
//! dwapsp tables  --graph g.json --out g.tables       # compute + persist
//! dwapsp serve   --tables g.tables --shards 4 --listen 127.0.0.1:7000
//! dwapsp query   --gateway 127.0.0.1:7000 --src 0 --dst 9 --path
//! dwapsp loadgen --gateway 127.0.0.1:7000 --tables g.tables --zipf 1.1
//! ```

use dwapsp::approx::approx_apsp;
use dwapsp::baselines::bf_apsp;
use dwapsp::blocker::alg3::{
    alg3_apsp, alg3_apsp_recorded, alg3_k_ssp, alg3_k_ssp_recorded, suggested_h_weight_regime,
};
use dwapsp::congest::{FaultPlan, Outage, Round};
use dwapsp::dynamic::{
    apply_update_batch, gen_update_batch, parse_updates, RecomputeEngine, UpdatePool,
};
use dwapsp::graph::{analysis, gen, io as gio};
use dwapsp::obs::export::{parse_jsonl, to_chrome_trace, to_jsonl};
use dwapsp::obs::report::{aggregate_phases, render_report, PhaseBound};
use dwapsp::obs::{ObsRecorder, Recorder, Recording};
use dwapsp::pipeline::bound::hk_round_bound;
use dwapsp::pipeline::{default_budget, hk_ssp_nodes, ChaosConfig, HkSspResult, SolveError};
use dwapsp::prelude::*;
use dwapsp::seqref::matrices_equal;
use dwapsp::serve::{
    run_loadgen, serve_shard, shared_tables, Deployment, Gateway, GatewayConfig, LoadgenConfig,
    QueryOutcome, ServeClient, TableSnapshot, VersionedTables,
};
use dwapsp::transport::{
    run_coordinator_tcp, run_shard_tcp, ChaosPlan, CoordConfig, ShardMap, TransportConfig,
};
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_and_exit();
    };
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    match cmd.as_str() {
        "gen" => cmd_gen(&get),
        "run" => cmd_run(&get),
        "solve" => cmd_solve(&get),
        "chaos" => cmd_chaos(&get),
        "report" => cmd_report(&get),
        "run-node" => cmd_run_node(&get),
        "coordinator" => cmd_coordinator(&get),
        "tables" => cmd_tables(&get),
        "serve" => cmd_serve(&get),
        "serve-shard" => cmd_serve_shard(&get),
        "query" => cmd_query(&get),
        "update" => cmd_update(&get),
        "apply-updates" => cmd_apply_updates(&get),
        "loadgen" => cmd_loadgen(&get),
        "validate" => cmd_validate(&get),
        "info" => cmd_info(&get),
        _ => usage_and_exit(),
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage:\n  dwapsp gen --family <zero-heavy|positive|grid|grid2d|power-law|staircase|fig1> \
         [--n N] [--w W] [--attach A] [--seed S] [--out FILE]\n  dwapsp run --graph FILE --algo \
         <alg1|alg3|bf|approx> [--sources a,b,c] [--h H] [--eps NUM/DEN] [--delta D] \
         [--runtime <sim|threads[:P]|tcp[:P]>]\n  dwapsp run-node --graph FILE --node-id V \
         --listen ADDR --peers u=ADDR,w=ADDR --coordinator ADDR [--sources a,b,c] \
         [--delta D] [--timeout-secs T] [--shards P | --nodes-per-worker K]\n  \
         dwapsp run-node --maelstrom   (serve the Maelstrom node protocol on stdin/stdout)\n  \
         dwapsp coordinator --graph FILE --listen ADDR \
         [--sources a,b,c] [--budget B] [--shards P | --nodes-per-worker K]\n  \
         dwapsp solve --graph FILE [--algo <alg1|alg3>] \
         [--sources a,b,c] [--h H] [--delta D] [--runtime <sim|threads[:P]|tcp[:P]>] [--trace-out FILE] \
         [--metrics-out FILE] [--print-matrix]\n  dwapsp chaos --graph FILE \
         [--runtime <threads[:P]|tcp[:P]>] [--sources a,b,c] [--kill V@R,..] [--sever A-B@R,..] \
         [--stall R@MS,..] [--partition G1|G2@FROM[:HEAL],..] [--asym-loss U-V@FROM[:UNTIL],..] \
         [--bandwidth-cap A-B@BYTES,..] [--seed S] [--cadence <K|off>] [--deadline-ms MS] \
         [--metrics-out FILE]\n  dwapsp report --metrics FILE\n  \
         dwapsp tables --graph FILE --out FILE [--sources a,b,c] [--delta D] \
         [--runtime <sim|threads[:P]|tcp[:P]>] [--oracle]\n  \
         dwapsp serve --tables FILE [--listen ADDR] [--shards P | --shard-addrs A,B,..] \
         [--max-batch B] [--cache C] [--duration-secs T]\n  \
         dwapsp serve-shard --tables FILE --listen ADDR --shards P --shard-id S\n  \
         dwapsp query --gateway ADDR --src S --dst D [--path]\n  \
         dwapsp update --graph FILE --tables FILE --updates FILE [--batch-size B] \
         [--out-tables FILE] [--out-graph FILE]\n  \
         dwapsp apply-updates --graph FILE --tables FILE --updates FILE --gateway ADDR \
         [--batch-size B] [--out-tables FILE] [--out-graph FILE]\n  \
         dwapsp loadgen --gateway ADDR --tables FILE [--clients C] [--requests R] \
         [--zipf S] [--zipf-pairs P] [--path-fraction F] [--seed S] [--json] \
         [--update-graph FILE [--update-every-ms T] [--update-batch B] [--update-seed S]]\n  \
         dwapsp validate --graph FILE\n  dwapsp info --graph FILE"
    );
    exit(2);
}

/// `value` parsed as the argument of `flag`. A malformed value is a
/// usage error: it prints `invalid value for FLAG: 'VALUE'` and exits 2.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: '{value}'");
        exit(2);
    })
}

fn load(get: &impl Fn(&str) -> Option<String>) -> WGraph {
    let path = get("--graph").unwrap_or_else(|| {
        eprintln!("--graph FILE is required");
        exit(2);
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    gio::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

fn cmd_gen(get: &impl Fn(&str) -> Option<String>) {
    let family = get("--family").unwrap_or_else(|| "zero-heavy".into());
    let n: usize = get("--n").map_or(32, |s| parse_flag("--n", &s));
    let w: u64 = get("--w").map_or(6, |s| parse_flag("--w", &s));
    let seed: u64 = get("--seed").map_or(1, |s| parse_flag("--seed", &s));
    let g = match family.as_str() {
        "zero-heavy" => gen::zero_heavy(n, 3.0 / n as f64, 0.4, w, true, seed),
        "positive" => gen::gnp_connected(
            n,
            3.0 / n as f64,
            true,
            gen::WeightDist::ZeroOr {
                p_zero: 0.0,
                max: w,
            },
            seed,
        ),
        "grid" => {
            let side = (n as f64).sqrt().round().max(2.0) as usize;
            gen::grid(
                side,
                side,
                false,
                gen::WeightDist::ZeroOr {
                    p_zero: 0.3,
                    max: w,
                },
                seed,
            )
        }
        "staircase" => gen::staircase(n.max(4) / 4, 4, w.max(1), true),
        "fig1" => gen::fig1_gadget(n.clamp(2, 64), w.max(1), 1, true).0,
        // Streaming large-graph families (no O(n²) intermediates): these
        // are the ones to use at 50k+ nodes.
        "grid2d" => {
            let side = (n as f64).sqrt().round().max(2.0) as usize;
            gen::grid2d(side, side, gen::WeightDist::Uniform { max: w }, seed)
        }
        "power-law" => {
            let attach: usize = get("--attach").map_or(2, |s| parse_flag("--attach", &s));
            gen::power_law(n.max(2), attach, gen::WeightDist::Uniform { max: w }, seed)
        }
        other => {
            eprintln!("unknown family {other}");
            exit(2);
        }
    };
    let json = gio::to_json(&g);
    match get("--out") {
        Some(path) => {
            std::fs::write(&path, json).expect("write graph file");
            eprintln!("wrote {} (n={}, m={})", path, g.n(), g.m());
        }
        None => println!("{json}"),
    }
}

fn parse_sources(get: &impl Fn(&str) -> Option<String>, n: usize) -> Option<Vec<NodeId>> {
    get("--sources").map(|s| {
        s.split(',')
            .map(|x| {
                let v: NodeId = parse_flag("--sources", x.trim());
                if v as usize >= n {
                    eprintln!("--sources: node {v} out of range (n = {n})");
                    exit(2);
                }
                v
            })
            .collect()
    })
}

/// Algorithm 1 on `rt`, or exit 1 naming the runtime that failed.
fn solve_or_exit(
    g: &WGraph,
    cfg: &SspConfig,
    rt: Runtime,
    rec: &mut dyn Recorder,
) -> (HkSspResult, RunStats) {
    match solve_hk_ssp(g, cfg, &Run::on(rt), rec) {
        Ok(s) => (s.result, s.stats),
        Err(e) => {
            eprintln!("{} runtime failed: {e}", rt.as_str());
            exit(1);
        }
    }
}

fn print_stats(prefix: &str, rounds: u64, messages: u64, link: u64) {
    println!("{prefix}: rounds={rounds} messages={messages} max-link-load={link}");
}

fn parse_runtime(get: &impl Fn(&str) -> Option<String>) -> Runtime {
    get("--runtime").map_or(Runtime::Sim, |s| {
        Runtime::parse(&s).unwrap_or_else(|| {
            eprintln!("unknown runtime {s} (expected sim, threads, tcp, threads:P or tcp:P)");
            exit(2);
        })
    })
}

fn cmd_run(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let algo = get("--algo").unwrap_or_else(|| "alg1".into());
    let rt = parse_runtime(get);
    if rt != Runtime::Sim && algo != "alg1" {
        eprintln!("--runtime {} only supports --algo alg1", rt.as_str());
        exit(2);
    }
    let engine = EngineConfig::default();
    match algo.as_str() {
        "alg1" => {
            // `--delta` skips the exact Δ computation (a full sequential
            // APSP) — required on large graphs, where any sound upper
            // bound on the distances of interest keeps the run correct
            // (only the round budget depends on Δ).
            let delta_flag = get("--delta").map(|s| parse_flag("--delta", &s));
            let sources = parse_sources(get, g.n());
            let (res, st, label) =
                if sources.is_none() && rt == Runtime::Sim && delta_flag.is_none() {
                    let (res, st, delta) = apsp_auto(&g, engine);
                    (res, st, format!("alg1 apsp (Δ={delta})"))
                } else {
                    let delta = delta_flag.unwrap_or_else(|| max_finite_distance(&g).max(1));
                    let (cfg, what) = match sources {
                        Some(s) => (SspConfig::k_ssp(g.n(), s, delta), "k-ssp".to_string()),
                        None => (SspConfig::apsp(g.n(), delta), format!("apsp (Δ={delta})")),
                    };
                    let (res, st) = solve_or_exit(&g, &cfg, rt, &mut NullRecorder);
                    (res, st, format!("alg1 {what} [{}]", rt.as_str()))
                };
            print_stats(&label, st.rounds, st.messages, st.max_link_load);
            print_matrix(&res.to_matrix());
        }
        "alg3" => {
            let h = get("--h").map_or_else(
                || suggested_h_weight_regime(g.n(), g.n(), g.max_weight()),
                |s| parse_flag("--h", &s),
            );
            let delta = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
            let out = if let Some(sources) = parse_sources(get, g.n()) {
                alg3_k_ssp(&g, &sources, h, delta, engine)
            } else {
                alg3_apsp(&g, h, delta, engine)
            };
            print_stats(
                &format!("alg3 (h={h}, |Q|={})", out.blockers.len()),
                out.stats.rounds,
                out.stats.messages,
                out.stats.max_link_load,
            );
            print_matrix(&out.matrix);
        }
        "bf" => {
            let (res, st) = bf_apsp(&g, engine);
            print_stats(
                "bellman-ford apsp",
                st.rounds,
                st.messages,
                st.max_link_load,
            );
            print_matrix(&res.to_matrix());
        }
        "approx" => {
            let eps = get("--eps").unwrap_or_else(|| "1/2".into());
            let (num, den) = eps
                .split_once('/')
                .map(|(a, b)| (parse_flag("--eps", a), parse_flag("--eps", b)))
                .unwrap_or_else(|| (parse_flag("--eps", &eps), 1));
            let out = approx_apsp(&g, num, den, engine);
            print_stats(
                &format!("approx apsp (ε={num}/{den})"),
                out.stats.rounds,
                out.stats.messages,
                out.stats.max_link_load,
            );
            print_matrix(&out.matrix);
        }
        other => {
            eprintln!("unknown algo {other}");
            exit(2);
        }
    }
}

/// `solve`: run an algorithm under a phase recorder and emit the
/// observability artifacts — a text report on stdout, optionally a
/// JSONL event log (`--metrics-out`, readable by `dwapsp report`) and a
/// Chrome-trace file (`--trace-out`, loadable in `chrome://tracing` /
/// Perfetto).
fn cmd_solve(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let algo = get("--algo").unwrap_or_else(|| "alg3".into());
    let rt = parse_runtime(get);
    let sources = parse_sources(get, g.n());
    let mut rec = ObsRecorder::new();
    rec.meta("algo", algo.clone());
    rec.meta("runtime", rt.as_str().to_string());
    rec.meta("n", g.n().to_string());

    let matrix = match algo.as_str() {
        "alg1" => {
            let delta = get("--delta").map_or_else(
                || max_finite_distance(&g).max(1),
                |s| parse_flag("--delta", &s),
            );
            let cfg = match sources {
                Some(s) => SspConfig::k_ssp(g.n(), s, delta),
                None => SspConfig::apsp(g.n(), delta),
            };
            rec.meta("k", cfg.k().to_string());
            rec.meta("h", cfg.h.to_string());
            rec.meta("delta", delta.to_string());
            solve_or_exit(&g, &cfg, rt, &mut rec).0.to_matrix()
        }
        "alg3" => {
            if rt != Runtime::Sim {
                eprintln!("--algo alg3 records phases on the simulator only (use --runtime sim)");
                exit(2);
            }
            let h = get("--h").map_or_else(
                || suggested_h_weight_regime(g.n(), g.n(), g.max_weight()),
                |s| parse_flag("--h", &s),
            );
            let delta = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
            rec.meta("k", sources.as_ref().map_or(g.n(), Vec::len).to_string());
            rec.meta("h", h.to_string());
            rec.meta("delta", delta.to_string());
            let out = match sources {
                Some(s) => alg3_k_ssp_recorded(&g, &s, h, delta, EngineConfig::default(), &mut rec),
                None => alg3_apsp_recorded(&g, h, delta, EngineConfig::default(), &mut rec),
            };
            rec.meta("blockers", out.blockers.len().to_string());
            out.matrix
        }
        other => {
            eprintln!("solve supports --algo alg1 or alg3, not {other}");
            exit(2);
        }
    };

    let recording = rec.into_recording();
    if let Some(path) = get("--metrics-out") {
        std::fs::write(&path, to_jsonl(&recording)).expect("write metrics file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = get("--trace-out") {
        std::fs::write(&path, to_chrome_trace(&recording)).expect("write trace file");
        eprintln!("wrote {path} (load in chrome://tracing or Perfetto)");
    }
    print!("{}", render_report(&recording, &phase_bounds(&recording)));
    if get("--print-matrix").is_some() {
        print_matrix(&matrix);
    }
}

/// Parse one numeric field of a chaos flag, with the flag and the whole
/// entry named in the error.
fn chaos_num(flag: &str, item: &str, x: &str) -> u64 {
    x.parse().unwrap_or_else(|_| {
        eprintln!("{flag} entry {item:?} has a non-numeric field {x:?}");
        exit(2);
    })
}

/// Parse a comma-separated fault list, e.g. `--kill 3@5,7@9`. Each item
/// is split on the given separators and handed to `build` as numbers.
fn parse_faults(spec: &str, flag: &str, seps: &[char], arity: usize) -> Vec<Vec<u64>> {
    spec.split(',')
        .map(|item| {
            let parts: Vec<u64> = item
                .trim()
                .split(seps)
                .map(|x| chaos_num(flag, item, x))
                .collect();
            if parts.len() != arity {
                eprintln!("{flag} entry {item:?}: expected {arity} fields");
                exit(2);
            }
            parts
        })
        .collect()
}

/// `chaos`: run Algorithm 1 on a real transport backend under a
/// scripted fault plan, then verify recovery by diffing the distances
/// against the fault-free simulator on the same instance. Exits 0 when
/// the chaos run recovers bit-identically, 1 on a distance mismatch,
/// and 3 when the faults were unrecoverable (printing the structured
/// partial outcome instead of hanging).
fn cmd_chaos(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let rt = get("--runtime").map_or(Runtime::Threads, |s| {
        Runtime::parse(&s).unwrap_or_else(|| {
            eprintln!("unknown runtime {s}");
            exit(2);
        })
    });
    if rt == Runtime::Sim {
        eprintln!("chaos needs a real transport backend (--runtime threads or tcp)");
        exit(2);
    }
    let seed: u64 = get("--seed").map_or(0, |s| parse_flag("--seed", &s));
    let mut plan = ChaosPlan::new(seed);
    if let Some(spec) = get("--kill") {
        for f in parse_faults(&spec, "--kill", &['@'], 2) {
            plan = plan.with_kill(f[0] as NodeId, f[1]);
        }
    }
    if let Some(spec) = get("--sever") {
        for f in parse_faults(&spec, "--sever", &['-', '@'], 3) {
            plan = plan.with_sever(f[0] as NodeId, f[1] as NodeId, f[2]);
        }
    }
    if let Some(spec) = get("--stall") {
        for f in parse_faults(&spec, "--stall", &['@'], 2) {
            plan = plan.with_stall(f[0], f[1]);
        }
    }
    // The link flags are FaultPlan rules (the simulator runs them too);
    // kill, sever and stall are the process events of the chaos plan.
    let mut faults = FaultPlan::new(seed);
    if let Some(spec) = get("--partition") {
        // `0.1.2|3.4@1:6` — dot-joined groups split by `|`, active from
        // round 1, healing at round 6 (omit `:HEAL` for a permanent cut).
        for item in spec.split(',') {
            let item = item.trim();
            let Some((grps, when)) = item.split_once('@') else {
                eprintln!("--partition entry {item:?}: expected GROUPS@FROM[:HEAL]");
                exit(2);
            };
            let groups: Vec<Vec<NodeId>> = grps
                .split('|')
                .map(|g| {
                    g.split('.')
                        .map(|x| chaos_num("--partition", item, x) as NodeId)
                        .collect()
                })
                .collect();
            let (from, heal) = match when.split_once(':') {
                Some((f, h)) => (
                    chaos_num("--partition", item, f),
                    Some(chaos_num("--partition", item, h)),
                ),
                None => (chaos_num("--partition", item, when), None),
            };
            if heal.is_some_and(|h| h <= from) {
                eprintln!("--partition entry {item:?}: heals at or before it starts");
                exit(2);
            }
            faults = faults.with_partition(groups, from, heal);
        }
    }
    if let Some(spec) = get("--asym-loss") {
        // `3-4@0:9` drops 3→4 (one direction only) for rounds 0..9 — a
        // one-way outage over 0..=8; omit `:UNTIL` for a permanent cut.
        for item in spec.split(',') {
            let item = item.trim();
            let (Some((link, when)), 1) = (item.split_once('@'), item.matches('@').count()) else {
                eprintln!("--asym-loss entry {item:?}: expected FROM-TO@FROM_ROUND[:UNTIL]");
                exit(2);
            };
            let Some((u, v)) = link.split_once('-') else {
                eprintln!("--asym-loss entry {item:?}: expected FROM-TO@FROM_ROUND[:UNTIL]");
                exit(2);
            };
            let (start, end) = match when.split_once(':') {
                Some((f, h)) => {
                    let (start, until) = (
                        chaos_num("--asym-loss", item, f),
                        chaos_num("--asym-loss", item, h),
                    );
                    if until <= start {
                        eprintln!(
                            "--asym-loss entry {item:?}: the window {start}..{until} is empty"
                        );
                        exit(2);
                    }
                    (start, until - 1)
                }
                None => (chaos_num("--asym-loss", item, when), Round::MAX),
            };
            faults = faults.with_outage(Outage {
                from: chaos_num("--asym-loss", item, u) as NodeId,
                to: chaos_num("--asym-loss", item, v) as NodeId,
                start,
                end,
                symmetric: false,
            });
        }
    }
    if let Some(spec) = get("--bandwidth-cap") {
        for f in parse_faults(&spec, "--bandwidth-cap", &['-', '@'], 3) {
            faults = faults.with_bandwidth_cap(f[0] as NodeId, f[1] as NodeId, f[2]);
        }
    }
    let chaos = ChaosConfig {
        plan,
        cadence: match get("--cadence").as_deref() {
            Some("off") => None,
            Some(s) => Some(parse_flag("--cadence", s)),
            None => ChaosConfig::default().cadence,
        },
        deadline: Duration::from_millis(
            get("--deadline-ms").map_or(500, |s| parse_flag("--deadline-ms", &s)),
        ),
    };

    let delta = max_finite_distance(&g).max(1);
    let cfg = match parse_sources(get, g.n()) {
        Some(s) => SspConfig::k_ssp(g.n(), s, delta),
        None => SspConfig::apsp(g.n(), delta),
    };
    let (reference, _) = solve_or_exit(&g, &cfg, Runtime::Sim, &mut NullRecorder);

    let mut rec = ObsRecorder::new();
    rec.meta("algo", "alg1-chaos".to_string());
    rec.meta("runtime", rt.as_str().to_string());
    rec.meta("n", g.n().to_string());
    rec.meta("chaos_seed", seed.to_string());
    let run = Run {
        engine: EngineConfig {
            faults: (!faults.is_pristine()).then_some(faults),
            ..EngineConfig::default()
        },
        recovery: Some(Recovery::Chaos(chaos)),
        ..Run::on(rt)
    };
    let res = solve_hk_ssp(&g, &cfg, &run, &mut rec);
    let recording = rec.into_recording();
    if let Some(path) = get("--metrics-out") {
        std::fs::write(&path, to_jsonl(&recording)).expect("write metrics file");
        eprintln!("wrote {path} (render the recovery timeline with `dwapsp report`)");
    }
    match res {
        Ok(solved) => {
            let st = &solved.stats;
            print_stats(
                &format!("alg1 chaos [{}] outcome={:?}", rt.as_str(), solved.outcome),
                st.rounds,
                st.messages,
                st.max_link_load,
            );
            let diffs = matrices_equal(&reference.to_matrix(), &solved.result.to_matrix(), 5).len();
            if diffs == 0 {
                println!("recovered: distances bit-identical to the fault-free simulator ✓");
            } else {
                eprintln!("RECOVERY DIVERGED: {diffs} distance disagreement(s) vs simulator");
                exit(1);
            }
        }
        Err(SolveError::Partial(partial)) => {
            eprintln!(
                "unrecoverable: {} (round {}, failed nodes {:?}, incomplete sources {:?})",
                partial.reason, partial.round, partial.failed, partial.incomplete_sources
            );
            println!("salvaged distance upper bounds (failed columns are inf):");
            print_matrix(&partial.result.to_matrix());
            exit(3);
        }
        Err(e) => {
            eprintln!("{} runtime failed: {e}", rt.as_str());
            exit(1);
        }
    }
}

/// `report`: re-render the text report from a `--metrics-out` JSONL log.
fn cmd_report(get: &impl Fn(&str) -> Option<String>) {
    let path = get("--metrics").unwrap_or_else(|| {
        eprintln!("--metrics FILE (a `dwapsp solve --metrics-out` log) is required");
        exit(2);
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let recording = parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    });
    print!("{}", render_report(&recording, &phase_bounds(&recording)));
}

/// The paper bounds the report checks phases against, derived from the
/// run meta (`k`, `h`, `delta`, `n`) the recorder stored.
fn phase_bounds(rec: &Recording) -> Vec<PhaseBound> {
    let meta_u64 = |key: &str| rec.meta_value(key).and_then(|v| v.parse::<u64>().ok());
    let (Some(k), Some(h), Some(delta)) = (meta_u64("k"), meta_u64("h"), meta_u64("delta")) else {
        return Vec::new();
    };
    let n = meta_u64("n").unwrap_or(0);
    let mut bounds: Vec<PhaseBound> = vec![
        (
            "hk_ssp",
            hk_round_bound(h, k, delta),
            "Thm I.1: 2sqrt(dhk)+k+h",
        ),
        (
            "csssp",
            hk_round_bound(2 * h, k, delta) + 2 * (k + h + 2) + n,
            "Thm I.1 at 2h + validation wave",
        ),
    ];
    // Lemma III.8 bounds one Algorithm 4 invocation; the phase occurs
    // once per selected blocker.
    let q = aggregate_phases(rec)
        .iter()
        .find(|p| p.name == "alg4_update")
        .map_or(0, |p| p.count as u64);
    if q > 0 && k + h >= 1 {
        bounds.push((
            "alg4_update",
            q * 2 * (k + h - 1),
            "Lemma III.8: |Q| x 2(k+h-1)",
        ));
    }
    bounds
}

/// The Algorithm 1 instance a distributed deployment solves. Every
/// participant derives it from the shared graph file (plus identical
/// `--sources` / `--delta` flags), so all processes agree without any
/// extra configuration channel. Without `--delta`, Δ is the largest
/// finite distance *from a source* — k Dijkstras for a k-SSP instance,
/// not the n of a full APSP.
fn deployment_config(get: &impl Fn(&str) -> Option<String>, g: &WGraph) -> SspConfig {
    let sources = parse_sources(get, g.n());
    let delta = get("--delta").map_or_else(
        || match &sources {
            Some(sources) => dwapsp::seqref::k_source_dijkstra(g, sources).max_finite(),
            None => max_finite_distance(g),
        },
        |s| parse_flag("--delta", &s),
    );
    match sources {
        Some(sources) => SspConfig::k_ssp(g.n(), sources, delta.max(1)),
        None => SspConfig::apsp(g.n(), delta.max(1)),
    }
}

fn parse_addr(get: &impl Fn(&str) -> Option<String>, flag: &str) -> SocketAddr {
    let s = get(flag).unwrap_or_else(|| {
        eprintln!("{flag} ADDR is required");
        exit(2);
    });
    s.parse().unwrap_or_else(|e| {
        eprintln!("{flag} {s}: {e}");
        exit(2);
    })
}

/// The deployment's worker count: `--shards P` directly,
/// `--nodes-per-worker K` as `ceil(n / K)`, or — with neither — one
/// process per node (`P = n`).
fn shard_count(get: &impl Fn(&str) -> Option<String>, n: usize) -> usize {
    match (get("--shards"), get("--nodes-per-worker")) {
        (Some(_), Some(_)) => {
            eprintln!("--shards and --nodes-per-worker are mutually exclusive");
            exit(2);
        }
        (Some(p), None) => {
            let p: usize = parse_flag("--shards", &p);
            if p == 0 {
                eprintln!("--shards must be >= 1");
                exit(2);
            }
            p
        }
        (None, Some(k)) => {
            let k: usize = parse_flag("--nodes-per-worker", &k);
            if k == 0 {
                eprintln!("--nodes-per-worker must be >= 1");
                exit(2);
            }
            n.div_ceil(k)
        }
        (None, None) => n,
    }
}

fn cmd_run_node(get: &impl Fn(&str) -> Option<String>) {
    if has_flag("--maelstrom") {
        // A true Maelstrom binary: the harness supplies the cluster over
        // stdin (init handshake), no graph or ids on the command line.
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        match dw_transport::maelstrom_serve(stdin.lock(), stdout.lock()) {
            Ok((init, stats)) => {
                eprintln!(
                    "maelstrom node {} (internal id {} of {} nodes): \
                     {} echoes, {} unsupported, {} skipped",
                    init.node_id,
                    init.internal_id(),
                    init.node_ids.len(),
                    stats.echoes,
                    stats.unsupported,
                    stats.skipped
                );
            }
            Err(e) => {
                eprintln!("maelstrom node failed: {e}");
                exit(1);
            }
        }
        return;
    }
    let g = load(get);
    // --node-id names a *worker*: this process hosts every node in its
    // contiguous block (just node V in the default one-process-per-node
    // layout), and --peers lists the adjacent workers' addresses.
    let map = ShardMap::new(g.n(), shard_count(get, g.n()));
    let id: NodeId = parse_flag(
        "--node-id",
        &get("--node-id").unwrap_or_else(|| {
            eprintln!("--node-id V is required");
            exit(2);
        }),
    );
    if id as usize >= map.shards() {
        eprintln!("--node-id {id} out of range ({} workers)", map.shards());
        exit(2);
    }
    let peers: Vec<(NodeId, SocketAddr)> = get("--peers")
        .map(|s| {
            s.split(',')
                .map(|pair| {
                    let (u, addr) = pair.trim().split_once('=').unwrap_or_else(|| {
                        eprintln!("--peers entry {pair} is not id=addr");
                        exit(2);
                    });
                    (parse_flag("--peers", u), parse_flag("--peers", addr))
                })
                .collect()
        })
        .unwrap_or_default();
    let coord = parse_addr(get, "--coordinator");
    let timeout =
        Duration::from_secs(get("--timeout-secs").map_or(30, |s| parse_flag("--timeout-secs", &s)));
    let cfg = deployment_config(get, &g);
    let listener = TcpListener::bind(parse_addr(get, "--listen")).unwrap_or_else(|e| {
        eprintln!("cannot listen: {e}");
        exit(1);
    });
    let nodes: Vec<_> = map.nodes(id).map(hk_ssp_nodes(&cfg, g.n())).collect();
    let (nodes, outcome) = run_shard_tcp(
        &map,
        id,
        &g,
        &TransportConfig::default(),
        nodes,
        listener,
        &peers,
        coord,
        timeout,
    )
    .unwrap_or_else(|e| {
        eprintln!("worker {id} failed: {e}");
        exit(1);
    });
    println!(
        "worker {id}: outcome={outcome:?} nodes={}..{}",
        map.nodes(id).start,
        map.nodes(id).end
    );
    for (v, node) in map.nodes(id).zip(&nodes) {
        for &s in &cfg.sources {
            match node.best_for(s) {
                Some(b) => println!("dist {s} -> {v}: {} (hops {})", b.d, b.l),
                None => println!("dist {s} -> {v}: inf"),
            }
        }
    }
}

fn cmd_coordinator(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let cfg = deployment_config(get, &g);
    let budget = get("--budget").map_or_else(
        || default_budget(&cfg, g.n()),
        |s| parse_flag("--budget", &s),
    );
    let listener = TcpListener::bind(parse_addr(get, "--listen")).unwrap_or_else(|e| {
        eprintln!("cannot listen: {e}");
        exit(1);
    });
    let participants = ShardMap::new(g.n(), shard_count(get, g.n())).shards();
    eprintln!("coordinator: waiting for {participants} workers (budget {budget})");
    let (outcome, st) = run_coordinator_tcp(
        participants,
        budget,
        &CoordConfig::default(),
        listener,
        &mut NullRecorder,
    )
    .unwrap_or_else(|e| {
        eprintln!("coordinator failed: {e}");
        exit(1);
    });
    println!("coordinator: outcome={outcome:?}");
    print_stats("alg1 [tcp]", st.rounds, st.messages, st.max_link_load);
}

/// Presence-only flags (`--path`, `--oracle`, `--json`): the `get`
/// closure needs a following value, so test membership directly.
fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Load a table file in either format: legacy `DWT1` snapshots come
/// back as generation 0, versioned `DWD1` files (written by
/// `dwapsp update`) keep their generation.
fn load_tables(get: &impl Fn(&str) -> Option<String>) -> VersionedTables {
    let path = get("--tables").unwrap_or_else(|| {
        eprintln!("--tables FILE (written by `dwapsp tables` or `dwapsp update`) is required");
        exit(2);
    });
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    VersionedTables::from_any_file_bytes(&bytes).unwrap_or_else(|| {
        eprintln!("{path} is not a valid table snapshot (bad magic/version or corrupt payload)");
        exit(1);
    })
}

/// `tables`: compute k-SSP/APSP once — on any runtime, or with the
/// sequential Dijkstra oracle (`--oracle`), which writes the same bytes
/// — and persist the per-source distance + parent tables for the
/// serving plane.
fn cmd_tables(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let out = get("--out").unwrap_or_else(|| {
        eprintln!("--out FILE is required");
        exit(2);
    });
    let snap = if has_flag("--oracle") {
        let sources = parse_sources(get, g.n()).unwrap_or_else(|| (0..g.n() as NodeId).collect());
        let runs: Vec<_> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
        TableSnapshot::from_sssp(&runs, g.n() as u32)
    } else {
        let rt = parse_runtime(get);
        let cfg = deployment_config(get, &g);
        let (res, st) = solve_or_exit(&g, &cfg, rt, &mut NullRecorder);
        print_stats(
            &format!("alg1 tables [{}]", rt.as_str()),
            st.rounds,
            st.messages,
            st.max_link_load,
        );
        TableSnapshot::from_result(&res)
    };
    std::fs::write(&out, snap.to_file_bytes()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    eprintln!(
        "wrote {out}: {} source rows over n={} ({} payload bytes)",
        snap.tables.len(),
        snap.n,
        snap.payload_bytes()
    );
}

/// `serve`: stand up the query plane for a persisted table snapshot.
/// Default mode spawns `--shards P` in-process shard servers plus the
/// gateway; `--shard-addrs` instead fronts externally started
/// `serve-shard` processes (shard `i` serves block `i` of the layout).
fn cmd_serve(get: &impl Fn(&str) -> Option<String>) {
    let vt = load_tables(get);
    let snap = &vt.snap;
    let cfg = GatewayConfig {
        max_batch: get("--max-batch").map_or(128, |s| parse_flag("--max-batch", &s)),
        cache_capacity: get("--cache").map_or(4096, |s| parse_flag("--cache", &s)),
        initial_generation: vt.generation,
        ..GatewayConfig::default()
    };
    let listener = match get("--listen") {
        Some(_) => TcpListener::bind(parse_addr(get, "--listen")),
        None => TcpListener::bind(("127.0.0.1", 0)),
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot listen: {e}");
        exit(1);
    });

    let cannot_start = |e: std::io::Error| -> ! {
        eprintln!("cannot start gateway: {e}");
        exit(1);
    };
    // `--shard-addrs` fronts shards started elsewhere; otherwise a
    // deployment runs them in-process. Either lives until this returns.
    let mut fronting;
    let mut local;
    let (gw, map, addrs) = if let Some(spec) = get("--shard-addrs") {
        let addrs: Vec<SocketAddr> = spec
            .split(',')
            .map(|a| {
                a.trim().parse().unwrap_or_else(|e| {
                    eprintln!("--shard-addrs {a}: {e}");
                    exit(2);
                })
            })
            .collect();
        let map = ShardMap::new(snap.n as usize, addrs.len());
        fronting = Gateway::spawn_on(listener, map.clone(), &addrs, cfg)
            .unwrap_or_else(|e| cannot_start(e));
        (&mut fronting, map, addrs)
    } else {
        let shards: usize = get("--shards").map_or(1, |s| parse_flag("--shards", &s));
        local = Deployment::spawn_on(listener, snap, shards, cfg, &[])
            .unwrap_or_else(|e| cannot_start(e));
        let addrs = (0..local.map.shards())
            .map(|s| local.shard_addr(s))
            .collect();
        (&mut local.gateway, local.map.clone(), addrs)
    };
    println!(
        "gateway listening on {} (tables generation {})",
        gw.addr, vt.generation
    );
    for (s, a) in addrs.iter().enumerate() {
        let block = map.nodes(s as NodeId);
        eprintln!(
            "  shard {s} at {a}: sources [{}, {})",
            block.start, block.end
        );
    }

    match get("--duration-secs") {
        Some(t) => {
            let t: u64 = parse_flag("--duration-secs", &t);
            std::thread::sleep(Duration::from_secs(t));
            let st = gw.stats();
            println!(
                "served {} queries: cache-hit-rate={:.3} mean-batch={:.1} shard-unavailable={}",
                st.queries,
                st.cache_hit_rate(),
                st.mean_batch_size(),
                st.shard_unavailable
            );
            gw.shutdown();
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

/// `serve-shard`: one standalone shard worker, serving the rows of its
/// contiguous source block until killed. Pair with
/// `dwapsp serve --shard-addrs` on the gateway side.
fn cmd_serve_shard(get: &impl Fn(&str) -> Option<String>) {
    let vt = load_tables(get);
    let snap = &vt.snap;
    let shards: usize = parse_flag(
        "--shards",
        &get("--shards").unwrap_or_else(|| {
            eprintln!("--shards P (the full layout size) is required");
            exit(2);
        }),
    );
    let id: NodeId = parse_flag(
        "--shard-id",
        &get("--shard-id").unwrap_or_else(|| {
            eprintln!("--shard-id S is required");
            exit(2);
        }),
    );
    let map = ShardMap::new(snap.n as usize, shards);
    if id as usize >= map.shards() {
        eprintln!(
            "--shard-id {id} out of range (effective shards: {})",
            map.shards()
        );
        exit(2);
    }
    let sub = snap.for_shard(&map, id);
    let listener = TcpListener::bind(parse_addr(get, "--listen")).unwrap_or_else(|e| {
        eprintln!("cannot listen: {e}");
        exit(1);
    });
    let block = map.nodes(id);
    eprintln!(
        "shard {id} serving {} source rows [{}, {}) on {} (generation {})",
        sub.tables.len(),
        block.start,
        block.end,
        listener.local_addr().unwrap(),
        vt.generation
    );
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let tables = shared_tables(VersionedTables {
        generation: vt.generation,
        snap: sub,
    });
    if let Err(e) = serve_shard(listener, tables, stop) {
        eprintln!("shard {id} failed: {e}");
        exit(1);
    }
}

/// `query`: one point-to-point lookup against a running gateway. Exits
/// 0 on an answer (including "unreachable"), 3 on degraded mode
/// (`ShardUnavailable`), 2 on a malformed query.
fn cmd_query(get: &impl Fn(&str) -> Option<String>) {
    let gateway = parse_addr(get, "--gateway");
    let src: NodeId = parse_flag(
        "--src",
        &get("--src").unwrap_or_else(|| {
            eprintln!("--src S is required");
            exit(2);
        }),
    );
    let dst: NodeId = parse_flag(
        "--dst",
        &get("--dst").unwrap_or_else(|| {
            eprintln!("--dst D is required");
            exit(2);
        }),
    );
    let mut client = ServeClient::connect(gateway, Duration::from_secs(5)).unwrap_or_else(|e| {
        eprintln!("cannot connect to gateway {gateway}: {e}");
        exit(1);
    });
    let outcome = client
        .query(src, dst, has_flag("--path"))
        .unwrap_or_else(|e| {
            eprintln!("query failed: {e}");
            exit(1);
        });
    match outcome {
        QueryOutcome::Dist { dist } => println!("dist {src} -> {dst}: {dist}"),
        QueryOutcome::Path { dist, path } => {
            let hops: Vec<String> = path.iter().map(|v| v.to_string()).collect();
            println!("dist {src} -> {dst}: {dist}");
            println!("path: {}", hops.join(" -> "));
        }
        QueryOutcome::Unreachable => println!("dist {src} -> {dst}: inf"),
        QueryOutcome::UnknownSource => {
            eprintln!("source {src} has no computed table row");
            exit(2);
        }
        QueryOutcome::OutOfRange => {
            eprintln!("src/dst out of the table's node range");
            exit(2);
        }
        QueryOutcome::ShardUnavailable { shard, lo, hi } => {
            eprintln!("degraded: shard {shard} (sources [{lo}, {hi})) is unavailable");
            exit(3);
        }
    }
}

fn print_update_report(r: &dwapsp::dynamic::UpdateReport, n: usize) {
    println!(
        "batch {} -> generation {}: recomputed {}/{} rows ({:.1}%), cells touched {} of {}, \
         hop columns walked {}, edges +{} -{} ~{} ({} noops), patch {}us solve {}us",
        r.seq,
        r.generation,
        r.recomputed,
        r.recomputed + r.reused,
        100.0 * r.recomputed_fraction(),
        r.cells,
        (r.recomputed + r.reused) * n,
        r.walked,
        r.inserted,
        r.removed,
        r.reweighted,
        r.noops,
        r.patch_micros,
        r.solve_micros
    );
}

/// Shared front half of `update` / `apply-updates`: load the graph, the
/// tables (either format) and the update file, drain the pool through
/// the incremental engine in `--batch-size` batches, and return the
/// patched graph plus the final table generation.
fn run_update_batches(get: &impl Fn(&str) -> Option<String>) -> (WGraph, VersionedTables) {
    let mut g = load(get);
    let mut vt = load_tables(get);
    if vt.snap.n as usize != g.n() {
        eprintln!(
            "tables cover n={} but the graph has n={}; recompute with `dwapsp tables`",
            vt.snap.n,
            g.n()
        );
        exit(2);
    }
    let upath = get("--updates").unwrap_or_else(|| {
        eprintln!("--updates FILE (`ins u v w` / `set u v w` / `del u v` lines) is required");
        exit(2);
    });
    let text = std::fs::read_to_string(&upath).unwrap_or_else(|e| {
        eprintln!("cannot read {upath}: {e}");
        exit(1);
    });
    let updates = parse_updates(&text).unwrap_or_else(|e| {
        eprintln!("{upath}: {e}");
        exit(2);
    });
    let batch_size: usize =
        get("--batch-size").map_or(updates.len().max(1), |s| parse_flag("--batch-size", &s));
    let mut pool = UpdatePool::new();
    pool.extend(updates);
    while let Some(batch) = pool.take_batch(batch_size) {
        match apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1) {
            Ok((next, report)) => {
                print_update_report(&report, g.n());
                vt = next;
            }
            Err(e) => {
                eprintln!(
                    "batch {} rejected, graph and tables unchanged: {e}",
                    batch.seq
                );
                exit(1);
            }
        }
    }
    (g, vt)
}

fn write_update_outputs(get: &impl Fn(&str) -> Option<String>, g: &WGraph, vt: &VersionedTables) {
    if let Some(out) = get("--out-tables") {
        std::fs::write(&out, vt.to_file_bytes()).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1);
        });
        eprintln!(
            "wrote {out}: generation {} ({} source rows over n={})",
            vt.generation,
            vt.snap.tables.len(),
            vt.snap.n
        );
    }
    if let Some(out) = get("--out-graph") {
        std::fs::write(&out, gio::to_json(g)).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1);
        });
        eprintln!("wrote {out}: patched graph (n={}, m={})", g.n(), g.m());
    }
}

/// `update`: offline incremental recompute. Patches the graph with a
/// batch file, repairs the tables cell by cell — whichever solver wrote
/// them, the result is the file `dwapsp tables` writes for the patched
/// graph — and persists the next `DWD1` generation.
fn cmd_update(get: &impl Fn(&str) -> Option<String>) {
    let (g, vt) = run_update_batches(get);
    write_update_outputs(get, &g, &vt);
}

/// `apply-updates`: the online variant — recompute incrementally, then
/// push the new generation to a running gateway, which swaps every
/// shard atomically without dropping in-flight queries. Exits 3 when
/// the swap was degraded (some shard down).
fn cmd_apply_updates(get: &impl Fn(&str) -> Option<String>) {
    let gateway = parse_addr(get, "--gateway");
    let (g, vt) = run_update_batches(get);
    let mut client = ServeClient::connect(gateway, Duration::from_secs(30)).unwrap_or_else(|e| {
        eprintln!("cannot connect to gateway {gateway}: {e}");
        exit(1);
    });
    let rep = client
        .apply_tables(vt.generation, &vt.snap)
        .unwrap_or_else(|e| {
            eprintln!("apply failed: {e}");
            exit(1);
        });
    println!(
        "apply generation {}: accepted={} shards-installed={} shards-down={} \
         install-bytes={} full={}",
        rep.generation,
        rep.accepted,
        rep.shards_installed,
        rep.shards_down,
        rep.install_bytes,
        rep.full
    );
    write_update_outputs(get, &g, &vt);
    if !rep.accepted {
        exit(3);
    }
}

/// What `loadgen --update-graph`'s updater pushed, from the gateway's
/// reports.
#[derive(Default)]
struct SwapTally {
    swaps: u64,
    accepted: u64,
    /// Installs that went whole rather than as a delta.
    full: u64,
    install_bytes: u64,
}

/// `loadgen`: a closed-loop query generator — reports
/// sustained QPS and client-observed latency percentiles. With
/// `--update-graph`, a background updater thread applies seeded
/// incremental batches through the gateway while the query load runs,
/// exercising the mixed query + swap path end to end.
fn cmd_loadgen(get: &impl Fn(&str) -> Option<String>) {
    let gateway = parse_addr(get, "--gateway");
    let vt = load_tables(get);
    let sources: Vec<NodeId> = vt.snap.tables.iter().map(|t| t.source).collect();
    let cfg = LoadgenConfig {
        clients: get("--clients").map_or(4, |s| parse_flag("--clients", &s)),
        requests_per_client: get("--requests").map_or(1000, |s| parse_flag("--requests", &s)),
        path_fraction: get("--path-fraction").map_or(0.5, |s| parse_flag("--path-fraction", &s)),
        zipf: get("--zipf").map(|s| parse_flag("--zipf", &s)),
        zipf_pairs: get("--zipf-pairs").map_or(10_000, |s| parse_flag("--zipf-pairs", &s)),
        seed: get("--seed").map_or(1, |s| parse_flag("--seed", &s)),
        ..LoadgenConfig::default()
    };

    // Mixed stream: a background updater recomputes + swaps table
    // generations through the gateway while the query load runs.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let updater = get("--update-graph").map(|gpath| {
        let interval = Duration::from_millis(
            get("--update-every-ms").map_or(200, |s| parse_flag("--update-every-ms", &s)),
        );
        let batch_size: usize =
            get("--update-batch").map_or(8, |s| parse_flag("--update-batch", &s));
        let seed: u64 =
            get("--update-seed").map_or(cfg.seed ^ 0xD15C0, |s| parse_flag("--update-seed", &s));
        let text = std::fs::read_to_string(&gpath).unwrap_or_else(|e| {
            eprintln!("cannot read {gpath}: {e}");
            exit(1);
        });
        let mut g = gio::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {gpath}: {e}");
            exit(1);
        });
        if g.n() != vt.snap.n as usize {
            eprintln!(
                "--update-graph has n={} but the tables cover n={}",
                g.n(),
                vt.snap.n
            );
            exit(2);
        }
        let mut vt = vt.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut tally = SwapTally::default();
            let Ok(mut client) = ServeClient::connect(gateway, Duration::from_secs(5)) else {
                return tally;
            };
            let max_w = g.max_weight().max(1);
            for seq in 0u64.. {
                std::thread::sleep(interval);
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let batch = gen_update_batch(&g, seq, batch_size, max_w, &mut rng);
                let Ok((next, _)) = apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1)
                else {
                    break;
                };
                vt = next;
                match client.apply_tables(vt.generation, &vt.snap) {
                    Ok(rep) => {
                        tally.swaps += 1;
                        tally.accepted += u64::from(rep.accepted);
                        tally.full += u64::from(rep.full);
                        tally.install_bytes += rep.install_bytes;
                    }
                    Err(_) => break,
                }
            }
            tally
        })
    });

    let report = run_loadgen(gateway, &sources, vt.snap.n, &cfg).unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        exit(1);
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let swap_stats = updater.map(|h| h.join().expect("updater thread"));

    if has_flag("--json") {
        let swap_suffix = swap_stats.map_or(String::new(), |t| {
            format!(
                ",\"swaps\":{},\"swaps_accepted\":{},\"installs_full\":{},\"install_bytes\":{}",
                t.swaps, t.accepted, t.full, t.install_bytes
            )
        });
        println!(
            "{{\"queries\":{},\"ok\":{},\"shard_unavailable\":{},\"errors\":{},\"wall_ms\":{},\
             \"qps\":{:.1},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}{}}}",
            report.queries,
            report.ok,
            report.shard_unavailable,
            report.errors,
            report.wall.as_millis(),
            report.qps,
            report.p50_us,
            report.p95_us,
            report.p99_us,
            swap_suffix
        );
    } else {
        let mix = cfg
            .zipf
            .map_or("uniform".to_string(), |s| format!("zipf({s})"));
        println!(
            "loadgen [{mix}]: {} queries in {:?} ({:.0} qps, {} clients)",
            report.queries, report.wall, report.qps, cfg.clients
        );
        println!(
            "latency: p50={}us p95={}us p99={}us; shard-unavailable={} errors={}",
            report.p50_us, report.p95_us, report.p99_us, report.shard_unavailable, report.errors
        );
        if let Some(t) = swap_stats {
            println!(
                "updates: {} generation swaps applied mid-run ({} accepted by the whole fleet); \
                 {} install bytes, {} full installs",
                t.swaps, t.accepted, t.install_bytes, t.full
            );
        }
    }
}

fn print_matrix(m: &DistMatrix) {
    for (i, &s) in m.sources.iter().enumerate() {
        let row: Vec<String> = (0..m.n() as NodeId)
            .map(|v| {
                let d = m.at(i, v);
                if d == INFINITY {
                    "inf".into()
                } else {
                    d.to_string()
                }
            })
            .collect();
        println!("{s}: {}", row.join(" "));
    }
}

fn cmd_validate(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let reference = apsp_dijkstra(&g);
    let engine = EngineConfig::default();
    let mut failures = 0;

    let (a1, _, _) = apsp_auto(&g, engine.clone());
    failures += report_diff("alg1", matrices_equal(&reference, &a1.to_matrix(), 5).len());

    let (bf, _) = bf_apsp(&g, engine.clone());
    failures += report_diff("bf", matrices_equal(&reference, &bf.to_matrix(), 5).len());

    let h = suggested_h_weight_regime(g.n(), g.n(), g.max_weight());
    let delta = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h as usize).max(1);
    let a3 = alg3_apsp(&g, h, delta, engine.clone());
    failures += report_diff("alg3", matrices_equal(&reference, &a3.matrix, 5).len());

    let ap = approx_apsp(&g, 1, 2, engine);
    let mut ratio_bad = 0usize;
    for s in g.nodes() {
        for v in g.nodes() {
            let d = reference.from_source(s, v).unwrap();
            let e = ap.matrix.from_source(s, v).unwrap();
            let ok = match (d, e) {
                (INFINITY, e) => e == INFINITY,
                (d, e) => e >= d && 2 * e <= 3 * d || (d == 0 && e == 0),
            };
            if !ok {
                ratio_bad += 1;
            }
        }
    }
    failures += report_diff("approx(ε=1/2 ratio)", ratio_bad);

    if failures == 0 {
        println!("all algorithms validated against sequential Dijkstra ✓");
    } else {
        eprintln!("{failures} validation failure(s)");
        exit(1);
    }
}

fn report_diff(name: &str, diffs: usize) -> usize {
    if diffs == 0 {
        println!("{name}: ok");
        0
    } else {
        println!("{name}: {diffs} DISAGREEMENT(S)");
        1
    }
}

fn cmd_info(get: &impl Fn(&str) -> Option<String>) {
    let g = load(get);
    let st = analysis::stats(&g);
    println!("n={} m={} directed={}", st.n, st.m, st.directed);
    println!(
        "weights: max={} zero-edges={} ({:.0}%)",
        st.max_weight,
        st.zero_edges,
        100.0 * st.zero_edges as f64 / st.m.max(1) as f64
    );
    println!(
        "comm degree: min={} max={} avg={:.2}",
        st.min_comm_degree, st.max_comm_degree, st.avg_comm_degree
    );
    println!("comm connected: {}", analysis::comm_connected(&g));
    if let Some(d) = analysis::comm_diameter(&g) {
        println!("comm diameter: {d}");
    }
    println!("Δ (max finite distance): {}", max_finite_distance(&g));
}
