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
//! Each subcommand's flags are one row of `COMMANDS`: the row parses
//! the command line strictly and prints the usage.
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
use dwapsp::blocker::alg3::{alg3_apsp, alg3_k_ssp, suggested_h_weight_regime};
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
    run_loadgen, serve_shard, shared_tables, AcceptStop, Deployment, Gateway, GatewayConfig,
    LoadgenConfig, QueryOutcome, ServeClient, TableSnapshot, VersionedTables,
};
use dwapsp::transport::{
    run_coordinator_tcp, run_shard_tcp, ChaosPlan, CoordConfig, ShardMap, TransportConfig,
};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::exit;
use std::time::Duration;

/// Every stdout write of the CLI, through one locked writer. A reader
/// that hangs up early (`dwapsp gen … | head -c 50`) ends the process
/// quietly with status 0, as a Unix filter does; any other write error
/// exits 1.
fn to_stdout(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    let mut out = io::BufWriter::new(io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            eprintln!("writing to stdout: {e}");
            exit(1);
        }
    }
}

/// `println!` through [`to_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        to_stdout(|out| writeln!(out, $($arg)*))
    };
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        usage();
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        usage();
    };
    (cmd.run)(&Args::parse(cmd, rest));
}

/// One flag of a subcommand: `--name VALUE` when `value` is the value's
/// metavar, a bare switch when it is `None`.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    required: bool,
}

#[rustfmt::skip]
const fn req(name: &'static str, metavar: &'static str) -> Flag { Flag { name, value: Some(metavar), required: true } }
#[rustfmt::skip]
const fn opt(name: &'static str, metavar: &'static str) -> Flag { Flag { name, value: Some(metavar), required: false } }
#[rustfmt::skip]
const fn switch(name: &'static str) -> Flag { Flag { name, value: None, required: false } }

const GRAPH: Flag = req("--graph", "FILE");
const TABLES: Flag = req("--tables", "FILE");
const GATEWAY: Flag = req("--gateway", "ADDR");
const LISTEN: Flag = req("--listen", "ADDR");
const SOURCES: Flag = opt("--sources", "a,b,c");
const DELTA: Flag = opt("--delta", "D");
const RUNTIME: Flag = opt("--runtime", "<sim|threads[:P]|tcp[:P]>");
const SHARDS: Flag = opt("--shards", "P");
const PER_WORKER: Flag = opt("--nodes-per-worker", "K");
const METRICS_OUT: Flag = opt("--metrics-out", "FILE");
const SEED: Flag = opt("--seed", "S");
const FAMILIES: &str = "<zero-heavy|positive|grid|grid2d|power-law|staircase|fig1>";

/// A subcommand: its flags, in usage order, and what runs it.
struct Command {
    name: &'static str,
    run: fn(&Args),
    flags: &'static [Flag],
}

const fn cmd(name: &'static str, run: fn(&Args), flags: &'static [Flag]) -> Command {
    Command { name, run, flags }
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("gen", cmd_gen, &[opt("--family", FAMILIES), opt("--n", "N"), opt("--w", "W"),
        opt("--attach", "A"), SEED, opt("--out", "FILE")]),
    cmd("run", cmd_run, &[GRAPH, opt("--algo", "<alg1|alg3|bf|approx>"), SOURCES, opt("--h", "H"),
        opt("--eps", "NUM/DEN"), DELTA, RUNTIME]),
    cmd("run-node", cmd_run_node, &[GRAPH, req("--node-id", "V"), LISTEN,
        opt("--peers", "u=ADDR,w=ADDR"), req("--coordinator", "ADDR"), SOURCES, DELTA,
        opt("--timeout-secs", "T"), SHARDS, PER_WORKER]),
    cmd("coordinator", cmd_coordinator, &[GRAPH, LISTEN, SOURCES, DELTA, opt("--budget", "B"),
        SHARDS, PER_WORKER]),
    cmd("solve", cmd_solve, &[GRAPH, opt("--algo", "<alg1|alg3>"), SOURCES, opt("--h", "H"), DELTA,
        RUNTIME, opt("--trace-out", "FILE"), METRICS_OUT, switch("--print-matrix")]),
    cmd("chaos", cmd_chaos, &[GRAPH, opt("--runtime", "<threads[:P]|tcp[:P]>"), SOURCES,
        opt("--kill", "V@R,.."), opt("--sever", "A-B@R,.."), opt("--stall", "R@MS,.."),
        opt("--partition", "G1|G2@FROM[:HEAL],.."), opt("--asym-loss", "U-V@FROM[:UNTIL],.."),
        opt("--bandwidth-cap", "A-B@BYTES,.."), SEED, opt("--cadence", "<K|off>"),
        opt("--deadline-ms", "MS"), METRICS_OUT]),
    cmd("report", cmd_report, &[req("--metrics", "FILE")]),
    cmd("tables", cmd_tables, &[GRAPH, req("--out", "FILE"), SOURCES, DELTA, RUNTIME,
        switch("--oracle")]),
    cmd("serve", cmd_serve, &[TABLES, opt("--listen", "ADDR"), SHARDS, opt("--shard-addrs", "A,B,.."),
        opt("--max-batch", "B"), opt("--cache", "C"), opt("--duration-secs", "T")]),
    cmd("serve-shard", cmd_serve_shard, &[TABLES, LISTEN, req("--shards", "P"),
        req("--shard-id", "S")]),
    cmd("query", cmd_query, &[GATEWAY, req("--src", "S"), req("--dst", "D"), switch("--path")]),
    cmd("update", cmd_update, &[GRAPH, TABLES, req("--updates", "FILE"), opt("--batch-size", "B"),
        opt("--out-tables", "FILE"), opt("--out-graph", "FILE")]),
    cmd("apply-updates", cmd_apply_updates, &[GRAPH, TABLES, req("--updates", "FILE"), GATEWAY,
        opt("--batch-size", "B"), opt("--out-tables", "FILE"), opt("--out-graph", "FILE")]),
    cmd("loadgen", cmd_loadgen, &[GATEWAY, TABLES, opt("--clients", "C"), opt("--requests", "R"),
        opt("--zipf", "S"), opt("--zipf-pairs", "P"), opt("--path-fraction", "F"), SEED,
        switch("--json"), opt("--update-graph", "FILE"), opt("--update-every-ms", "T"),
        opt("--update-batch", "B"), opt("--update-seed", "S")]),
    cmd("validate", cmd_validate, &[GRAPH]),
    cmd("info", cmd_info, &[GRAPH]),
];

impl Command {
    /// `dwapsp NAME --required VALUE [--optional VALUE] [--switch]`.
    fn usage(&self) -> String {
        let flags = self.flags.iter().map(|f| {
            let flag = f
                .value
                .map_or(f.name.to_string(), |v| format!("{} {v}", f.name));
            if f.required {
                format!(" {flag}")
            } else {
                format!(" [{flag}]")
            }
        });
        format!("dwapsp {}{}", self.name, flags.collect::<String>())
    }

    /// A usage error: the message, this command's usage line, exit 2.
    fn refuse(&self, msg: &str) -> ! {
        eprintln!("dwapsp {}: {msg}\nusage: {}", self.name, self.usage());
        exit(2);
    }
}

fn usage() -> ! {
    eprintln!("usage:");
    for c in COMMANDS {
        eprintln!("  {}", c.usage());
    }
    exit(2);
}

/// A command line read against one command's flags.
struct Args {
    cmd: &'static Command,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Read `argv` once. An unknown, repeated or value-less flag, a
    /// stray argument or a missing required flag is a usage error.
    fn parse(cmd: &'static Command, argv: &[String]) -> Args {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut argv = argv.iter().peekable();
        while let Some(a) = argv.next() {
            let Some(flag) = cmd.flags.iter().find(|f| f.name == a) else {
                cmd.refuse(&if a.starts_with("--") {
                    format!("unknown flag {a}")
                } else {
                    format!("unexpected argument '{a}'")
                });
            };
            if given.iter().any(|&(name, _)| name == flag.name) {
                cmd.refuse(&format!("{a} is given twice"));
            }
            let value = flag
                .value
                .map(|metavar| match argv.next_if(|v| !v.starts_with("--")) {
                    Some(v) => v.clone(),
                    None => cmd.refuse(&format!("{a} needs a value {metavar}")),
                });
            given.push((flag.name, value));
        }
        let args = Args { cmd, given };
        if let Some(f) = cmd.flags.iter().find(|f| f.required && !args.has(f.name)) {
            cmd.refuse(&format!("missing required flag {}", f.name));
        }
        args
    }

    /// The value given with `flag`, if any.
    fn get(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|&&(name, _)| name == flag)?;
        value.as_deref()
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|&(name, _)| name == flag)
    }

    /// `flag`'s value parsed, if given.
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag).map(|v| parse_flag(flag, v))
    }

    /// `flag`'s value parsed, or `default`.
    fn or<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag).unwrap_or(default)
    }

    /// A required flag's value parsed.
    fn need<T: std::str::FromStr>(&self, flag: &str) -> T {
        (self.value(flag)).expect("`Args::parse` refuses a line without a required flag")
    }
}

/// `value` parsed as the argument of `flag`. A malformed value is a
/// usage error: it prints `invalid value for FLAG: 'VALUE'` and exits 2.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: '{value}'");
        exit(2);
    })
}

/// `read(path)`, or exit 1 naming the file.
fn read_or_exit<'p, T>(path: &'p str, read: impl FnOnce(&'p str) -> std::io::Result<T>) -> T {
    read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

/// Write `contents` to `path`, or exit 1 naming the file.
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    })
}

/// The graph file at `path`, or exit 1.
fn graph_file(path: &str) -> WGraph {
    gio::from_json(&read_or_exit(path, std::fs::read_to_string)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    })
}

fn load(args: &Args) -> WGraph {
    graph_file(&args.need::<String>("--graph"))
}

fn cmd_gen(args: &Args) {
    let family = args.get("--family").unwrap_or("zero-heavy");
    let n: usize = args.or("--n", 32);
    let w: u64 = args.or("--w", 6);
    let seed: u64 = args.or("--seed", 1);
    let g = match family {
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
        // The O(m) families (no O(n²) pair loop): these are the ones to
        // use at 50k+ nodes.
        "grid2d" => {
            let side = (n as f64).sqrt().round().max(2.0) as usize;
            gen::grid(side, side, false, gen::WeightDist::Uniform { max: w }, seed)
        }
        "power-law" => {
            let attach: usize = args.or("--attach", 2);
            gen::power_law(n.max(2), attach, gen::WeightDist::Uniform { max: w }, seed)
        }
        other => {
            eprintln!("unknown family {other}");
            exit(2);
        }
    };
    let json = gio::to_json(&g);
    match args.get("--out") {
        Some(path) => {
            write_or_exit(path, json);
            eprintln!("wrote {} (n={}, m={})", path, g.n(), g.m());
        }
        None => outln!("{json}"),
    }
}

fn parse_sources(args: &Args, n: usize) -> Option<Vec<NodeId>> {
    args.get("--sources").map(|s| {
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

fn print_stats(label: &str, st: &RunStats) {
    outln!(
        "{label}: rounds={} messages={} max-link-load={}",
        st.rounds,
        st.messages,
        st.max_link_load
    );
}

/// `--runtime`, or `default` without it.
fn parse_runtime(args: &Args, default: Runtime) -> Runtime {
    args.get("--runtime").map_or(default, |s| {
        Runtime::parse(s).unwrap_or_else(|| {
            eprintln!("unknown runtime {s} (expected sim, threads, tcp, threads:P or tcp:P)");
            exit(2);
        })
    })
}

/// The Algorithm 1 instance every command solves. Every participant of
/// a deployment derives it from the shared graph file (plus identical
/// `--sources` / `--delta` flags), so all processes agree without any
/// extra configuration channel. Without `--delta`, Δ is the largest
/// finite distance *from a source* — k Dijkstras for a k-SSP instance,
/// not the n of a full APSP.
fn deployment_config(args: &Args, g: &WGraph) -> SspConfig {
    let sources = parse_sources(args, g.n());
    let delta = args.value("--delta").unwrap_or_else(|| match &sources {
        Some(sources) => dwapsp::seqref::k_source_dijkstra(g, sources).max_finite(),
        None => max_finite_distance(g),
    });
    match sources {
        Some(sources) => SspConfig::k_ssp(g.n(), sources, delta.max(1)),
        None => SspConfig::apsp(g.n(), delta.max(1)),
    }
}

/// Algorithm 3's hop threshold (`--h`, or the weight regime's) and the
/// Δ of its 2h-hop phase.
fn alg3_h_delta(args: &Args, g: &WGraph) -> (u64, u64) {
    let h = args
        .value("--h")
        .unwrap_or_else(|| suggested_h_weight_regime(g.n(), g.n(), g.max_weight()));
    let delta = dwapsp::seqref::max_finite_h_hop_distance(g, 2 * h as usize).max(1);
    (h, delta)
}

fn cmd_run(args: &Args) {
    let g = load(args);
    let algo = args.get("--algo").unwrap_or("alg1");
    let rt = parse_runtime(args, Runtime::Sim);
    if rt != Runtime::Sim && algo != "alg1" {
        eprintln!("--runtime {} only supports --algo alg1", rt.as_str());
        exit(2);
    }
    let engine = EngineConfig::default();
    let (label, st, matrix) = match algo {
        "alg1" => {
            // `--delta` skips the exact Δ computation (a sequential
            // Dijkstra per source) — required on large graphs, where any
            // sound upper bound on the distances of interest keeps the
            // run correct (only the round budget depends on Δ).
            let cfg = deployment_config(args, &g);
            let (res, st) = solve_or_exit(&g, &cfg, rt, &mut NullRecorder);
            let label = format!("alg1 k={} (Δ={}) [{}]", cfg.k(), cfg.delta, rt.as_str());
            (label, st, res.to_matrix())
        }
        "alg3" => {
            let (h, delta) = alg3_h_delta(args, &g);
            let sources = parse_sources(args, g.n()).unwrap_or_else(|| g.nodes().collect());
            let out = alg3_k_ssp(&g, &sources, h, delta, engine, &mut NullRecorder);
            let label = format!("alg3 (h={h}, |Q|={})", out.blockers.len());
            (label, out.stats, out.matrix)
        }
        "bf" => {
            let (res, st) = bf_apsp(&g, engine);
            ("bellman-ford apsp".to_string(), st, res.to_matrix())
        }
        "approx" => {
            let eps = args.get("--eps").unwrap_or("1/2");
            let (num, den) = eps
                .split_once('/')
                .map(|(a, b)| (parse_flag("--eps", a), parse_flag("--eps", b)))
                .unwrap_or_else(|| (parse_flag("--eps", eps), 1));
            let out = approx_apsp(&g, num, den, engine);
            (
                format!("approx apsp (ε={num}/{den})"),
                out.stats,
                out.matrix,
            )
        }
        other => {
            eprintln!("unknown algo {other}");
            exit(2);
        }
    };
    print_stats(&label, &st);
    print_matrix(&matrix);
}

/// `solve`: run an algorithm under a phase recorder and emit the
/// observability artifacts — a text report on stdout, optionally a
/// JSONL event log (`--metrics-out`, readable by `dwapsp report`) and a
/// Chrome-trace file (`--trace-out`, loadable in `chrome://tracing` /
/// Perfetto).
fn cmd_solve(args: &Args) {
    let g = load(args);
    let algo = args.get("--algo").unwrap_or("alg3");
    let rt = parse_runtime(args, Runtime::Sim);
    let mut rec = ObsRecorder::new();
    rec.meta("algo", algo.to_string());
    rec.meta("runtime", rt.as_str().to_string());
    rec.meta("n", g.n().to_string());

    let matrix = match algo {
        "alg1" => {
            let cfg = deployment_config(args, &g);
            rec.meta("k", cfg.k().to_string());
            rec.meta("h", cfg.h.to_string());
            rec.meta("delta", cfg.delta.to_string());
            solve_or_exit(&g, &cfg, rt, &mut rec).0.to_matrix()
        }
        "alg3" => {
            if rt != Runtime::Sim {
                eprintln!("--algo alg3 records phases on the simulator only (use --runtime sim)");
                exit(2);
            }
            let (h, delta) = alg3_h_delta(args, &g);
            let sources = parse_sources(args, g.n()).unwrap_or_else(|| g.nodes().collect());
            rec.meta("k", sources.len().to_string());
            rec.meta("h", h.to_string());
            rec.meta("delta", delta.to_string());
            let out = alg3_k_ssp(&g, &sources, h, delta, EngineConfig::default(), &mut rec);
            rec.meta("blockers", out.blockers.len().to_string());
            out.matrix
        }
        other => {
            eprintln!("solve supports --algo alg1 or alg3, not {other}");
            exit(2);
        }
    };

    let recording = rec.into_recording();
    if let Some(path) = args.get("--metrics-out") {
        write_or_exit(path, to_jsonl(&recording));
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.get("--trace-out") {
        write_or_exit(path, to_chrome_trace(&recording));
        eprintln!("wrote {path} (load in chrome://tracing or Perfetto)");
    }
    to_stdout(|out| {
        write!(
            out,
            "{}",
            render_report(&recording, &phase_bounds(&recording))
        )
    });
    if args.has("--print-matrix") {
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
fn cmd_chaos(args: &Args) {
    let g = load(args);
    let rt = parse_runtime(args, Runtime::Threads);
    if rt == Runtime::Sim {
        eprintln!("chaos needs a real transport backend (--runtime threads or tcp)");
        exit(2);
    }
    let seed: u64 = args.or("--seed", 0);
    let mut plan = ChaosPlan::new(seed);
    if let Some(spec) = args.get("--kill") {
        for f in parse_faults(spec, "--kill", &['@'], 2) {
            plan = plan.with_kill(f[0] as NodeId, f[1]);
        }
    }
    if let Some(spec) = args.get("--sever") {
        for f in parse_faults(spec, "--sever", &['-', '@'], 3) {
            plan = plan.with_sever(f[0] as NodeId, f[1] as NodeId, f[2]);
        }
    }
    if let Some(spec) = args.get("--stall") {
        for f in parse_faults(spec, "--stall", &['@'], 2) {
            plan = plan.with_stall(f[0], f[1]);
        }
    }
    // The link flags are FaultPlan rules (the simulator runs them too);
    // kill, sever and stall are the process events of the chaos plan.
    let mut faults = FaultPlan::new(seed);
    if let Some(spec) = args.get("--partition") {
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
    if let Some(spec) = args.get("--asym-loss") {
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
    if let Some(spec) = args.get("--bandwidth-cap") {
        for f in parse_faults(spec, "--bandwidth-cap", &['-', '@'], 3) {
            faults = faults.with_bandwidth_cap(f[0] as NodeId, f[1] as NodeId, f[2]);
        }
    }
    let chaos = ChaosConfig {
        plan,
        cadence: match args.get("--cadence") {
            Some("off") => None,
            Some(s) => Some(parse_flag("--cadence", s)),
            None => ChaosConfig::default().cadence,
        },
        deadline: Duration::from_millis(args.or("--deadline-ms", 500)),
    };

    let cfg = deployment_config(args, &g);
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
    if let Some(path) = args.get("--metrics-out") {
        write_or_exit(path, to_jsonl(&recording));
        eprintln!("wrote {path} (render the recovery timeline with `dwapsp report`)");
    }
    match res {
        Ok(solved) => {
            let label = format!("alg1 chaos [{}] outcome={:?}", rt.as_str(), solved.outcome);
            print_stats(&label, &solved.stats);
            let diffs = matrices_equal(&reference.to_matrix(), &solved.result.to_matrix(), 5).len();
            if diffs == 0 {
                outln!("recovered: distances bit-identical to the fault-free simulator ✓");
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
            outln!("salvaged distance upper bounds (failed columns are inf):");
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
fn cmd_report(args: &Args) {
    let path: String = args.need("--metrics");
    let recording =
        parse_jsonl(&read_or_exit(&path, std::fs::read_to_string)).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(1);
        });
    to_stdout(|out| {
        write!(
            out,
            "{}",
            render_report(&recording, &phase_bounds(&recording))
        )
    });
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

/// The deployment's worker count: `--shards P` directly,
/// `--nodes-per-worker K` as `ceil(n / K)`, or — with neither — one
/// process per node (`P = n`).
fn shard_count(args: &Args, n: usize) -> usize {
    let per_worker = args.value::<usize>("--nodes-per-worker");
    match (args.value::<usize>("--shards"), per_worker) {
        (Some(_), Some(_)) => args
            .cmd
            .refuse("--shards and --nodes-per-worker are mutually exclusive"),
        (Some(0), None) => args.cmd.refuse("--shards must be >= 1"),
        (None, Some(0)) => args.cmd.refuse("--nodes-per-worker must be >= 1"),
        (Some(p), None) => p,
        (None, Some(k)) => n.div_ceil(k),
        (None, None) => n,
    }
}

/// A listener bound to `addr`, or exit 1.
fn listen_on(addr: SocketAddr) -> TcpListener {
    TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot listen: {e}");
        exit(1);
    })
}

fn cmd_run_node(args: &Args) {
    let g = load(args);
    // --node-id names a *worker*: this process hosts every node in its
    // contiguous block (just node V in the default one-process-per-node
    // layout), and --peers lists the adjacent workers' addresses.
    let map = ShardMap::new(g.n(), shard_count(args, g.n()));
    let id: NodeId = args.need("--node-id");
    if id as usize >= map.shards() {
        eprintln!("--node-id {id} out of range ({} workers)", map.shards());
        exit(2);
    }
    let peers: Vec<(NodeId, SocketAddr)> = args
        .get("--peers")
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
    let coord = args.need("--coordinator");
    let timeout = Duration::from_secs(args.or("--timeout-secs", 30));
    let cfg = deployment_config(args, &g);
    let listener = listen_on(args.need("--listen"));
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
    outln!(
        "worker {id}: outcome={outcome:?} nodes={}..{}",
        map.nodes(id).start,
        map.nodes(id).end
    );
    to_stdout(|out| {
        for (v, node) in map.nodes(id).zip(&nodes) {
            for &s in &cfg.sources {
                match node.best_for(s) {
                    Some(b) => writeln!(out, "dist {s} -> {v}: {} (hops {})", b.d, b.l)?,
                    None => writeln!(out, "dist {s} -> {v}: inf")?,
                }
            }
        }
        Ok(())
    });
}

fn cmd_coordinator(args: &Args) {
    let g = load(args);
    let cfg = deployment_config(args, &g);
    let budget = args
        .value("--budget")
        .unwrap_or_else(|| default_budget(&cfg, g.n()));
    let listener = listen_on(args.need("--listen"));
    let participants = ShardMap::new(g.n(), shard_count(args, g.n())).shards();
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
    outln!("coordinator: outcome={outcome:?}");
    print_stats("alg1 [tcp]", &st);
}

/// Load a table file in either format: legacy `DWT1` snapshots come
/// back as generation 0, versioned `DWD1` files (written by
/// `dwapsp update`) keep their generation.
fn load_tables(args: &Args) -> VersionedTables {
    let path: String = args.need("--tables");
    let bytes = read_or_exit(&path, std::fs::read);
    VersionedTables::from_any_file_bytes(&bytes).unwrap_or_else(|| {
        eprintln!("{path} is not a valid table snapshot (bad magic/version or corrupt payload)");
        exit(1);
    })
}

/// `tables`: compute k-SSP/APSP once — on any runtime, or with the
/// sequential Dijkstra oracle (`--oracle`), which writes the same bytes
/// — and persist the per-source distance + parent tables for the
/// serving plane.
fn cmd_tables(args: &Args) {
    let g = load(args);
    let out: String = args.need("--out");
    let snap = if args.has("--oracle") {
        let sources = parse_sources(args, g.n()).unwrap_or_else(|| (0..g.n() as NodeId).collect());
        let runs: Vec<_> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
        TableSnapshot::from_sssp(&runs, g.n() as u32)
    } else {
        let rt = parse_runtime(args, Runtime::Sim);
        let cfg = deployment_config(args, &g);
        let (res, st) = solve_or_exit(&g, &cfg, rt, &mut NullRecorder);
        print_stats(&format!("alg1 tables [{}]", rt.as_str()), &st);
        TableSnapshot::from_result(&res)
    };
    write_or_exit(&out, snap.to_file_bytes());
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
fn cmd_serve(args: &Args) {
    let vt = load_tables(args);
    let snap = &vt.snap;
    let cfg = GatewayConfig {
        max_batch: args.or("--max-batch", 128),
        cache_capacity: args.or("--cache", 4096),
        initial_generation: vt.generation,
        ..GatewayConfig::default()
    };
    let listener = listen_on(args.or("--listen", SocketAddr::from(([127, 0, 0, 1], 0))));

    let cannot_start = |e: std::io::Error| -> ! {
        eprintln!("cannot start gateway: {e}");
        exit(1);
    };
    // `--shard-addrs` fronts shards started elsewhere; otherwise a
    // deployment runs them in-process. Either lives until this returns.
    let mut fronting;
    let mut local;
    let (gw, map, addrs) = if let Some(spec) = args.get("--shard-addrs") {
        let addrs: Vec<SocketAddr> = spec
            .split(',')
            .map(|a| parse_flag("--shard-addrs", a.trim()))
            .collect();
        let map = ShardMap::new(snap.n as usize, addrs.len());
        fronting = Gateway::spawn_on(listener, map.clone(), &addrs, cfg)
            .unwrap_or_else(|e| cannot_start(e));
        (&mut fronting, map, addrs)
    } else {
        local = Deployment::spawn_on(listener, snap, args.or("--shards", 1), cfg, &[])
            .unwrap_or_else(|e| cannot_start(e));
        let addrs = (0..local.map.shards())
            .map(|s| local.shard_addr(s))
            .collect();
        (&mut local.gateway, local.map.clone(), addrs)
    };
    outln!(
        "gateway listening on {} (tables generation {})",
        gw.addr,
        vt.generation
    );
    for (s, a) in addrs.iter().enumerate() {
        let block = map.nodes(s as NodeId);
        eprintln!(
            "  shard {s} at {a}: sources [{}, {})",
            block.start, block.end
        );
    }

    match args.value("--duration-secs") {
        Some(t) => {
            std::thread::sleep(Duration::from_secs(t));
            let st = gw.stats();
            outln!(
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
fn cmd_serve_shard(args: &Args) {
    let vt = load_tables(args);
    let snap = &vt.snap;
    let map = ShardMap::new(snap.n as usize, args.need("--shards"));
    let id: NodeId = args.need("--shard-id");
    if id as usize >= map.shards() {
        eprintln!(
            "--shard-id {id} out of range (effective shards: {})",
            map.shards()
        );
        exit(2);
    }
    let sub = snap.for_shard(&map, id);
    let listener = listen_on(args.need("--listen"));
    let block = map.nodes(id);
    eprintln!(
        "shard {id} serving {} source rows [{}, {}) on {} (generation {})",
        sub.tables.len(),
        block.start,
        block.end,
        listener.local_addr().unwrap(),
        vt.generation
    );
    let tables = shared_tables(VersionedTables {
        generation: vt.generation,
        snap: sub,
    });
    // Never raised: the worker serves until the process is killed.
    let served = AcceptStop::new(&listener).and_then(|stop| serve_shard(listener, tables, &stop));
    if let Err(e) = served {
        eprintln!("shard {id} failed: {e}");
        exit(1);
    }
}

/// `query`: one point-to-point lookup against a running gateway. Exits
/// 0 on an answer (including "unreachable"), 3 on degraded mode
/// (`ShardUnavailable`), 2 on a malformed query.
fn cmd_query(args: &Args) {
    let gateway: SocketAddr = args.need("--gateway");
    let src: NodeId = args.need("--src");
    let dst: NodeId = args.need("--dst");
    let mut client = ServeClient::connect(gateway, Duration::from_secs(5)).unwrap_or_else(|e| {
        eprintln!("cannot connect to gateway {gateway}: {e}");
        exit(1);
    });
    let outcome = client
        .query(src, dst, args.has("--path"))
        .unwrap_or_else(|e| {
            eprintln!("query failed: {e}");
            exit(1);
        });
    match outcome {
        QueryOutcome::Dist { dist } => outln!("dist {src} -> {dst}: {dist}"),
        QueryOutcome::Path { dist, path } => {
            let hops: Vec<String> = path.iter().map(|v| v.to_string()).collect();
            outln!("dist {src} -> {dst}: {dist}");
            outln!("path: {}", hops.join(" -> "));
        }
        QueryOutcome::Unreachable => outln!("dist {src} -> {dst}: inf"),
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
    outln!(
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
fn run_update_batches(args: &Args) -> (WGraph, VersionedTables) {
    let mut g = load(args);
    let mut vt = load_tables(args);
    if vt.snap.n as usize != g.n() {
        eprintln!(
            "tables cover n={} but the graph has n={}; recompute with `dwapsp tables`",
            vt.snap.n,
            g.n()
        );
        exit(2);
    }
    let upath: String = args.need("--updates");
    let updates =
        parse_updates(&read_or_exit(&upath, std::fs::read_to_string)).unwrap_or_else(|e| {
            eprintln!("{upath}: {e}");
            exit(2);
        });
    let batch_size: usize = args.or("--batch-size", updates.len().max(1));
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

fn write_update_outputs(args: &Args, g: &WGraph, vt: &VersionedTables) {
    if let Some(out) = args.get("--out-tables") {
        write_or_exit(out, vt.to_file_bytes());
        eprintln!(
            "wrote {out}: generation {} ({} source rows over n={})",
            vt.generation,
            vt.snap.tables.len(),
            vt.snap.n
        );
    }
    if let Some(out) = args.get("--out-graph") {
        write_or_exit(out, gio::to_json(g));
        eprintln!("wrote {out}: patched graph (n={}, m={})", g.n(), g.m());
    }
}

/// `update`: offline incremental recompute. Patches the graph with a
/// batch file, repairs the tables cell by cell — whichever solver wrote
/// them, the result is the file `dwapsp tables` writes for the patched
/// graph — and persists the next `DWD1` generation.
fn cmd_update(args: &Args) {
    let (g, vt) = run_update_batches(args);
    write_update_outputs(args, &g, &vt);
}

/// `apply-updates`: the online variant — recompute incrementally, then
/// push the new generation to a running gateway, which swaps every
/// shard atomically without dropping in-flight queries. Exits 3 when
/// the swap was degraded (some shard down).
fn cmd_apply_updates(args: &Args) {
    let gateway: SocketAddr = args.need("--gateway");
    let (g, vt) = run_update_batches(args);
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
    outln!(
        "apply generation {}: accepted={} shards-installed={} shards-down={} \
         install-bytes={} full={}",
        rep.generation,
        rep.accepted,
        rep.shards_installed,
        rep.shards_down,
        rep.install_bytes,
        rep.full
    );
    write_update_outputs(args, &g, &vt);
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
fn cmd_loadgen(args: &Args) {
    let gateway: SocketAddr = args.need("--gateway");
    let vt = load_tables(args);
    let sources: Vec<NodeId> = vt.snap.tables.iter().map(|t| t.source).collect();
    let cfg = LoadgenConfig {
        clients: args.or("--clients", 4),
        requests_per_client: args.or("--requests", 1000),
        path_fraction: args.or("--path-fraction", 0.5),
        zipf: args.value("--zipf"),
        zipf_pairs: args.or("--zipf-pairs", 10_000),
        seed: args.or("--seed", 1),
    };

    // Mixed stream: a background updater recomputes + swaps table
    // generations through the gateway while the query load runs.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let updater = args.get("--update-graph").map(|gpath| {
        let interval = Duration::from_millis(args.or("--update-every-ms", 200));
        let batch_size: usize = args.or("--update-batch", 8);
        let seed: u64 = args.or("--update-seed", cfg.seed ^ 0xD15C0);
        let mut g = graph_file(gpath);
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
    let swap_stats = updater.map(|h| {
        h.join().unwrap_or_else(|_| {
            eprintln!("the table updater panicked");
            exit(1);
        })
    });

    if args.has("--json") {
        let swap_suffix = swap_stats.map_or(String::new(), |t| {
            format!(
                ",\"swaps\":{},\"swaps_accepted\":{},\"installs_full\":{},\"install_bytes\":{}",
                t.swaps, t.accepted, t.full, t.install_bytes
            )
        });
        outln!(
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
        outln!(
            "loadgen [{mix}]: {} queries in {:?} ({:.0} qps, {} clients)",
            report.queries,
            report.wall,
            report.qps,
            cfg.clients
        );
        outln!(
            "latency: p50={}us p95={}us p99={}us; shard-unavailable={} errors={}",
            report.p50_us,
            report.p95_us,
            report.p99_us,
            report.shard_unavailable,
            report.errors
        );
        if let Some(t) = swap_stats {
            outln!(
                "updates: {} generation swaps applied mid-run ({} accepted by the whole fleet); \
                 {} install bytes, {} full installs",
                t.swaps,
                t.accepted,
                t.install_bytes,
                t.full
            );
        }
    }
}

/// One row per source.
fn print_matrix(m: &DistMatrix) {
    to_stdout(|out| {
        for (i, &s) in m.sources.iter().enumerate() {
            write!(out, "{s}:")?;
            for v in 0..m.n() as NodeId {
                match m.at(i, v) {
                    INFINITY => write!(out, " inf")?,
                    d => write!(out, " {d}")?,
                }
            }
            writeln!(out)?;
        }
        Ok(())
    });
}

fn cmd_validate(args: &Args) {
    let g = load(args);
    let reference = apsp_dijkstra(&g);
    let engine = EngineConfig::default();
    let mut failures = 0;

    let (a1, _, _) = apsp_auto(&g, engine.clone());
    failures += report_diff("alg1", matrices_equal(&reference, &a1.to_matrix(), 5).len());

    let (bf, _) = bf_apsp(&g, engine.clone());
    failures += report_diff("bf", matrices_equal(&reference, &bf.to_matrix(), 5).len());

    let (h, delta) = alg3_h_delta(args, &g);
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
        outln!("all algorithms validated against sequential Dijkstra ✓");
    } else {
        eprintln!("{failures} validation failure(s)");
        exit(1);
    }
}

fn report_diff(name: &str, diffs: usize) -> usize {
    if diffs == 0 {
        outln!("{name}: ok");
        0
    } else {
        outln!("{name}: {diffs} DISAGREEMENT(S)");
        1
    }
}

fn cmd_info(args: &Args) {
    let g = load(args);
    let st = analysis::stats(&g);
    outln!("n={} m={} directed={}", st.n, st.m, st.directed);
    outln!(
        "weights: max={} zero-edges={} ({:.0}%)",
        st.max_weight,
        st.zero_edges,
        100.0 * st.zero_edges as f64 / st.m.max(1) as f64
    );
    outln!(
        "comm degree: min={} max={} avg={:.2}",
        st.min_comm_degree,
        st.max_comm_degree,
        st.avg_comm_degree
    );
    outln!("comm connected: {}", analysis::comm_connected(&g));
    if let Some(d) = analysis::comm_diameter(&g) {
        outln!("comm diameter: {d}");
    }
    outln!("Δ (max finite distance): {}", max_finite_distance(&g));
}
