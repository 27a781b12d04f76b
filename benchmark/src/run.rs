//! The driver: one workload, one seed, one run.
//!
//! ```text
//!            ┌──────────────────────── one cycle, repeated ───────────────────────┐
//! set-up ──► cold reps ──► query slice ──► update slice ──► replay   (traced pass: probes)
//!  gen,       load JSON, solve,   warm-up,       updater + one query    against
//!  oracle,    build, persist,     8 conns,       connection on the      the oracle
//!  write      load, deploy,       1 conn         last rep's deployment
//!  JSON       first verified answer
//! ```
//!
//! A run is a handful of cycles, each a pass over the whole pipeline on
//! the workload's one graph. The sizing box runs the same code up to
//! twice as fast from one few-second stretch to the next, so a metric
//! measured in one stretch of the run reads whatever that stretch was;
//! spread over the cycles, each metric sees the whole run, and reads the
//! first quartile of its samples ([`quiet`]): the neighbours of a shared
//! host only ever add time, so the quiet quarter of a run is the program
//! and the slow end is the host. Each slice of a cycle
//! gets a share of `--seconds` and runs until it is spent, so a run
//! measures for the time it was given whatever the machine. Every call
//! into the stack is one span around one `layers.rs` function.

use crate::layers::{
    self, Answer, Backend, Client, Deployment, GatewayCounters, Generation, Graph, NodeId,
    RunStats, Tables, Weight,
};
use crate::loadgen::{self, Query, QueryMix};
use crate::pins;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::verify::{self, Oracle};
use crate::workloads::{Mix, Solver, Workload, SERVE_SHARDS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The workload was shrunk by `--smoke`: exact counts are not pinned.
    pub smoke: bool,
    /// Where the run keeps its files and the traced pass writes traces.
    pub out_dir: PathBuf,
}

/// What a run hands back: metric values by name, and the operation
/// counts behind `attempted` and `failed`.
#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading stderr.
    pub errors: Vec<String>,
}

impl Report {
    fn attempt(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// A failure that is not one more attempted operation (a broken
    /// invariant of the run itself).
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Tell the watchdog which stage starts and how long it may take. The
/// parent process kills the run when a stage outlives its deadline.
fn stage(name: &str, deadline_s: u64) {
    println!("stage {name} {deadline_s}");
    let _ = std::io::stdout().flush();
}

/// A cycle is about this long, so a full-length run has 8 of them.
const CYCLE_SECONDS: f64 = 3.5;

fn cycle_count(seconds: f64) -> u32 {
    ((seconds / CYCLE_SECONDS).round() as u32).clamp(2, 12)
}

/// The generator seed of every workload's graph. The graph is part of
/// the workload, like a data set: `--seed` draws the query and update
/// streams and leaves it alone. Graphs of one family differ in the work of
/// a solve by 7 to 22 % (`README.md`), which between two seeds would read
/// as a spread of the measurement; and on one graph the exact counts are
/// pinned for every run, whatever its seed.
const GRAPH_SEED: u64 = 1;

/// A run's value of a timing, from its samples over all cycles: the
/// first quartile by nearest rank, which of 8 samples is the second
/// fastest and of 96 the 24th.
fn quiet(samples: &[f64]) -> f64 {
    percentile(samples, 0.25)
}

struct Inputs {
    graph: Graph,
    n: usize,
    sources: Vec<NodeId>,
    oracle: Oracle,
    delta: Weight,
    graph_path: PathBuf,
}

fn setup(tr: &mut Tracer, w: &Workload, dir: &Path) -> Result<Inputs, String> {
    let (graph, _) = tr.time("graphgen.gen", || layers::gen_graph(w.family, GRAPH_SEED));
    let n = layers::graph_n(&graph);
    let sources = w.sources.pick(n);
    let (runs, _) = tr.time("seqref.oracle", || layers::oracle_runs(&graph, &sources));
    let oracle = Oracle::new(&sources, runs);
    let delta = oracle.max_finite().max(1);
    let graph_path = dir.join("graph.json");
    let (written, _) = tr.time("setup.write_graph", || {
        std::fs::write(&graph_path, layers::graph_to_json(&graph))
    });
    written.map_err(|e| format!("write {}: {e}", graph_path.display()))?;
    Ok(Inputs {
        graph,
        n,
        sources,
        oracle,
        delta,
        graph_path,
    })
}

/// The query a cold rep asks first: a path from the first table row to
/// the last node.
fn first_query(inp: &Inputs) -> Query {
    Query {
        src: inp.sources[0],
        dst: (inp.n - 1) as NodeId,
        want_path: true,
    }
}

struct ColdRep {
    time_to_serving_s: f64,
    solve_s: f64,
    /// Engine counts of the solve; `None` on the oracle path.
    stats: Option<RunStats>,
    file_bytes: usize,
    recorded: bool,
}

enum SolveOutput {
    Alg1(layers::Solved),
    Oracle(Vec<layers::SsspRun>),
}

/// Graph JSON on disk to the first verified answer. The deployment is
/// handed back live: the last rep of a cycle serves the cycle's query and
/// update slices, the others are shut down by the caller.
fn cold_rep(
    tr: &mut Tracer,
    rep: &mut Report,
    w: &Workload,
    inp: &Inputs,
    dir: &Path,
) -> Result<(ColdRep, Tables, Deployment), String> {
    let recorded = tr.recording();
    let tables_path = dir.join("tables.dwt");
    let top = tr.begin("cold.rep");

    let (graph, _) = tr.time("graphgen.load_json", || {
        let text = std::fs::read_to_string(&inp.graph_path).map_err(|e| e.to_string())?;
        layers::graph_from_json(&text)
    });
    let graph = graph?;

    let (solved, solve_s) = tr.time("solve", || match w.solver {
        Solver::Alg1(backend) => {
            layers::solve(&graph, &inp.sources, inp.delta, backend, false).map(SolveOutput::Alg1)
        }
        Solver::Oracle => Ok(SolveOutput::Oracle(layers::oracle_runs(
            &graph,
            &inp.sources,
        ))),
    });
    let solved = solved?;

    let (tables, _) = tr.time("serve.table_build", || match &solved {
        SolveOutput::Alg1(s) => layers::tables_from_solution(&s.result),
        SolveOutput::Oracle(runs) => layers::tables_from_oracle(runs, inp.n),
    });

    let (persisted, _) = tr.time("serve.table_persist", || -> std::io::Result<usize> {
        let bytes = layers::tables_to_bytes(&tables);
        let mut f = std::fs::File::create(&tables_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        Ok(bytes.len())
    });
    let file_bytes = persisted.map_err(|e| format!("persist tables: {e}"))?;
    drop(tables);

    let (loaded, _) = tr.time("serve.table_load", || {
        let bytes = std::fs::read(&tables_path).map_err(|e| e.to_string())?;
        layers::tables_from_bytes(&bytes).ok_or_else(|| "table file does not parse".to_string())
    });
    let loaded = loaded?;

    let (deployment, _) = tr.time("serve.deploy", || layers::deploy(&loaded, SERVE_SHARDS));
    let deployment = deployment?;

    let q = first_query(inp);
    let (first, _) = tr.time("serve.first_answer", || {
        // The client lives only inside this call: the gateway's shutdown
        // joins its connection threads, so none may outlive it.
        Client::connect(deployment.addr())?.query(q.src, q.dst, q.want_path)
    });
    let time_to_serving_s = tr.end(top);

    let stats = match &solved {
        SolveOutput::Alg1(s) => {
            rep.attempt(
                "solve",
                if s.quiet {
                    verify::check_rows(&inp.oracle, layers::solution_rows(&s.result))
                } else {
                    Err("round budget exhausted before the run went quiet".into())
                },
            );
            Some(s.stats.clone())
        }
        SolveOutput::Oracle(runs) => {
            let rows: Vec<Vec<Weight>> =
                runs.iter().map(|r| layers::run_dist(r).to_vec()).collect();
            rep.attempt("solve", verify::check_rows(&inp.oracle, &rows));
            None
        }
    };
    let row = inp.oracle.row(q.src).expect("first query asks a table row");
    rep.attempt(
        "first answer",
        first.and_then(|a| verify::check_answer(&inp.graph, row, &q, &a)),
    );

    Ok((
        ColdRep {
            time_to_serving_s,
            solve_s,
            stats,
            file_bytes,
            recorded,
        },
        loaded,
        deployment,
    ))
}

/// Hold every answer of a sub-run against the oracle; each is one
/// attempted operation, and so is each query that got no answer.
fn check_answers(rep: &mut Report, inp: &Inputs, run: &loadgen::SubRun) {
    for (q, a) in &run.answers {
        let outcome = match inp.oracle.row(q.src) {
            Some(row) => verify::check_answer(&inp.graph, row, q, a),
            None => Err(format!("query for {} which is no table row", q.src)),
        };
        rep.attempt("query", outcome);
    }
    for e in &run.errors {
        rep.attempt("query", Err(e.clone()));
    }
}

/// Everything the cycles of a run measured, pooled.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    cold: Vec<ColdRep>,
    /// Latencies under load, their median in each cycle, and per-cycle
    /// throughput.
    loaded_us: Vec<f64>,
    loaded_p50_us: Vec<f64>,
    loaded_qps: Vec<f64>,
    /// The same at one connection.
    light_us: Vec<f64>,
    light_qps: Vec<f64>,
    /// Gateway counters over the loaded sub-runs.
    gateway: GatewayCounters,
    updates: UpdateTimes,
}

/// Closed-loop connections of a loaded sub-run: four per core. Fewer
/// leave the cores idle for most of each 200 us flush tick, and then what
/// is measured is how fast the hypervisor wakes an idle core, which on
/// the sizing box came in two modes a run apart (`README.md`).
const LOADED_CONNS: u32 = 8;

/// One cycle's query slice on the cycle's deployment: a discarded warm-up
/// that fills the gateway cache, a sub-run under load for throughput and
/// latency, then one at a single connection for the per-layer view of an
/// idle deployment.
#[allow(clippy::too_many_arguments)]
fn query_slice(
    tr: &mut Tracer,
    rep: &mut Report,
    out: &mut Samples,
    deployment: &Deployment,
    inp: &Inputs,
    mix: &Arc<QueryMix>,
    (seed, cycle): (u64, u32),
    budget_s: f64,
) {
    let addr = deployment.addr();
    let share = |of_budget: f64| Duration::from_secs_f64(budget_s * of_budget);
    let warm = loadgen::closed_loop(addr, mix, LOADED_CONNS, seed, 3 * cycle, share(0.2));
    check_answers(rep, inp, &warm);

    tr.set_rep(cycle);
    let before = deployment.counters();
    let (run, _) = tr.time("query.sub_run_loaded", || {
        loadgen::closed_loop(addr, mix, LOADED_CONNS, seed, 3 * cycle + 1, share(0.5))
    });
    out.gateway.add(deployment.counters().since(before));
    check_answers(rep, inp, &run);
    out.loaded_qps.push(run.qps());
    out.loaded_p50_us.push(median(&run.latencies_us));
    out.loaded_us.extend(run.latencies_us);

    let (run, _) = tr.time("query.sub_run_1conn", || {
        loadgen::closed_loop(addr, mix, 1, seed, 3 * cycle + 2, share(0.3))
    });
    check_answers(rep, inp, &run);
    out.light_qps.push(run.qps());
    out.light_us.extend(run.latencies_us);
}
/// An answer seen during an update slice, with the table generations it
/// may legally have come from: the last one acknowledged when the query
/// was sent, up to the one after the last acknowledged when the reply
/// arrived. Never older.
struct Observed {
    query: Query,
    answer: Result<Answer, String>,
    oldest: u64,
    newest: u64,
}

/// Per-batch timings of update slices, and the latencies of the query
/// connection beside them.
#[derive(Default)]
struct UpdateTimes {
    visible_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    push_ms: Vec<f64>,
    probe_us: Vec<f64>,
    recomputed_fraction: Vec<f64>,
    rejected: u64,
    reader_us: Vec<f64>,
}

impl UpdateTimes {
    fn absorb(&mut self, mut other: UpdateTimes) {
        self.visible_ms.append(&mut other.visible_ms);
        self.apply_ms.append(&mut other.apply_ms);
        self.push_ms.append(&mut other.push_ms);
        self.probe_us.append(&mut other.probe_us);
        self.recomputed_fraction
            .append(&mut other.recomputed_fraction);
        self.reader_us.append(&mut other.reader_us);
        self.rejected += other.rejected;
    }
}

struct UpdateSlice {
    times: UpdateTimes,
    batches: Vec<layers::Batch>,
    observed: Vec<Observed>,
    last: Generation,
}

/// The rows an update slice watches, spread over the table rows so that
/// both shards answer. Replaying a slice costs one Dijkstra per watched
/// row per generation, which is why the query connection and the probe
/// stay on these rows: as many as keep a generation's Dijkstras near
/// 40k node visits, and at least two. Even two rows times `n`
/// destinations are more pairs than the gateway caches.
fn watched(inp: &Inputs) -> Vec<NodeId> {
    let k = inp.sources.len();
    let rows = (40_000 / inp.n).clamp(2, 64).min(k);
    (0..rows)
        .map(|i| {
            inp.sources[if rows == 1 {
                0
            } else {
                i * (k - 1) / (rows - 1)
            }]
        })
        .collect()
}

fn path_fraction(mix: Mix) -> f64 {
    match mix {
        Mix::Uniform { path_fraction } => path_fraction,
        Mix::Zipf { .. } => 0.5,
    }
}

/// The query connection beside the updater waits this long between
/// queries. At full speed it took up to half a core from the updater on
/// some days and none on others: `update_visible_ms` on
/// `apsp256_sim_uniform` read 800 ms in one calibration and 1280 ms in the
/// next on unchanged code (`README.md`).
const READER_THINK: Duration = Duration::from_millis(2);

/// One cycle's update slice, writes beside reads: this thread applies
/// seeded batches (apply, push, probe) while one closed-loop connection
/// keeps querying. Generations start at 0 in every cycle, because every
/// cycle has its own deployment; `first_seq` numbers the batches across
/// the run, for the trace.
#[allow(clippy::too_many_arguments)]
fn update_slice(
    tr: &mut Tracer,
    rep: &mut Report,
    deployment: &Deployment,
    inp: &Inputs,
    args: &Args,
    tables: Tables,
    (cycle, first_seq, max_batches): (u32, u32, usize),
    budget_s: f64,
) -> Result<UpdateSlice, String> {
    let (w, seed) = (&args.workload, args.seed);
    let addr = deployment.addr();
    let watch = watched(inp);
    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let (acked, stop) = (Arc::clone(&acked), Arc::clone(&stop));
        let mix = QueryMix::new(
            Mix::Uniform {
                path_fraction: path_fraction(w.mix),
            },
            &watch,
            inp.n,
            seed,
        );
        std::thread::spawn(move || {
            let mut seen: Vec<Observed> = Vec::new();
            let mut latencies_us = Vec::new();
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(e) => return (seen, latencies_us, Some(e)),
            };
            let mut rng = loadgen::stream(seed, 100, cycle);
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(READER_THINK);
                let query = mix.draw(&mut rng);
                let oldest = acked.load(Ordering::SeqCst);
                let t0 = Instant::now();
                let answer = client.query(query.src, query.dst, query.want_path);
                let failed = answer.is_err();
                latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                seen.push(Observed {
                    query,
                    answer,
                    oldest,
                    newest: acked.load(Ordering::SeqCst) + 1,
                });
                if failed {
                    break;
                }
            }
            (seen, latencies_us, None)
        })
    };

    let mut g = layers::clone_graph(&inp.graph);
    let mut current = layers::first_generation(tables);
    let max_w = layers::graph_max_weight(&g).max(1);
    let mut batch_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15C0 ^ u64::from(cycle) << 32);
    let mut probe_rng = loadgen::stream(seed, 101, cycle);
    let mut out = UpdateSlice {
        times: UpdateTimes::default(),
        batches: Vec::new(),
        observed: Vec::new(),
        last: current.clone(),
    };
    let mut failure = None;
    let started = Instant::now();
    let mut client = Client::connect(addr)?;
    // Batches start no closer than this, so that a workload whose batches
    // are cheap still spends the slice's time beside the query
    // connection instead of ending early.
    let pace = Duration::from_secs_f64(budget_s / max_batches as f64);
    for seq in 0u64.. {
        std::thread::sleep((pace * seq as u32).saturating_sub(started.elapsed()));
        let spent = started.elapsed().as_secs_f64();
        let typical = median(&out.times.visible_ms) / 1e3;
        let enough = !out.batches.is_empty() && spent + typical > budget_s;
        if enough || out.batches.len() >= max_batches {
            break;
        }
        let batch = layers::gen_batch(&g, seq, w.update_batch, max_w, &mut batch_rng);
        let probe = Query {
            src: watch[seq as usize % watch.len()],
            dst: probe_rng.gen_range(0..inp.n as NodeId),
            want_path: true,
        };

        tr.set_rep(first_seq + seq as u32);
        let top = tr.begin("update.batch");
        let (applied, apply_s) = tr.time("dynamic.apply_batch", || {
            layers::apply_batch(&mut g, &current, &batch, w.recompute)
        });
        let applied = match applied {
            Ok(a) => a,
            Err(e) => {
                let _ = tr.end(top);
                failure = Some(format!("apply_update_batch: {e}"));
                break;
            }
        };
        let (swap, push_s) = tr.time("dynamic.push", || client.apply_tables(&applied.next));
        let generation = layers::generation_number(&applied.next);
        let accepted = matches!(&swap, Ok(s) if s.accepted && s.generation == generation);
        if accepted {
            acked.store(generation, Ordering::SeqCst);
        }
        let (answer, probe_s) = tr.time("dynamic.probe", || {
            client.query(probe.src, probe.dst, probe.want_path)
        });
        let visible_s = tr.end(top);

        rep.attempt(
            "swap",
            match swap {
                Ok(_) if accepted => Ok(()),
                Ok(s) => Err(format!(
                    "generation {generation} not accepted (gateway at {})",
                    s.generation
                )),
                Err(e) => Err(e),
            },
        );
        out.times.rejected += u64::from(!accepted);
        out.times.visible_ms.push(visible_s * 1e3);
        out.times.apply_ms.push(apply_s * 1e3);
        out.times.push_ms.push(push_s * 1e3);
        out.times.probe_us.push(probe_s * 1e6);
        out.times
            .recomputed_fraction
            .push(applied.recomputed as f64 / applied.rows.max(1) as f64);
        out.observed.push(Observed {
            query: probe,
            answer,
            oldest: generation,
            newest: generation,
        });
        out.batches.push(batch);
        current = applied.next;
        if !accepted {
            failure = Some("a swap was not accepted; the generations diverged".into());
            break;
        }
    }
    drop(client);
    stop.store(true, Ordering::SeqCst);
    match reader.join() {
        Ok((seen, latencies_us, connect_error)) => {
            out.observed.extend(seen);
            out.times.reader_us = latencies_us;
            if let Some(e) = connect_error {
                failure.get_or_insert(format!("query connection: {e}"));
            }
        }
        Err(_) => {
            failure.get_or_insert("query connection thread panicked".into());
        }
    }
    out.last = current;
    match failure {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Replay an update slice on a private copy of the graph: patch batch by
/// batch, take Dijkstra rows of the watched sources for every generation,
/// and accept an observed answer if it is right for one of the
/// generations it may have come from.
fn replay_updates(
    tr: &mut Tracer,
    rep: &mut Report,
    inp: &Inputs,
    phase: &UpdateSlice,
    first_seq: u32,
) {
    let watch = watched(inp);
    let mut g = layers::clone_graph(&inp.graph);
    let mut verdict: Vec<Result<(), String>> = phase
        .observed
        .iter()
        .map(|_| Err("no generation in range".to_string()))
        .collect();
    for generation in 0..=phase.batches.len() as u64 {
        if generation > 0 {
            tr.set_rep(first_seq + generation as u32 - 1);
            let batch = &phase.batches[generation as usize - 1];
            let (patched, _) = tr.time("graphgen.patch", || layers::patch_graph(&mut g, batch));
            if let Err(e) = patched {
                rep.fail(format!(
                    "replay: batch {} does not apply: {e}",
                    generation - 1
                ));
                return;
            }
        }
        let oracle = Oracle::new(&watch, layers::oracle_runs(&g, &watch));
        for (seen, verdict) in phase.observed.iter().zip(&mut verdict) {
            if verdict.is_ok() || generation < seen.oldest || generation > seen.newest {
                continue;
            }
            *verdict = match (&seen.answer, oracle.row(seen.query.src)) {
                (Ok(a), Some(row)) => verify::check_answer(&g, row, &seen.query, a)
                    .map_err(|e| format!("generations {}..={}: {e}", seen.oldest, seen.newest)),
                (Err(e), _) => Err(e.clone()),
                (_, None) => Err("query for an unwatched row".into()),
            };
        }
    }
    for v in verdict {
        rep.attempt("query beside updates", v);
    }
}

fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Exact counts of the solve must be the same in every rep and equal to
/// the recorded values.
fn check_counts(rep: &mut Report, args: &Args, counts: &[(&'static str, u64)]) {
    if args.smoke {
        return;
    }
    for &(name, value) in counts {
        if let Some(want) = pins::pinned(args.workload.name, name) {
            if want != value {
                rep.fail(format!("{name} is {value}, pinned at {want}"));
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let dir = args.out_dir.join(format!(
        "run-{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        rep.fail(format!("create {}: {e}", dir.display()));
        return rep;
    }
    let mut tr = Tracer::new(args.trace);
    if let Err(e) = run_in(args, &dir, &mut tr, &mut rep) {
        rep.fail(e);
    }
    if args.trace {
        let name = args.workload.name;
        for (file, text) in [
            (format!("trace-{name}.jsonl"), tr.to_jsonl()),
            (format!("trace-{name}.chrome.json"), tr.to_chrome_trace()),
        ] {
            if let Err(e) = std::fs::write(args.out_dir.join(&file), text) {
                rep.fail(format!("write {file}: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// `samples <name> <count> [values]` on standard error: the sample count
/// behind an end-to-end timing, and the values themselves, in the order
/// they were taken, where they are few.
fn print_samples(name: &str, v: &[f64]) {
    let shown: Vec<String> = if v.len() <= 128 {
        v.iter().map(|x| format!("{x:.6}")).collect()
    } else {
        Vec::new()
    };
    eprintln!("samples {name} {} {}", v.len(), shown.join(" "));
}

fn run_in(args: &Args, dir: &Path, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let w = &args.workload;
    let cycles = cycle_count(args.seconds);
    // The traced pass also runs the probes, so its slices get less.
    let scale = if args.trace { 0.6 } else { 1.0 };
    let slice = |share: f64| args.seconds * share * scale / f64::from(cycles);
    let cycle_deadline = (3.0 * args.seconds / f64::from(cycles)).ceil() as u64 + 30;
    let batches_per_cycle = w.update_batches.div_ceil(cycles as usize);

    let mut s = Samples::default();
    let mut cold_reps = 0u32;
    let mut first_rep_rss_mib = 0.0;
    // What the probes of the traced pass start from: cycle 0's inputs,
    // tables and update slice.
    let mut first = None;
    for cycle in 0..cycles {
        stage(&format!("cycle{cycle}"), cycle_deadline);
        tr.set_rep(cycle);
        let top = tr.begin("setup");
        let made = setup(tr, w, dir);
        s.setup_s.push(tr.end(top));
        let inp = made?;

        // Cold reps until the slice is spent. The very first warms up and
        // is discarded. In the traced pass odd reps record spans and even
        // reps do not, which is what bench.trace_overhead_share compares.
        let started = Instant::now();
        let (tables, deployment) = loop {
            tr.set_rep(cold_reps);
            tr.set_recording(args.trace && cold_reps % 2 == 1);
            let (one, tables, deployment) = cold_rep(tr, rep, w, &inp, dir)?;
            let last_s = one.time_to_serving_s;
            if cold_reps > 0 {
                s.cold.push(one);
            } else {
                // One pass of the pipeline in a fresh process. Later reps
                // push the high-water mark up by an amount that depends
                // on how the allocator reuses what the earlier ones
                // freed, and on how many reps the time allowed.
                first_rep_rss_mib = vm_hwm_mib();
            }
            cold_reps += 1;
            let spent = started.elapsed().as_secs_f64();
            if cold_reps > 1 && spent + last_s > slice(w.shares.cold) {
                break (tables, deployment);
            }
            deployment.shutdown();
        };
        tr.set_recording(args.trace);

        let mix = Arc::new(QueryMix::new(w.mix, &inp.sources, inp.n, args.seed));
        query_slice(
            tr,
            rep,
            &mut s,
            &deployment,
            &inp,
            &mix,
            (args.seed, cycle),
            slice(w.shares.query),
        );

        let probe_tables = (args.trace && cycle == 0).then(|| tables.clone());
        let first_seq = s.updates.visible_ms.len() as u32;
        let updates = update_slice(
            tr,
            rep,
            &deployment,
            &inp,
            args,
            tables,
            (cycle, first_seq, batches_per_cycle),
            slice(w.shares.update),
        );
        // Every client is gone by now, so the gateway's joins return.
        deployment.shutdown();
        let mut updates = updates?;
        replay_updates(tr, rep, &inp, &updates, first_seq);
        s.updates.absorb(std::mem::take(&mut updates.times));
        first.get_or_insert((inp, probe_tables, updates));
    }
    let (inp, probe_tables, updates) = first.expect("a run has at least two cycles");

    let cold = &s.cold;
    if cold
        .windows(2)
        .any(|p| p[0].stats != p[1].stats || p[0].file_bytes != p[1].file_bytes)
    {
        rep.fail("exact counts differ between cold reps".into());
    }
    let mut counts = vec![("serve.table_file_bytes", cold[0].file_bytes as u64)];
    if let Some(st) = &cold[0].stats {
        counts.extend([
            ("congest.rounds", st.rounds),
            ("congest.rounds_executed", st.rounds_executed),
            ("congest.messages", st.messages),
            ("congest.max_link_load", st.max_link_load),
        ]);
    }

    let tts: Vec<f64> = cold.iter().map(|c| c.time_to_serving_s).collect();
    let solve: Vec<f64> = cold.iter().map(|c| c.solve_s).collect();
    // One value a cycle for the query latency, whose samples are the
    // queries of a sub-run; one value a rep or a batch for the others.
    let timings = [
        ("setup_s", &s.setup_s),
        ("time_to_serving_s", &tts),
        ("solve_s", &solve),
        ("query_p50_us", &s.loaded_p50_us),
        ("update_visible_ms", &s.updates.visible_ms),
    ];
    for (name, samples) in timings {
        print_samples(name, samples);
    }
    print_samples("query_latency_us", &s.loaded_us);
    print_samples("query_qps", &s.loaded_qps);
    print_samples("swap_query_us", &s.updates.reader_us);
    if !args.trace {
        check_counts(rep, args, &counts);
        for (name, samples) in timings {
            rep.set(name, quiet(samples));
        }
        rep.set("peak_rss_mib", first_rep_rss_mib);
        return Ok(());
    }

    // ---- traced pass: per-layer numbers from the spans, then the probes
    stage("probes", args.seconds.ceil() as u64 + 60);
    let probe_tables = probe_tables.expect("cloned in cycle 0 of the traced pass");
    let span = |name: &str| median(&tr.durations(name, 1));
    let traced: Vec<f64> = cold
        .iter()
        .filter(|c| c.recorded)
        .map(|c| c.time_to_serving_s)
        .collect();
    let untraced: Vec<f64> = cold
        .iter()
        .filter(|c| !c.recorded)
        .map(|c| c.time_to_serving_s)
        .collect();
    let overhead = median(&traced) / median(&untraced) - 1.0;
    let unattributed = median(&tr.self_times("cold.rep", 1));
    let attributed: f64 = [
        "graphgen.load_json",
        "solve",
        "serve.table_build",
        "serve.table_persist",
        "serve.table_load",
        "serve.deploy",
        "serve.first_answer",
    ]
    .iter()
    .map(|n| span(n))
    .sum();
    let update_unattributed = median(&tr.self_times("update.batch", 0)) * 1e3;
    eprintln!(
        "{}: sum check 1: time_to_serving_s {:.4} = spans {:.4} + unattributed {:.6} s",
        w.name,
        median(&traced),
        attributed,
        unattributed
    );
    eprintln!(
        "{}: sum check 2: update_visible {:.3} = apply {:.3} + push {:.3} + probe {:.3} + unattributed {:.4} ms",
        w.name,
        median(&s.updates.visible_ms),
        median(&s.updates.apply_ms),
        median(&s.updates.push_ms),
        median(&s.updates.probe_us) / 1e3,
        update_unattributed
    );
    if unattributed > 0.05 * median(&traced) {
        rep.fail(format!(
            "sum check 1 leaves {unattributed:.4} s of a cold rep unattributed"
        ));
    }
    if update_unattributed > 0.05 * median(&s.updates.visible_ms) {
        rep.fail(format!(
            "sum check 2 leaves {update_unattributed:.4} ms of a batch unattributed"
        ));
    }

    rep.set("bench.trace_overhead_share", overhead);
    rep.set("bench.unattributed_s", unattributed);
    rep.set("bench.update_unattributed_ms", update_unattributed);
    rep.set("bench.cold_reps", cold.len() as f64);
    rep.set("bench.query_samples", s.loaded_us.len() as f64);
    rep.set("bench.update_batches", s.updates.visible_ms.len() as f64);
    rep.set("bench.peak_rss_end_mib", vm_hwm_mib());
    rep.set("graphgen.gen_s", median(&tr.durations("graphgen.gen", 0)));
    rep.set("seqref.oracle_s", median(&tr.durations("seqref.oracle", 0)));
    rep.set("graphgen.load_json_s", span("graphgen.load_json"));
    rep.set(
        "graphgen.csr_bytes",
        layers::graph_csr_bytes(&inp.graph) as f64,
    );
    let patch_us = median(&tr.durations("graphgen.patch", 0)) * 1e6;
    rep.set("graphgen.patch_us", patch_us);
    rep.set("serve.table_build_s", span("serve.table_build"));
    rep.set("serve.table_persist_s", span("serve.table_persist"));
    rep.set("serve.table_load_s", span("serve.table_load"));
    rep.set("serve.table_file_bytes", cold[0].file_bytes as f64);
    rep.set("serve.deploy_s", span("serve.deploy"));
    rep.set("serve.first_answer_s", span("serve.first_answer"));

    let gw = s.gateway;
    let per = |total: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let shard_ns = per(gw.lookup_ns + gw.walk_ns, gw.queries);
    rep.set(
        "serve.batch_ns_per_query",
        per(gw.batch_ns, gw.batched_queries),
    );
    rep.set("serve.mean_batch_size", per(gw.batched_queries, gw.batches));
    rep.set(
        "serve.gateway_added_us",
        median(&s.light_us) - shard_ns / 1e3,
    );
    rep.set(
        "serve.cache_hit_rate",
        per(gw.cache_hits, gw.cache_hits + gw.cache_misses),
    );
    rep.set("serve.route_ns_per_query", per(gw.route_ns, gw.queries));
    rep.set(
        "serve.lookup_ns_per_query",
        per(gw.lookup_ns, gw.batched_queries),
    );
    rep.set(
        "serve.walk_ns_per_query",
        per(gw.walk_ns, gw.batched_queries),
    );
    rep.set("serve.query_p99_us", percentile(&s.loaded_us, 0.99));
    rep.set("serve.qps_8conn", median(&s.loaded_qps));
    rep.set("serve.qps_1conn", median(&s.light_qps));
    rep.set("serve.p50_1conn_us", median(&s.light_us));
    rep.set("serve.p99_1conn_us", percentile(&s.light_us, 0.99));

    let apply_ms = median(&s.updates.apply_ms);
    rep.set("dynamic.apply_batch_ms", apply_ms);
    rep.set("dynamic.solve_us", (apply_ms * 1e3 - patch_us).max(0.0));
    rep.set(
        "dynamic.recomputed_fraction",
        median(&s.updates.recomputed_fraction),
    );
    rep.set("dynamic.push_ms", median(&s.updates.push_ms));
    rep.set(
        "dynamic.push_bytes",
        layers::push_bytes(&updates.last) as f64,
    );
    rep.set("dynamic.probe_us", median(&s.updates.probe_us));
    rep.set(
        "dynamic.update_visible_p90_ms",
        percentile(&s.updates.visible_ms, 0.90),
    );
    rep.set("dynamic.swap_query_p50_us", median(&s.updates.reader_us));
    rep.set(
        "dynamic.swap_query_p99_us",
        percentile(&s.updates.reader_us, 0.99),
    );
    rep.set("dynamic.swaps_rejected", s.updates.rejected as f64);

    probes(
        args,
        tr,
        rep,
        &inp,
        &probe_tables,
        &updates.batches,
        (median(&solve), median(&s.updates.apply_ms)),
        &mut counts,
    );
    check_counts(rep, args, &counts);
    if !args.smoke {
        predictions(rep, w);
    }
    Ok(())
}

/// Which layer does the work on which workload was written down before
/// measuring (`README.md`), for the full-size graphs; say whether this
/// run shows it. A prediction
/// that stops holding after a change is a finding for that change's
/// review, not a failed operation.
fn predictions(rep: &Report, w: &Workload) {
    let v = |name: &str| rep.values.get(name).copied().unwrap_or(0.0);
    let over_tcp = matches!(w.solver, Solver::Alg1(Backend::TcpSharded(_)));
    let cached = matches!(w.mix, Mix::Zipf { .. });
    let push_heavy = w.solver == Solver::Oracle;
    let lines = [
        (
            format!(
                "transport.share_of_solve = {:.3}",
                v("transport.share_of_solve")
            ),
            if over_tcp { ">= 0.5" } else { "= 0" },
            if over_tcp {
                v("transport.share_of_solve") >= 0.5
            } else {
                v("transport.share_of_solve") == 0.0
            },
        ),
        (
            format!("serve.cache_hit_rate = {:.3}", v("serve.cache_hit_rate")),
            if cached { ">= 0.5" } else { "<= 0.1" },
            if cached {
                v("serve.cache_hit_rate") >= 0.5
            } else {
                v("serve.cache_hit_rate") <= 0.1
            },
        ),
        (
            format!(
                "dynamic.push_ms {:.3} vs dynamic.apply_batch_ms {:.3}",
                v("dynamic.push_ms"),
                v("dynamic.apply_batch_ms")
            ),
            if push_heavy {
                "push above apply"
            } else {
                "apply above push"
            },
            (v("dynamic.push_ms") > v("dynamic.apply_batch_ms")) == push_heavy,
        ),
    ];
    for (what, predicted, holds) in lines {
        let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
        eprintln!("{}: prediction {predicted}: {what}: {verdict}", w.name);
    }
}

/// The baselines and probes of the traced pass: everything that is not a
/// span of the pipeline itself.
#[allow(clippy::too_many_arguments)]
fn probes(
    args: &Args,
    tr: &mut Tracer,
    rep: &mut Report,
    inp: &Inputs,
    tables: &Tables,
    batches: &[layers::Batch],
    (solve_s, apply_ms): (f64, f64),
    counts: &mut Vec<(&'static str, u64)>,
) {
    let w = &args.workload;
    let g = &inp.graph;

    // serve: the shard's work with no socket in the way
    let (_, split_s) = tr.time("serve.shard_split", || {
        layers::shard_split(tables, SERVE_SHARDS)
    });
    rep.set("serve.shard_split_s", split_s);
    let mut rng = loadgen::stream(args.seed, 200, 0);
    let pairs: Vec<(NodeId, NodeId)> = (0..20_000)
        .map(|_| {
            (
                inp.sources[rng.gen_range(0..inp.sources.len())],
                rng.gen_range(0..inp.n as NodeId),
            )
        })
        .collect();
    let mut hops = 0usize;
    let mut paths = 0usize;
    for (name, want_path) in [
        ("serve.answer_dist_ns", false),
        ("serve.answer_path_ns", true),
    ] {
        let ((), s) = tr.time("serve.answer_loop", || {
            for &(src, dst) in &pairs {
                let (a, h) =
                    std::hint::black_box(layers::answer_direct(tables, src, dst, want_path));
                if let Answer::Path(..) = a {
                    hops += h;
                    paths += 1;
                }
            }
        });
        rep.set(name, s * 1e9 / pairs.len() as f64);
    }
    rep.set(
        "serve.mean_path_hops",
        if paths == 0 {
            0.0
        } else {
            hops as f64 / paths as f64
        },
    );

    // dynamic: what a batch would cost from scratch, on the patched graph
    let mut patched = layers::clone_graph(g);
    for b in batches {
        let _ = layers::patch_graph(&mut patched, b);
    }
    let by_alg1 = w.recompute == layers::Recompute::Alg1;
    let patched_delta = if by_alg1 {
        let runs = layers::oracle_runs(&patched, &inp.sources);
        Oracle::new(&inp.sources, runs).max_finite().max(1)
    } else {
        0
    };
    let ((), full_s) = tr.time("dynamic.full_recompute", || {
        if by_alg1 {
            let _ = layers::solve(&patched, &inp.sources, patched_delta, Backend::Sim, false);
        } else {
            let _ = layers::oracle_runs(&patched, &inp.sources);
        }
    });
    rep.set("dynamic.full_recompute_ms", full_s * 1e3);
    rep.set(
        "dynamic.speedup_vs_full",
        if apply_ms > 0.0 {
            full_s * 1e3 / apply_ms
        } else {
            0.0
        },
    );

    // Everything below needs the compute plane.
    let Solver::Alg1(backend) = w.solver else {
        for m in crate::metrics::PER_LAYER {
            let layer = m.name.split('.').next().unwrap_or("");
            if ["congest", "pipeline", "transport", "blocker", "obs"].contains(&layer) {
                rep.set(m.name, 0.0);
            }
        }
        return;
    };

    // congest: the bare engine on the same instance, with its slab gauges
    let (engine, engine_s) = tr.time("congest.engine_run", || {
        layers::engine_run(g, &inp.sources, inp.delta)
    });
    counts.extend([
        ("congest.slab_peak", engine.slab_peak),
        ("congest.slab_bytes", engine.slab_bytes),
    ]);
    rep.set("congest.rounds", engine.rounds as f64);
    rep.set("congest.rounds_executed", engine.rounds_executed as f64);
    rep.set("congest.messages", engine.messages as f64);
    rep.set("congest.max_link_load", engine.max_link_load as f64);
    rep.set("congest.slab_peak", engine.slab_peak as f64);
    rep.set("congest.slab_bytes", engine.slab_bytes as f64);
    rep.set(
        "congest.ns_per_message",
        engine_s * 1e9 / engine.messages.max(1) as f64,
    );
    rep.set(
        "congest.us_per_executed_round",
        engine_s * 1e6 / engine.rounds_executed.max(1) as f64,
    );
    let bound = layers::round_bound(g, &inp.sources, inp.delta);
    rep.set(
        "pipeline.round_bound_ratio",
        engine.rounds as f64 / bound.max(1) as f64,
    );
    if engine.rounds > bound {
        rep.fail(format!(
            "{} rounds exceed Theorem I.1's bound {bound}",
            engine.rounds
        ));
    }

    // Probe sizes aim at about a million messages and a few thousand
    // rounds whatever the graph.
    let dense_rounds = (1_000_000 / (2 * layers::graph_m(g)).max(1)).clamp(4, 400) as u64;
    let (dense, dense_s) = tr.time("congest.probe_dense", || {
        layers::probe_dense(g, dense_rounds)
    });
    rep.set(
        "congest.probe_dense_ns_per_msg",
        dense_s * 1e9 / dense.messages.max(1) as f64,
    );
    let (relay, relay_s) = tr.time("congest.probe_relay", || layers::probe_relay(g, 4000));
    rep.set(
        "congest.probe_idle_us_per_round",
        relay_s * 1e6 / relay.rounds_executed.max(1) as f64,
    );

    // pipeline, obs: the plain simulator baseline and the same run observed
    let mut failed_runs = 0u64;
    let mut baseline = |tr: &mut Tracer, rep: &mut Report, name: &'static str, b, observed| {
        let (run, s) = tr.time(name, || {
            layers::solve(g, &inp.sources, inp.delta, b, observed)
        });
        failed_runs += u64::from(run.is_err());
        rep.attempt(
            name,
            run.and_then(|solved| {
                // Distances and counts must be the simulator's, bit for bit.
                verify::check_rows(&inp.oracle, layers::solution_rows(&solved.result))?;
                let same = solved.stats.rounds == engine.rounds
                    && solved.stats.messages == engine.messages
                    && solved.stats.max_link_load == engine.max_link_load;
                same.then_some(())
                    .ok_or("RunStats differ from the simulator's".to_string())
            }),
        );
        s
    };
    // The plain and the observed run alternate, so that a slow stretch of
    // the machine falls on both.
    let mut plain = Vec::new();
    let mut observed = Vec::new();
    for _ in 0..2 {
        plain.push(baseline(tr, rep, "pipeline.solve_sim", Backend::Sim, false));
        observed.push(baseline(tr, rep, "obs.solve_observed", Backend::Sim, true));
    }
    let sim_s = median(&plain);
    rep.set("pipeline.solve_sim_s", sim_s);
    rep.set(
        "obs.recorder_overhead_share",
        if sim_s > 0.0 {
            median(&observed) / sim_s - 1.0
        } else {
            0.0
        },
    );

    // transport: only where the workload's solve crosses it
    let shards = match backend {
        Backend::TcpSharded(p) | Backend::ThreadsSharded(p) => Some(p),
        Backend::Sim => None,
    };
    let (threads_s, tcp_s) = match shards {
        Some(p) => {
            let b = Backend::ThreadsSharded(p);
            let runs = [(); 2].map(|()| baseline(tr, rep, "transport.solve_threads", b, false));
            (median(&runs), solve_s)
        }
        None => (0.0, 0.0),
    };
    let gap = |s: f64| {
        if shards.is_some() && sim_s > 0.0 {
            s / sim_s
        } else {
            0.0
        }
    };
    let per_round = |s: f64| {
        if shards.is_some() {
            (s - sim_s) * 1e6 / engine.rounds_executed.max(1) as f64
        } else {
            0.0
        }
    };
    rep.set("transport.solve_threads_s", threads_s);
    rep.set("transport.solve_tcp_s", tcp_s);
    rep.set("transport.sim_gap_threads", gap(threads_s));
    rep.set("transport.sim_gap_tcp", gap(tcp_s));
    rep.set(
        "transport.overhead_us_per_round_threads",
        per_round(threads_s),
    );
    rep.set("transport.overhead_us_per_round_tcp", per_round(tcp_s));
    rep.set(
        "transport.share_of_solve",
        if shards.is_some() && solve_s > 0.0 {
            (solve_s - sim_s) / solve_s
        } else {
            0.0
        },
    );
    rep.set("transport.failed_runs", failed_runs as f64);

    // pipeline: the dirty-row re-solve alone, on the first batches
    let mut incremental_us = Vec::new();
    if w.recompute == layers::Recompute::Alg1 {
        if let Ok(old) = layers::solve(g, &inp.sources, inp.delta, Backend::Sim, false) {
            let mut patched = layers::clone_graph(g);
            if let Some(Ok(changes)) = batches
                .first()
                .map(|b| layers::patch_graph(&mut patched, b))
            {
                for _ in 0..2 {
                    let (_, s) = tr.time("pipeline.incremental_solve", || {
                        layers::incremental_solve(&patched, &old.result, &changes)
                    });
                    incremental_us.push(s * 1e6);
                }
            }
        }
    }
    rep.set("pipeline.incremental_solve_us", median(&incremental_us));

    // blocker: Algorithm 3 on the APSP graph
    if w.alg3_h > 0 {
        let (out, s) = tr.time("blocker.alg3", || layers::alg3(g, w.alg3_h, inp.delta));
        rep.attempt("alg3", verify::check_rows(&inp.oracle, &out.rows));
        counts.extend([
            ("blocker.alg3_rounds", out.rounds),
            ("blocker.q_size", out.blockers as u64),
        ]);
        rep.set("blocker.alg3_s", s);
        rep.set("blocker.alg3_rounds", out.rounds as f64);
        rep.set("blocker.q_size", out.blockers as f64);
    } else {
        rep.set("blocker.alg3_s", 0.0);
        rep.set("blocker.alg3_rounds", 0.0);
        rep.set("blocker.q_size", 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_stretch_of_the_host_does_not_move_the_first_quartile() {
        let calm = [1.0, 1.2, 1.1, 1.3, 1.4, 1.25, 1.15, 1.05];
        let mut stalled = calm;
        stalled[3] = 40.0;
        stalled[4] = 90.0;
        assert_eq!(quiet(&calm), 1.05);
        assert_eq!(quiet(&stalled), 1.05);
        // 96 batches: the 24th fastest.
        let batches: Vec<f64> = (1..=96).rev().map(f64::from).collect();
        assert_eq!(quiet(&batches), 24.0);
        // A smoke run has two cycles: the faster one.
        assert_eq!(quiet(&[2.0, 1.5]), 1.5);
        assert_eq!(quiet(&[]), 0.0);
    }
}
