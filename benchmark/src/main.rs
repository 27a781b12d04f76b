//! One believable pipeline benchmark: graph → solve → tables → serve →
//! update, on four workloads, with each layer timed from outside.
//!
//! ```text
//! dw-pipeline-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! dw-pipeline-bench all        [--workload NAME] [--seed N] [--seconds S] [--smoke]
//! dw-pipeline-bench calibrate  [--workload NAME] [--runs K] [--seed N] [--seconds S] [--smoke]
//! dw-pipeline-bench describe | glossary
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it prints one JSON
//! object as its last line. `all` runs every workload untraced and
//! traced and prints every metric with its unit; `calibrate` repeats the
//! untraced runs on consecutive seeds and prints the spread of each
//! metric beside its bound. All three exit nonzero when any operation
//! failed. See `README.md`.

mod layers;
mod loadgen;
mod metrics;
mod pins;
mod run;
mod stats;
mod trace;
mod verify;
mod watchdog;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A run must end within 180 s; the watchdog leaves room to report.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => f.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--runs" => f.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(f.seconds > 0.0 && f.seconds <= 120.0) {
        return Err(format!("--seconds {} is outside (0, 120]", f.seconds));
    }
    Ok(f)
}

/// `benchmark/out`, beside this package's manifest: `cargo run` exports
/// the manifest directory, and the compiled-in one covers a bare
/// executable.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// The workload process. Prints the watchdog's line protocol.
fn child(flags: &Flags) -> ExitCode {
    let Some(workload) = flags.workload.as_deref().and_then(workloads::by_name) else {
        eprintln!("unknown workload {:?}", flags.workload);
        return ExitCode::from(2);
    };
    let args = run::Args {
        workload: if flags.smoke {
            workload.smoke()
        } else {
            workload
        },
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        smoke: flags.smoke,
        out_dir: out_dir(),
    };
    let report = run::run(&args);
    for e in &report.errors {
        eprintln!("FAILED {e}");
    }
    for (name, value) in &report.values {
        println!("metric {name} {value}");
    }
    println!("done {} {}", report.attempted, report.failed);
    ExitCode::SUCCESS
}

fn child_args(workload: &str, flags: &Flags, seed: u64, trace: bool) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        flags.seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if flags.smoke {
        v.push("--smoke".to_string());
    }
    v
}

struct Outcome {
    /// `(name, value, unit)` in registry order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// One watched run of one workload, held to the registry: every metric
/// of the pass must be there and finite.
fn measure(workload: &str, flags: &Flags, seed: u64, trace: bool) -> Outcome {
    let ran = watchdog::run_child(&child_args(workload, flags, seed, trace), RUN_LIMIT);
    let wanted: Vec<(&'static str, &'static str)> = if trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let mut out = Outcome {
        metrics: Vec::new(),
        attempted: ran.attempted.max(1),
        failed: ran.failed,
        correct: ran.finished,
    };
    for (name, unit) in wanted {
        match ran.metrics.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) if v.is_finite() => out.metrics.push((name, v, unit)),
            _ => {
                if ran.finished {
                    eprintln!("{workload}: metric {name} is missing or not finite");
                }
                out.correct = false;
            }
        }
    }
    out.correct &= out.failed == 0;
    out
}

fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// The form `BENCHMARK.json` names: one workload, one JSON line.
fn driver(flags: &Flags) -> ExitCode {
    let Some(workload) = flags.workload.as_deref() else {
        eprintln!("--workload NAME is required; the workloads are:");
        for w in workloads::all() {
            eprintln!("  {}  {}", w.name, w.why);
        }
        return ExitCode::from(2);
    };
    if workloads::by_name(workload).is_none() {
        eprintln!("unknown workload {workload}");
        return ExitCode::from(2);
    }
    let outcome = measure(workload, flags, flags.seed, flags.trace);
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workloads `all` and `calibrate` cover: every one, or the one
/// `--workload` names.
fn selected(flags: &Flags) -> Vec<workloads::Workload> {
    workloads::all()
        .into_iter()
        .filter(|w| flags.workload.as_deref().is_none_or(|name| name == w.name))
        .collect()
}

/// Every workload, untraced then traced, every metric with its unit.
fn all(flags: &Flags) -> ExitCode {
    let mut ok = true;
    for w in selected(flags) {
        for trace in [false, true] {
            let o = measure(w.name, flags, flags.seed, trace);
            let pass = if trace { "traced" } else { "untraced" };
            println!(
                "\n== {} ({pass}, seed {}): {} operations, {} failed{}",
                w.name,
                flags.seed,
                o.attempted,
                o.failed,
                if o.correct { "" } else { "  ** NOT CORRECT **" }
            );
            for (name, value, unit) in &o.metrics {
                println!("{name:<42} {value:>16.6} {unit}");
            }
            ok &= o.correct;
        }
    }
    println!(
        "\n{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// What the numbers were taken on, written next to them: a run on
/// another fingerprint is not comparable.
fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let model = read_trimmed("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".into());
    let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(|| "unreadable".into());
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{model}\", \"governor\": \"{governor}\", \
         \"kernel\": \"{kernel}\"}}"
    )
}

/// Repeat the untraced runs on consecutive seeds, as the acceptance
/// check does, and print each metric's spread beside its bound.
fn calibrate(flags: &Flags) -> ExitCode {
    if flags.runs < 5 {
        eprintln!("--runs must be at least 5");
        return ExitCode::from(2);
    }
    let mut ok = true;
    let mut json = format!(
        "{{\"fingerprint\": {}, \"runs\": {}, \"seconds\": {}, \"first_seed\": {}, \"workloads\": {{",
        fingerprint_json(),
        flags.runs,
        flags.seconds,
        flags.seed
    );
    println!("machine: {}", fingerprint_json());
    for (wi, w) in selected(flags).iter().enumerate() {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); metrics::END_TO_END.len()];
        for k in 0..flags.runs {
            let o = measure(w.name, flags, flags.seed + k as u64, false);
            ok &= o.correct;
            for (slot, m) in samples.iter_mut().zip(metrics::END_TO_END) {
                if let Some(&(_, v, _)) = o.metrics.iter().find(|(n, _, _)| *n == m.name) {
                    slot.push(v);
                }
            }
        }
        println!(
            "\n== {} ({} runs, seeds {}..)",
            w.name, flags.runs, flags.seed
        );
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  unit",
            "metric", "median", "q1", "q3", "spread", "mad/med", "bound"
        );
        let _ = write!(
            json,
            "{}\"{}\": {{",
            if wi == 0 { "" } else { ", " },
            w.name
        );
        for (mi, (m, s)) in metrics::END_TO_END.iter().zip(&samples).enumerate() {
            let med = stats::median(s);
            let (q1, q3) = stats::quartiles(s);
            let spread = stats::relative_spread(s);
            let mad = if med == 0.0 { 0.0 } else { stats::mad(s) / med };
            let verdict = if m.name == "setup_s" {
                "" // its spread is not held to the bound
            } else if spread * 3.0 <= m.bound {
                "steady"
            } else if spread <= m.bound {
                "within bound"
            } else {
                "** WIDER THAN ITS BOUND **"
            };
            println!(
                "{:<24} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>6.2}  {} {verdict}",
                m.name, med, q1, q3, spread, mad, m.bound, m.unit
            );
            let _ = write!(
                json,
                "{}\"{}\": {{\"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}, \
                 \"unit\": \"{}\", \"values\": {s:?}}}",
                if mi == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        json.push('}');
    }
    json.push_str("}}\n");
    let path = out_dir().join("calibration.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("child" | "all" | "calibrate" | "describe" | "glossary")) => (m, &args[1..]),
        _ => ("driver", &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "child" => child(&flags),
        "all" => all(&flags),
        "calibrate" => calibrate(&flags),
        "describe" => {
            print!("{}", metrics::benchmark_json());
            ExitCode::SUCCESS
        }
        "glossary" => {
            print!("{}", metrics::glossary_markdown());
            ExitCode::SUCCESS
        }
        _ => driver(&flags),
    }
}
