//! Every workload runs in a child process of its own, under a watchdog.
//!
//! The child is this executable again (`child ...`). It gets a fresh
//! address space, so `peak_rss_mib` is the workload's alone, and it can
//! be killed: `ServeClient::query` has no read timeout and
//! `Gateway::shutdown` joins on live connections, so a fault in the
//! serving plane shows up as a hang, not as an error. The child
//! announces each stage with the time the stage may take; when a stage
//! outlives that, the watchdog kills the child and the run counts one
//! failed operation.
//!
//! Lines on the child's standard output:
//!
//! ```text
//! stage <name> <seconds>      a stage starts; it may take this long
//! metric <name> <value>       one result
//! done <attempted> <failed>   the run finished and counted its operations
//! ```

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What came back from one child.
#[derive(Debug, Default)]
pub struct ChildRun {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The child printed `done` and exited with code 0.
    pub finished: bool,
    /// The stage that was running when the watchdog killed the child.
    pub hung_in: Option<String>,
}

enum Line {
    Stage(String, u64),
    Metric(String, f64),
    Done(u64, u64),
}

fn parse(line: &str) -> Option<Line> {
    let mut words = line.split_whitespace();
    match words.next()? {
        "stage" => Some(Line::Stage(
            words.next()?.to_string(),
            words.next()?.parse().ok()?,
        )),
        "metric" => Some(Line::Metric(
            words.next()?.to_string(),
            words.next()?.parse().ok()?,
        )),
        "done" => Some(Line::Done(
            words.next()?.parse().ok()?,
            words.next()?.parse().ok()?,
        )),
        _ => None,
    }
}

/// Run `child <args>` to completion or until `overall` is spent.
pub fn run_child(args: &[String], overall: Duration) -> ChildRun {
    let mut out = ChildRun::default();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            out.failed = 1;
            return out;
        }
    };
    let mut child = match Command::new(exe)
        .arg("child")
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot start the workload process: {e}");
            out.failed = 1;
            return out;
        }
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let end = Instant::now() + overall;
    let mut stage = ("start".to_string(), end);
    let mut done = false;
    loop {
        let deadline = stage.1.min(end);
        let wait = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(line) => match parse(&line) {
                Some(Line::Stage(name, secs)) => {
                    stage = (name, Instant::now() + Duration::from_secs(secs));
                }
                Some(Line::Metric(name, value)) => out.metrics.push((name, value)),
                Some(Line::Done(attempted, failed)) => {
                    out.attempted = attempted;
                    out.failed = failed;
                    done = true;
                }
                None => eprintln!("{line}"),
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!(
                    "stage {} outlived its deadline; killing the workload process",
                    stage.0
                );
                let _ = child.kill();
                out.hung_in = Some(stage.0.clone());
                break;
            }
            // The child closed its standard output: it has ended.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait();
    let _ = reader.join();
    let exited_ok = matches!(status, Ok(s) if s.success());
    out.finished = done && exited_ok && out.hung_in.is_none();
    if !out.finished {
        // A hang, a crash or a kill is one operation that failed.
        out.attempted += 1;
        out.failed += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_lines_parse() {
        assert!(matches!(parse("stage cold 80"), Some(Line::Stage(n, 80)) if n == "cold"));
        assert!(
            matches!(parse("metric solve_s 0.25"), Some(Line::Metric(n, v)) if n == "solve_s" && v == 0.25)
        );
        assert!(matches!(parse("done 10 0"), Some(Line::Done(10, 0))));
        assert!(parse("stage cold").is_none());
        assert!(parse("metric x y").is_none());
        assert!(parse("anything else").is_none());
        assert!(parse("").is_none());
    }
}
