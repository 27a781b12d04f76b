//! The README's multi-process quickstart, as a test: one `dwapsp
//! coordinator` process plus one `dwapsp run-node` process per graph
//! node (no `--shards`: one node per worker), every process handed the
//! same graph file and the same address book, on loopback. The
//! `dist s -> v` lines the node processes print must equal the matrix
//! `dwapsp run --runtime sim` prints, and every process must exit 0 —
//! for APSP, and for a k-source instance (`--sources`, where every
//! process sizes Δ from those sources alone). Also the table files of
//! the "Dynamic graphs" walkthrough: `tables` and `update` write one set
//! of bytes whichever solver is behind them.

use dwapsp::graph::gen::{self, WeightDist};
use dwapsp::graph::io::to_json;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::process::{Child, Command, Output, Stdio};
use std::sync::Mutex;

const DWAPSP: &str = env!("CARGO_BIN_EXE_dwapsp");

/// One deployment at a time: a port is only reserved until its listener
/// is released for the child process to bind, and a concurrent test's
/// `bind(":0")` could be handed it in that window.
static DEPLOYING: Mutex<()> = Mutex::new(());

fn spawn(args: &[&str]) -> Child {
    Command::new(DWAPSP)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dwapsp")
}

fn finish(what: &str, child: Child) -> String {
    let Output {
        status,
        stdout,
        stderr,
    } = child.wait_with_output().expect("wait for dwapsp");
    assert!(
        status.success(),
        "{what} exited {status}: {}",
        String::from_utf8_lossy(&stderr)
    );
    String::from_utf8(stdout).expect("utf-8 stdout")
}

/// Deploy Algorithm 1 for `sources` (`None`: all nodes) as n + 1
/// processes and hold the printed distances to the simulator's.
fn deploy_and_compare(sources: Option<&str>) {
    let _one_at_a_time = DEPLOYING.lock().unwrap_or_else(|e| e.into_inner());
    let flags: Vec<&str> = sources.map_or(vec![], |s| vec!["--sources", s]);
    let n = 5usize;
    // A path plus chords: connected, but not every pair adjacent, so
    // the shared address book lists peers a node must not dial.
    let g = gen::gnp_connected(n, 0.3, false, WeightDist::Uniform { max: 7 }, 23);
    assert!(
        (0..n as u32).any(|v| g.comm_neighbors(v).len() < n - 1),
        "fixture must not be a complete graph"
    );
    let graph = format!(
        "{}/cli_quickstart_{}.json",
        env!("CARGO_TARGET_TMPDIR"),
        sources.map_or("apsp".to_string(), |s| s.replace(',', "_"))
    );
    std::fs::write(&graph, to_json(&g)).expect("write graph file");

    // Reserve n + 1 loopback ports: bind, note the address, release.
    let addrs: Vec<String> = (0..=n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect::<Vec<_>>()
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let (coord_addr, node_addrs) = addrs.split_last().expect("n + 1 addresses");
    let peers = node_addrs
        .iter()
        .enumerate()
        .map(|(v, a)| format!("{v}={a}"))
        .collect::<Vec<_>>()
        .join(",");

    let with_flags = |args: &[&str]| spawn(&[args, &flags].concat());
    let coordinator = with_flags(&["coordinator", "--graph", &graph, "--listen", coord_addr]);
    let nodes: Vec<Child> = node_addrs
        .iter()
        .enumerate()
        .map(|(v, addr)| {
            with_flags(&[
                "run-node",
                "--graph",
                &graph,
                "--node-id",
                &v.to_string(),
                "--listen",
                addr,
                "--peers",
                &peers,
                "--coordinator",
                coord_addr,
                "--timeout-secs",
                "20",
            ])
        })
        .collect();

    // (source, node) -> printed distance ("inf" or a number).
    let mut got: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for (v, child) in nodes.into_iter().enumerate() {
        for line in finish(&format!("run-node {v}"), child).lines() {
            let Some(rest) = line.strip_prefix("dist ") else {
                continue;
            };
            let (pair, dist) = rest.split_once(": ").expect("dist line has a value");
            let (s, to) = pair.split_once(" -> ").expect("dist line names a pair");
            assert_eq!(to, v.to_string(), "node {v} reports its own column");
            let dist = dist.split(' ').next().expect("distance token");
            got.insert((s.parse().expect("source id"), v as u32), dist.to_string());
        }
    }
    let coord_out = finish("coordinator", coordinator);
    assert!(
        coord_out.contains("outcome=Quiet"),
        "coordinator: {coord_out}"
    );

    let sim = finish(
        "run --runtime sim",
        with_flags(&[
            "run",
            "--graph",
            &graph,
            "--algo",
            "alg1",
            "--runtime",
            "sim",
        ]),
    );
    let mut want: BTreeMap<(u32, u32), String> = BTreeMap::new();
    for line in sim.lines() {
        let Some((s, row)) = line.split_once(": ") else {
            continue;
        };
        let Ok(s) = s.parse::<u32>() else {
            continue; // the stats line
        };
        for (v, d) in row.split(' ').enumerate() {
            want.insert((s, v as u32), d.to_string());
        }
    }
    let k = sources.map_or(n, |s| s.split(',').count());
    assert_eq!(want.len(), k * n, "sim printed the full matrix: {sim}");
    assert_eq!(got, want);
}

#[test]
fn one_process_per_node_matches_the_simulator() {
    deploy_and_compare(None);
}

#[test]
fn k_source_deployment_matches_the_simulator() {
    deploy_and_compare(Some("0,3"));
}

/// Run `dwapsp` to completion and return what it wrote to `out`.
fn run_for_file(what: &str, args: &[&str], out: &str) -> Vec<u8> {
    finish(what, spawn(args));
    std::fs::read(out).expect("dwapsp wrote its output file")
}

/// One tree order, so one table file: the sequential `--oracle` path
/// and Algorithm 1 write the same bytes, and `dwapsp update` on either
/// writes the tables `dwapsp tables` writes for the patched graph. The
/// stray `--engine oracle` is what a script from before the flag went
/// would still pass; unknown flags are ignored.
#[test]
fn tables_are_byte_equal_whoever_wrote_them_and_update_keeps_them_so() {
    use dwapsp::serve::VersionedTables;
    let g = gen::zero_heavy(20, 0.15, 0.5, 6, true, 5);
    let (u, v, _) = g
        .edges()
        .next()
        .map(|e| (e.src, e.dst, e.w))
        .expect("an edge");
    let file = |name: &str| format!("{}/cli_tables_{name}", env!("CARGO_TARGET_TMPDIR"));
    let (graph, updates, patched) = (file("g.json"), file("updates.txt"), file("g2.json"));
    std::fs::write(&graph, to_json(&g)).expect("write graph file");
    std::fs::write(
        &updates,
        format!("set {u} {v} 9\nins 19 0 0\ndel {v} {u}\n"),
    )
    .expect("write update file");

    let tables = |how: &[&str], graph: &str, out: &str| {
        let args = [&["tables", "--graph", graph, "--out", out], how].concat();
        run_for_file("tables", &args, out)
    };
    let (a, b) = (file("oracle.tables"), file("sim.tables"));
    assert_eq!(
        tables(&["--oracle"], &graph, &a),
        tables(&["--runtime", "sim"], &graph, &b)
    );

    let update = |tables: &str, out: &str| {
        let args = [
            &["update", "--graph", &graph, "--tables", tables][..],
            &["--updates", &updates, "--engine", "oracle"],
            &["--out-tables", out, "--out-graph", &patched],
        ]
        .concat();
        run_for_file("update", &args, out)
    };
    let (a2, b2) = (
        update(&a, &file("oracle.gen1")),
        update(&b, &file("sim.gen1")),
    );
    assert_eq!(a2, b2);
    let cold = tables(&["--oracle"], &patched, &file("patched.tables"));
    let decode = |bytes: &[u8]| VersionedTables::from_any_file_bytes(bytes).expect("a table file");
    assert_eq!(decode(&a2).generation, 1);
    assert_eq!(decode(&a2).snap, decode(&cold).snap);
}

/// `dwapsp chaos` refuses link rules whose window is empty — a one-way
/// loss that ends where it starts, a partition that heals at or before
/// it starts — with exit 2 and a message naming the entry, before any
/// run starts.
#[test]
fn chaos_rejects_empty_link_fault_windows() {
    let g = gen::path(6, false, WeightDist::Constant(1), 3);
    let graph = format!("{}/cli_chaos_g.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&graph, to_json(&g)).expect("write graph file");
    for (flag, entry) in [
        ("--asym-loss", "3-4@5:5"),
        ("--asym-loss", "3-4@5:2"),
        ("--partition", "0.1.2@4:4"),
        ("--partition", "0.1.2@4:1"),
    ] {
        let out = spawn(&["chaos", "--graph", &graph, flag, entry])
            .wait_with_output()
            .expect("wait for dwapsp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {entry}: {stderr}");
        assert!(stderr.contains(entry), "{flag} {entry}: {stderr}");
    }
}
