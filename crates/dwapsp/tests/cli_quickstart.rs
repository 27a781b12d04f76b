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
/// writes the tables `dwapsp tables` writes for the patched graph.
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
            &["--updates", &updates],
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

/// `dwapsp … | head -c 50`: a reader that hangs up early ends the
/// process quietly, status 0 and no panic. Each case writes far more
/// than a 64 KiB pipe buffer plus both ends' 8 KiB buffers, so the
/// write that fails is certain, not a race.
fn a_closed_stdout_ends_quietly(argv: &[&str]) {
    use std::io::Read;
    let mut child = spawn(argv);
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 50];
    stdout
        .read_exact(&mut head)
        .expect("read the first 50 bytes");
    drop(stdout);
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("read stderr");
    let status = child.wait().expect("wait for dwapsp");
    assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    assert_eq!(status.code(), Some(0), "{argv:?}: {stderr}");
}

/// `run`'s matrix (160 rows of 160 distances, most of them ten digits:
/// about 270 KB) and `gen`'s JSON for a 200 000-node grid (about 13 MB
/// on one line).
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let g = gen::path(160, false, WeightDist::Constant(10_000_000), 3);
    let graph = format!("{}/cli_closed_stdout_g.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&graph, to_json(&g)).expect("write graph file");
    a_closed_stdout_ends_quietly(&["run", "--graph", &graph, "--algo", "alg1"]);
    a_closed_stdout_ends_quietly(&["gen", "--family", "grid2d", "--n", "200000"]);
}

/// A graph file whose edge names a node `>= n` is refused with exit 1
/// and a parse error, not a panic.
#[test]
fn out_of_range_graph_file_is_a_parse_error() {
    let graph = format!("{}/cli_out_of_range.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &graph,
        r#"{"n":2,"directed":true,"edges":[{"src":5,"dst":0,"w":1}]}"#,
    )
    .expect("write graph file");
    let out = spawn(&["info", "--graph", &graph])
        .wait_with_output()
        .expect("wait for dwapsp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot parse"), "{stderr}");
}

/// An output file that cannot be written (its directory does not
/// exist) is refused with exit 1 and a message naming it, not a panic.
#[test]
fn an_unwritable_output_file_is_an_error_not_a_panic() {
    let path = format!("{}/no/such/dir/g.json", env!("CARGO_TARGET_TMPDIR"));
    let out = spawn(&["gen", "--n", "8", "--out", &path])
        .wait_with_output()
        .expect("wait for dwapsp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("cannot write {path}")), "{stderr}");
}

/// The command line is read strictly against the subcommand's flags. A
/// malformed or out-of-range number, an unknown flag (a typo, or
/// `--engine`, which no longer exists), a valued flag with no value: each
/// is a usage error, exit 2 and a message naming the flag, never a panic
/// and never a run that ignores it. A switch works wherever it stands.
#[test]
fn the_command_line_is_read_strictly() {
    let g = gen::path(4, false, WeightDist::Constant(1), 3);
    let graph = format!("{}/cli_numbers_g.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&graph, to_json(&g)).expect("write graph file");
    let gateway = ["query", "--gateway", "127.0.0.1:9"];
    let update = [
        "update",
        "--graph",
        &graph,
        "--tables",
        "t",
        "--updates",
        "u",
    ];
    for (args, code, says) in [
        (
            &["gen", "--n", "abc"][..],
            2,
            "invalid value for --n: 'abc'",
        ),
        (
            &["run", "--graph", &graph, "--algo", "alg1", "--delta", "-1"],
            2,
            "invalid value for --delta: '-1'",
        ),
        (
            &["run", "--graph", &graph, "--algo", "approx", "--eps", "1/x"],
            2,
            "invalid value for --eps: 'x'",
        ),
        (
            &[&gateway[..], &["--src", "0", "--dst", "1e3"]].concat(),
            2,
            "invalid value for --dst: '1e3'",
        ),
        (
            &[
                "run",
                "--graph",
                &graph,
                "--algo",
                "alg1",
                "--sources",
                "0,9",
            ],
            2,
            "--sources: node 9 out of range",
        ),
        (
            &["run", "--graph", &graph, "--source", "3"],
            2,
            "unknown flag --source\n",
        ),
        (
            &["run-node", "--maelstrom"],
            2,
            "unknown flag --maelstrom\n",
        ),
        (
            &[&gateway[..], &["--src"]].concat(),
            2,
            "--src needs a value",
        ),
        (
            &[&update[..], &["--engine", "oracle"]].concat(),
            2,
            "unknown flag --engine\n",
        ),
        (
            &[
                "solve",
                "--graph",
                &graph,
                "--algo",
                "alg1",
                "--print-matrix",
            ],
            0,
            "\n0: 0 1 2 3\n",
        ),
    ] {
        let out = spawn(args).wait_with_output().expect("wait for dwapsp");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let said = if code == 0 { &stdout } else { &stderr };
        assert!(said.contains(says), "{args:?}: {said}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
