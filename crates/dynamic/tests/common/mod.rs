//! What the live-deployment tests share: a hammer that queries a gateway
//! for the whole run, and the sweep that ends a run.
//!
//! The hammer asks its probe pairs round robin on one connection. Each
//! probe has a validity set: the answers of every generation installed
//! so far, plus `None` (its shard is unavailable) once a test allows
//! that. An answer outside the set fails the test. A swap's repair can
//! take less time than one query, so "the hammer runs throughout" is
//! made true by waiting for it ([`Hammer::let_run`]) before each swap
//! and before stopping, not by a query floor at the end.

use dw_graph::{NodeId, WGraph, INFINITY};
use dw_seqref::dijkstra;
use dw_serve::{QueryOutcome, ServeClient, TableSnapshot};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queries the hammer must land between two waits.
const QUERIES_PER_WAIT: u64 = 50;
/// How long a wait may take before the hammer counts as stalled.
const STALLED: Duration = Duration::from_secs(30);

/// The answer `snap` gives for `(src, dst)`.
pub fn answer(snap: &TableSnapshot, (src, dst): (NodeId, NodeId)) -> u64 {
    snap.table_for(src)
        .map_or(INFINITY, |t| t.dist[dst as usize])
}

/// A thread querying the probe pairs through a gateway until stopped.
pub struct Hammer {
    probes: Vec<(NodeId, NodeId)>,
    valid: Arc<Vec<Mutex<HashSet<Option<u64>>>>>,
    landed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Duration>>,
}

impl Hammer {
    /// Start hammering `gateway` with `probes`, each valid with its
    /// answer in `snap`.
    pub fn start(gateway: SocketAddr, probes: Vec<(NodeId, NodeId)>, snap: &TableSnapshot) -> Self {
        let valid: Vec<_> = probes
            .iter()
            .map(|&p| Mutex::new(HashSet::from([Some(answer(snap, p))])))
            .collect();
        let (valid, landed) = (Arc::new(valid), Arc::new(AtomicU64::new(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (probes, valid) = (probes.clone(), Arc::clone(&valid));
            let (landed, stop) = (Arc::clone(&landed), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(gateway, Duration::from_secs(5)).unwrap();
                let mut slowest = Duration::ZERO;
                for i in (0..probes.len()).cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let (src, dst) = probes[i];
                    let asked = Instant::now();
                    let outcome = client.query(src, dst, false).unwrap();
                    slowest = slowest.max(asked.elapsed());
                    let got = match outcome {
                        QueryOutcome::ShardUnavailable { .. } => None,
                        typed => Some(typed.distance().expect("a typed answer")),
                    };
                    assert!(
                        valid[i].lock().unwrap().contains(&got),
                        "probe {src}->{dst} answered {got:?}: no installed generation had that"
                    );
                    landed.fetch_add(1, Ordering::Relaxed);
                }
                slowest
            })
        };
        Hammer {
            probes,
            valid,
            landed,
            stop,
            thread: Some(thread),
        }
    }

    /// Make every probe's answer in `snap` valid: call it before the
    /// generation is pushed, since mid-swap a probe may see old or new.
    pub fn allow(&self, snap: &TableSnapshot) {
        for (&p, valid) in self.probes.iter().zip(self.valid.iter()) {
            valid.lock().unwrap().insert(Some(answer(snap, p)));
        }
    }

    /// From now on probe `i`'s shard may answer `ShardUnavailable`.
    #[allow(dead_code)] // live_updates kills no shard
    pub fn allow_down(&self, i: usize) {
        self.valid[i].lock().unwrap().insert(None);
    }

    /// Block until the hammer has landed [`QUERIES_PER_WAIT`] more
    /// queries; a failed hammer fails the caller here.
    pub fn let_run(&mut self) {
        let target = self.landed.load(Ordering::Relaxed) + QUERIES_PER_WAIT;
        let deadline = Instant::now() + STALLED;
        while self.landed.load(Ordering::Relaxed) < target {
            if self.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                self.join();
            }
            assert!(Instant::now() < deadline, "hammer stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Let the hammer run once more, stop it, and return how many
    /// queries it landed and its slowest query's latency.
    pub fn stop(mut self) -> (u64, Duration) {
        self.let_run();
        self.stop.store(true, Ordering::Relaxed);
        let slowest = self.join();
        (self.landed.load(Ordering::Relaxed), slowest)
    }

    fn join(&mut self) -> Duration {
        let thread = self.thread.take().expect("the hammer is joined once");
        thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Every pair from `sources` answers like Dijkstra on `g`.
pub fn assert_answers_like_dijkstra(
    client: &mut ServeClient,
    g: &WGraph,
    sources: impl IntoIterator<Item = NodeId>,
) {
    for src in sources {
        let oracle = dijkstra(g, src);
        for dst in g.nodes() {
            let got = client.query(src, dst, false).unwrap();
            let want = oracle.dist[dst as usize];
            assert_eq!(got.distance(), Some(want), "{src}->{dst}: {got:?}");
        }
    }
}
