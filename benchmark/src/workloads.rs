//! The four workloads. Each runs the same pipeline; they differ in which
//! layer does most of the work, so that a change to one layer has a
//! workload that exercises it and one that predicts no change.
//!
//! Sizes were chosen on a 2-core box so that one run ends inside
//! `--seconds` plus a few seconds and a cycle holds at least one cold rep;
//! `README.md` records the sizing runs.

use crate::layers::{Backend, Family, NodeId, Recompute, Weights};

/// How Algorithm 1's sources are chosen from `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sources {
    /// Every node: APSP.
    All,
    /// `k` sources `i * n / k`.
    Spread(usize),
    /// `k` sources `i * stride mod n`.
    Stride { k: usize, stride: usize },
}

impl Sources {
    pub fn pick(&self, n: usize) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = match *self {
            Sources::All => (0..n as NodeId).collect(),
            Sources::Spread(k) => (0..k).map(|i| (i * n / k) as NodeId).collect(),
            Sources::Stride { k, stride } => (0..k).map(|i| (i * stride % n) as NodeId).collect(),
        };
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Where the tables come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Algorithm 1 on the given backend, `Δ` from the oracle rows.
    Alg1(Backend),
    /// Sequential Dijkstra per source (`dwapsp tables --oracle`): the
    /// compute plane is bypassed.
    Oracle,
}

/// The query stream of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Source uniform over the table rows, destination uniform over
    /// `0..n`.
    Uniform { path_fraction: f64 },
    /// Pairs drawn by Zipf(`s`) rank from a seeded population of `pairs`
    /// pairs; half ask for the path.
    Zipf { s: f64, pairs: usize },
}

/// Shares of every cycle given to its three measured slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub cold: f64,
    pub query: f64,
    pub update: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub sources: Sources,
    pub solver: Solver,
    pub mix: Mix,
    pub update_batch: usize,
    /// Update batches in a run, at most. Every batch pushes a whole
    /// snapshot through two read loops that lose their place when a frame
    /// stalls for 50 ms (`README.md`, hazards), so a run pushes no more
    /// than its median needs.
    pub update_batches: usize,
    pub recompute: Recompute,
    pub shares: Shares,
    /// Hop parameter for the Algorithm 3 baseline; 0 where it is not run.
    pub alg3_h: u64,
}

/// Shard servers behind the gateway, on every workload.
pub const SERVE_SHARDS: usize = 2;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "apsp256_sim_uniform",
            why: "dense rounds on the simulator: dw-congest per-message cost and dw-pipeline list \
                  ops do the work, transport none; uniform pairs bypass the gateway cache",
            family: Family::ZeroHeavy { n: 256 },
            sources: Sources::All,
            solver: Solver::Alg1(Backend::Sim),
            mix: Mix::Uniform { path_fraction: 0.5 },
            update_batch: 16,
            update_batches: 32,
            recompute: Recompute::Alg1,
            shares: Shares {
                cold: 0.35,
                query: 0.20,
                update: 0.45,
            },
            alg3_h: 16,
        },
        Workload {
            name: "kssp1k_tcp_zipf",
            why: "light rounds over 2 TCP shards: most of solve_s is dw-transport encode, \
                  syscalls and barrier; Zipf pairs are answered from the gateway cache",
            family: Family::Gnp {
                n: 1024,
                weights: Weights::Positive { max: 4 },
            },
            sources: Sources::Spread(16),
            solver: Solver::Alg1(Backend::TcpSharded(2)),
            mix: Mix::Zipf {
                s: 1.1,
                pairs: 10_000,
            },
            update_batch: 8,
            update_batches: 32,
            recompute: Recompute::Oracle,
            shares: Shares {
                cold: 0.45,
                query: 0.25,
                update: 0.30,
            },
            alg3_h: 0,
        },
        Workload {
            name: "kssp20k_sim_path",
            why: "the size axis: active-set scheduling, slab and CSR footprint, JSON load and \
                  peak RSS matter here and nowhere else; every query walks a path",
            family: Family::PowerLaw {
                n: 20_000,
                max_w: 4,
            },
            sources: Sources::Stride {
                k: 4,
                stride: 12_007,
            },
            solver: Solver::Alg1(Backend::Sim),
            mix: Mix::Uniform { path_fraction: 1.0 },
            update_batch: 8,
            update_batches: 32,
            recompute: Recompute::Oracle,
            shares: Shares {
                cold: 0.45,
                query: 0.25,
                update: 0.30,
            },
            alg3_h: 0,
        },
        Workload {
            name: "apsp384_oracle_swap",
            why: "tables from sequential Dijkstra, 1.9 MB, every swap pushes the full snapshot: \
                  table build, persist, load, install and dw-dynamic do the work, so a \
                  compute-plane change predicts no change here",
            family: Family::Gnp {
                n: 384,
                weights: Weights::Uniform { max: 9 },
            },
            sources: Sources::All,
            solver: Solver::Oracle,
            mix: Mix::Uniform { path_fraction: 0.5 },
            update_batch: 1,
            update_batches: 96,
            recompute: Recompute::Oracle,
            shares: Shares {
                cold: 0.35,
                query: 0.25,
                update: 0.40,
            },
            alg3_h: 0,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same pipeline on a graph small enough that all four workloads
    /// end in a few seconds: what `--smoke` and `cargo test` run. Exact
    /// counts are not pinned at this size.
    pub fn smoke(mut self) -> Workload {
        self.family = match self.family {
            Family::ZeroHeavy { .. } => Family::ZeroHeavy { n: 48 },
            Family::Gnp { weights, .. } => Family::Gnp { n: 96, weights },
            Family::PowerLaw { max_w, .. } => Family::PowerLaw { n: 600, max_w },
        };
        if let Sources::Spread(_) = self.sources {
            self.sources = Sources::Spread(6);
        }
        if let Sources::Stride { k, .. } = self.sources {
            self.sources = Sources::Stride { k, stride: 151 };
        }
        if let Mix::Zipf { s, .. } = self.mix {
            self.mix = Mix::Zipf { s, pairs: 300 };
        }
        if self.alg3_h > 0 {
            self.alg3_h = 6;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_shares_leave_room() {
        let ws = all();
        assert_eq!(ws.len(), 4);
        for (i, w) in ws.iter().enumerate() {
            assert!(ws[..i].iter().all(|o| o.name != w.name));
            let total = w.shares.cold + w.shares.query + w.shares.update;
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{}: shares sum to {total}",
                w.name
            );
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert_eq!(by_name(w.name).as_ref(), Some(w));
        }
    }

    #[test]
    fn source_rules() {
        assert_eq!(Sources::All.pick(3), vec![0, 1, 2]);
        assert_eq!(Sources::Spread(4).pick(1024), vec![0, 256, 512, 768]);
        assert_eq!(
            Sources::Stride {
                k: 4,
                stride: 12_007
            }
            .pick(20_000),
            vec![0, 4014, 12_007, 16_021]
        );
    }
}
