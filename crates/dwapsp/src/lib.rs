//! **dwapsp** — a faithful, fully tested reproduction of
//! *Distributed Weighted All Pairs Shortest Paths Through Pipelining*
//! (Agarwal & Ramachandran, IPDPS 2019) on a deterministic CONGEST-model
//! simulator.
//!
//! This crate is the facade: it re-exports the public API of every
//! subsystem crate. See `README.md` for the architecture and
//! `DESIGN.md` / `EXPERIMENTS.md` for the per-experiment reproduction
//! index.
//!
//! # Quick start
//!
//! ```
//! use dwapsp::prelude::*;
//!
//! // a small weighted digraph with zero-weight edges
//! let mut b = GraphBuilder::new(4, true);
//! b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 3, 5).add_edge(0, 3, 9);
//! let g = b.build();
//!
//! // exact APSP via the paper's pipelined Algorithm 1 (Δ unknown:
//! // guess-and-double wrapper)
//! let (result, stats, delta) = apsp_auto(&g, EngineConfig::default());
//! assert_eq!(result.dist[0][3], 5); // 0 -> 1 -> 2 -> 3 beats the direct 9
//! assert!(stats.rounds > 0 && delta >= 5);
//! ```
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `dw-graph` | graph type, generators, analysis |
//! | [`obs`] | `dw-obs` | observability: run stats, phase spans, exporters |
//! | [`congest`] | `dw-congest` | CONGEST round engine, primitives, scheduler |
//! | [`seqref`] | `dw-seqref` | sequential references & validation |
//! | [`pipeline`] | `dw-pipeline` | Algorithm 1, Algorithm 2, CSSSP |
//! | [`blocker`] | `dw-blocker` | blocker sets, Algorithm 4, Algorithm 3 |
//! | [`approx`] | `dw-approx` | Section IV (1+ε)-approximate APSP |
//! | [`transport`] | `dw-transport` | message-passing runtime: threads, TCP, stdio |
//! | [`serve`] | `dw-serve` | query serving plane: tables, gateway, shards, loadgen |
//! | [`dynamic`] | `dw-dynamic` | batched graph updates, incremental recompute, versioned swaps |
//! | [`baselines`] | `dw-baselines` | Bellman–Ford, unweighted pipeline, delayed BFS |

pub use dw_approx as approx;
pub use dw_baselines as baselines;
pub use dw_blocker as blocker;
pub use dw_congest as congest;
pub use dw_dynamic as dynamic;
pub use dw_graph as graph;
pub use dw_obs as obs;
pub use dw_pipeline as pipeline;
pub use dw_seqref as seqref;
pub use dw_serve as serve;
pub use dw_transport as transport;

/// The items most programs need.
pub mod prelude {
    pub use dw_approx::approx_apsp;
    pub use dw_baselines::{bf_apsp, bf_k_source, unweighted_apsp};
    pub use dw_blocker::alg3::{alg3_apsp, alg3_apsp_recorded, alg3_k_ssp, alg3_k_ssp_recorded};
    pub use dw_congest::{EngineConfig, Network, Protocol, RunStats};
    pub use dw_graph::{gen, GraphBuilder, NodeId, WGraph, Weight, INFINITY};
    pub use dw_obs::{NullRecorder, ObsRecorder, Recorder, Recording};
    pub use dw_pipeline::{
        apsp, apsp_auto, build_csssp, k_ssp, solve_hk_ssp, solve_short_range, Recovery, Run,
        Runtime, SspConfig,
    };
    pub use dw_seqref::{apsp_dijkstra, dijkstra, max_finite_distance, DistMatrix};
}
