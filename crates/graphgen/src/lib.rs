//! Weighted graph representation, workload generators and structural analysis
//! for the reproduction of *Distributed Weighted All Pairs Shortest Paths
//! Through Pipelining* (Agarwal & Ramachandran, IPDPS 2019).
//!
//! The paper's algorithms run on an `n`-node graph `G = (V, E)` with
//! non-negative integer edge weights, **zero-weight edges allowed**, directed
//! or undirected. The communication network is always the underlying
//! undirected graph of `G` (Section I-B of the paper).
//!
//! This crate provides:
//!
//! * [`WGraph`] — the graph type shared by every other crate in the workspace,
//!   with out-/in-adjacency and precomputed communication neighborhoods;
//! * [`gen`] — deterministic, seeded workload generators (random `G(n,p)`,
//!   grids, rings, layered hard cases, the Fig. 1 gadget, zero-heavy
//!   mixtures);
//! * [`analysis`] — weight and degree statistics used by the experiment
//!   harness;
//! * [`io`] — graph (de)serialization for reproducible experiment
//!   manifests;
//! * [`json`] — the workspace's one JSON reader (graph files, obs logs,
//!   the stdio and Maelstrom line formats).

pub mod analysis;
pub mod builder;
pub mod gen;
pub mod graph;
pub mod io;
pub mod json;
pub mod patch;

pub use builder::GraphBuilder;
pub use graph::{Edge, NodeId, WGraph, Weight, INFINITY};
pub use patch::{normalize_updates, EdgeUpdate, NetChange, PatchError, PatchSummary};
