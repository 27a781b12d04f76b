//! A real message-passing runtime for CONGEST protocols.
//!
//! The `dw-congest` simulator plays all nodes of a [`Protocol`] inside
//! one lockstep loop. This crate executes the *same unmodified node
//! programs* on independent workers that only communicate. There is one
//! worker ([`shard`]): it hosts a contiguous block of nodes, and the
//! paper's one-processor-per-node model is the layout with one node per
//! worker (`P = n`). Workers talk over one of three pluggable backends:
//!
//! * [`channels`] — one OS thread per worker, mpsc channels as links;
//! * [`tcp`] — one TCP endpoint per worker, length-prefixed binary
//!   frames ([`WireCodec`]); works in-process on loopback and across OS
//!   processes via the `dwapsp run-node` / `dwapsp coordinator` CLI;
//! * [`stdio`] — a Maelstrom-style adapter: each worker is a process
//!   speaking JSON lines (`{"src":..,"dest":..,"body":{..}}`) on
//!   stdin/stdout, routable by an external harness; a body carries the
//!   same [`WireCodec`] bytes as a TCP frame.
//!
//! Round synchronization is a bulk-synchronous barrier (see
//! [`coordinator`]): one coordinator issues round tokens, workers flush
//! end-of-round markers to every adjacent worker so per-link FIFO order
//! makes message collection complete, and `Done` reports carry the
//! schedule hints that let the coordinator fast-forward quiet stretches
//! exactly like the simulator's `run` loop.
//!
//! The headline property is **conformance**: a transport run produces
//! bit-identical results — final node states, `RunStats` (including
//! congestion counters), outcome — to the simulator on the same seeds,
//! at every shard count, with or without a [`dw_congest::FaultPlan`],
//! whose per-link decisions the workers evaluate sender-side with the
//! simulator's own evaluator. The CONGEST constraint checks themselves live in
//! the shared [`dw_congest::NodeRunner`], so both environments validate
//! sends with the same code.

pub mod channels;
pub mod chaos;
pub mod coordinator;
pub mod error;
pub mod maelstrom;
pub mod shard;
pub mod stdio;
pub mod tcp;
pub mod wire;

pub use channels::{run_threads, run_threads_chaos, PartialRun, TransportRun};
pub use chaos::{ChaosEvent, ChaosPlan};
pub use coordinator::{coordinate, CoordConfig, CoordEndpoint};
pub use error::TransportError;
pub use maelstrom::{maelstrom_serve, MaelstromInit, MaelstromStats};
pub use shard::{
    shard_main, shard_main_recoverable, NodeEndpoint, ShardError, ShardMap, TransportConfig,
};
pub use tcp::{
    run_coordinator_tcp, run_shard_tcp, run_shard_tcp_recoverable, run_tcp_loopback,
    run_tcp_loopback_chaos,
};
pub use wire::{abort_reason, errkind, BatchEntry, CtlMsg, Event, Frame, NodeReport};

// Re-exported so backend users don't need a direct dw-congest dep for
// the common types that appear in this crate's signatures.
pub use dw_congest::{Checkpointable, Protocol, Round, RunOutcome, RunStats, WireCodec};
pub use dw_obs::{NullRecorder, ObsRecorder, Recorder, Recording};
