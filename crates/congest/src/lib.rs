//! A deterministic simulator for the **CONGEST model** of distributed
//! computation (paper Section I-B).
//!
//! Model recap: `n` processors (nodes) joined by the links of a graph
//! `G = (V, E)`; if `G` is directed the links are still bidirectional, so
//! communication happens on the *underlying undirected* graph `U_G`.
//! Computation proceeds in synchronous rounds. In each round every node may
//! send **one message of `O(log n)` bits per incident link** (possibly a
//! different message per link), and it receives the messages sent to it in
//! that round. Local computation is free; the complexity measure is the
//! number of rounds.
//!
//! What this crate provides:
//!
//! * [`Protocol`] — the per-node program trait (send phase / receive phase);
//! * [`Network`] — the round engine, sequential or thread-parallel, with
//!   **hard enforcement** of the one-message-per-link-per-round and
//!   message-size constraints, schedule fast-forwarding for pipelined
//!   protocols with sparse send schedules, and full metrics (rounds,
//!   messages, per-link congestion, per-node send counts);
//! * [`primitives`] — distributed building blocks used by the blocker-set
//!   machinery: BFS spanning tree, pipelined tree broadcast, convergecast
//!   (global max);
//! * [`scheduler`] — a random-delay composition engine for running many
//!   protocol instances over shared links (the role Ghaffari's scheduling
//!   framework plays in the paper).

pub mod codec;
pub mod engine;
pub mod fault;
pub mod message;
pub mod metrics;
pub mod outbox;
pub mod pool;
pub mod primitives;
pub mod protocol;
pub mod reliable;
pub mod runner;
pub mod schedule;
pub mod scheduler;
pub mod slab;
pub mod trace;

pub use codec::{from_bytes, to_bytes, WireCodec};
pub use engine::{EngineConfig, Network, RunOutcome, SchedulingMode};
pub use fault::{CapBuckets, FaultAction, FaultPlan, LinkDelay, Outage};
pub use message::{Envelope, MsgSize, MAX_WORDS};
pub use metrics::RunStats;
// Observability: re-export the recording surface so engine users don't
// need a direct dw-obs dependency for the common cases.
pub use dw_obs::{NullRecorder, ObsRecorder, Recorder, Recording, Span, SpanId};
pub use outbox::Outbox;
pub use protocol::{Checkpointable, NodeCtx, Protocol, Round};
pub use reliable::{Reliable, ReliableStats};
pub use runner::{NodeRunner, SendSink};
pub use schedule::Schedule;
pub use trace::{RoundRecord, RoundTrace};
