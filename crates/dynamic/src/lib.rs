//! **dw-dynamic** — batched graph updates with incremental recompute
//! and versioned table swaps (ROADMAP item 2, DESIGN.md §14).
//!
//! Everything upstream of this crate computes shortest-path tables for
//! a *fixed* graph; everything downstream serves them. This crate is
//! the piece in between for graphs that change: edge insertions,
//! deletions and weight changes accumulate mempool-style into
//! [`UpdateBatch`]es, each batch patches the graph in place, the rows
//! are brought up to the patched graph in the order they were built in
//! — Algorithm 1's tables repaired cell by cell in its `(d, l, parent)`
//! order, Dijkstra's tables re-solved row by row where the tight/slack
//! rule says a row may have moved — and the result is the next
//! [`dw_serve::VersionedTables`] generation, untouched rows carried by
//! `Arc` reference, ready for the gateway's atomic swap.
//!
//! ```text
//!  EdgeUpdate ─► UpdatePool ─► UpdateBatch ─► apply_update_batch
//!                                               │  patch CSR rows
//!                                               │  Alg1:   RowRepair, touched cells only
//!                                               │  Oracle: row_is_dirty ──► Dijkstra per dirty row
//!                                               ▼
//!                                        VersionedTables gen+1 ─► gateway swap
//! ```
//!
//! * [`batch`] — the batch type, its wire codec, the pool, and the
//!   `dwapsp update` text format;
//! * [`engine`] — the recompute transaction (patch → recompute →
//!   version) and its per-batch report;
//! * [`stream`] — seeded random update streams for benches and the
//!   randomized bit-equality suite in `tests/`.

pub mod batch;
pub mod engine;
pub mod stream;

pub use batch::{parse_updates, UpdateBatch, UpdatePool};
pub use engine::{apply_update_batch, RecomputeEngine, UpdateReport};
pub use stream::gen_update_batch;
