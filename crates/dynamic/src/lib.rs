//! **dw-dynamic** — batched graph updates with incremental recompute
//! and versioned table swaps (DESIGN.md §14).
//!
//! Everything upstream of this crate computes shortest-path tables for
//! a *fixed* graph; everything downstream serves them. This crate is
//! the piece in between for graphs that change: edge insertions,
//! deletions and weight changes accumulate mempool-style into
//! [`UpdateBatch`]es, each batch patches the graph in place, the rows
//! are repaired cell by cell in the stack's one `(d, l, parent)` order
//! — whichever solver wrote them — and the result is the next
//! [`dw_serve::VersionedTables`] generation, untouched rows carried by
//! `Arc` reference, ready for the gateway's atomic swap.
//!
//! ```text
//!  EdgeUpdate ─► UpdatePool ─► UpdateBatch ─► apply_update_batch
//!                                               │  patch CSR rows in place
//!                                               │  RowRepair::reaches ──► carry the row by Arc
//!                                               │  hop column: the carried one if hops_match, else walked
//!                                               │  RowRepair::repair, touched cells only
//!                                               ▼
//!                                        VersionedTables gen+1 ─► gateway swap
//! ```
//!
//! * [`batch`] — the batch type, the pool, and the `dwapsp update`
//!   text format;
//! * [`engine`] — the recompute transaction (patch → repair →
//!   version) and its per-batch report;
//! * [`stream`] — seeded random update streams for benches and the
//!   randomized bit-equality suite in `tests/`.

pub mod batch;
pub mod engine;
pub mod stream;

pub use batch::{parse_updates, UpdateBatch, UpdatePool};
pub use engine::{apply_update_batch, RecomputeEngine, UpdateReport};
pub use stream::gen_update_batch;
