//! Seeded update batches repaired and pushed into a **live** 2-shard
//! loopback deployment while a hammer queries it (`make dynamic-smoke`).
//!
//! Each of 3 batches goes through `apply_update_batch` (the cell-level
//! repair in the `(d, l, parent)` order) and then `apply_tables`.
//! Mid-swap, no query may come back `ShardUnavailable`, and each probe
//! answers some installed generation's value, never a third one. After
//! the last swap every pair answers like Dijkstra on the patched graph.
//! Each push's install bytes print, the first whole and the rest deltas.
//!
//! Held elsewhere: that the repaired tables equal Dijkstra's and a cold
//! Algorithm 1's cell for cell and pass `verify_row` (`update_proptest`,
//! `alg1_engine_is_a_cold_solve_cell_for_cell`), a delta's size bound
//! (`update_proptest`'s second property), and that a swap lands on the
//! whole fleet, the first whole and the next as a delta (dw-serve's
//! `apply_tables_swaps_generations_end_to_end`, `gateway_conformance`'s
//! `a_delta_reaches_each_shard_as_its_rows_and_every_shard_moves`).

mod common;

use common::{assert_answers_like_dijkstra, Hammer};
use dw_congest::EngineConfig;
use dw_dynamic::{apply_update_batch, gen_update_batch, RecomputeEngine};
use dw_graph::gen::{self, WeightDist};
use dw_graph::NodeId;
use dw_pipeline::apsp_auto;
use dw_serve::{Deployment, GatewayConfig, TableSnapshot, VersionedTables};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
#[ignore = "a live loopback deployment under load; run by `make dynamic-smoke`"]
fn update_batches_swap_into_a_live_deployment_without_a_torn_answer() {
    let mut g = gen::grid2d(6, 6, WeightDist::Uniform { max: 9 }, 42);
    let n = g.n() as NodeId;
    let (cold, _, _) = apsp_auto(&g, EngineConfig::default());
    let mut vt = VersionedTables {
        generation: 0,
        snap: TableSnapshot::from_result(&cold),
    };
    let d = Deployment::spawn(&vt.snap, 2, GatewayConfig::default()).unwrap();
    let probes = (0..2).map(|s| (d.map.nodes(s).start, n - 1)).collect();
    let mut hammer = Hammer::start(d.gateway.addr, probes, &vt.snap);
    let mut push = d.client().unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for b in 0..3u64 {
        let batch = gen_update_batch(&g, b, 8, 9, &mut rng);
        let (next, report) =
            apply_update_batch(&mut g, &vt, &batch, RecomputeEngine::Alg1).unwrap();
        vt = next;
        hammer.allow(&vt.snap);
        hammer.let_run();
        let rep = push.apply_tables(vt.generation, &vt.snap).unwrap();
        eprintln!(
            "live_updates: batch {b} -> generation {} (recomputed {}/{} rows, cells touched {}, \
             hop columns walked {}; {} install bytes, {})",
            rep.generation,
            report.recomputed,
            report.recomputed + report.reused,
            report.cells,
            report.walked,
            rep.install_bytes,
            if rep.full { "full" } else { "delta" }
        );
    }
    let (landed, _) = hammer.stop();
    assert_answers_like_dijkstra(&mut push, &g, 0..n);
    eprintln!("live_updates: {landed} mid-swap queries typed and generation-consistent");
}
