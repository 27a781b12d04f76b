//! Fig. 1, live: h-hop shortest-path parent pointers need not form trees
//! of height <= h, and the CSSSP construction (run Algorithm 1 with 2h
//! hops, keep the initial h hops) repairs this.
//!
//! ```text
//! cargo run -p dwapsp --example csssp_trees
//! ```

use dwapsp::graph::gen;
use dwapsp::pipeline::csssp::{check_consistency, parent_chain_hops};
use dwapsp::prelude::*;

fn main() {
    let h = 4usize;
    let (g, nd) = gen::fig1_gadget(h, 7, 1, true);
    println!("the Fig. 1 gadget (h = {h}):");
    println!(
        "  s={} --0--> ... --0--> a={} (h hops, weight 0)",
        nd.s, nd.a
    );
    println!("  s={} --------7-------> a={} (1 hop)", nd.s, nd.a);
    println!("  a={} --1--> t={}", nd.a, nd.t);
    println!();

    // Raw h-hop run: t's parent chain passes through a's h-hop zero path.
    let delta_h = dwapsp::seqref::max_finite_h_hop_distance(&g, h).max(1);
    let cfg = SspConfig::new(vec![nd.s], h as u64, delta_h);
    let raw = solve_hk_ssp(&g, &cfg, &Run::default(), &mut NullRecorder)
        .expect("simulator run")
        .result;
    let chain = parent_chain_hops(&raw, 0, nd.t).unwrap();
    println!(
        "raw h-hop run: δ⁴(s,t) = {} via parent a; but following parent pointers from t ",
        raw.dist[0][nd.t as usize]
    );
    println!("takes {chain} hops (> h = {h}) because a's own recorded path is the zero route.");
    assert!(chain > h as u64);

    // The cure: CSSSP.
    let delta_2h = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h).max(1);
    let (c, _) = build_csssp(
        &g,
        &[nd.s],
        h as u64,
        delta_2h,
        EngineConfig::default(),
        &mut NullRecorder,
    );
    check_consistency(&g, &c).expect("CSSSP must be consistent");
    println!();
    println!(
        "CSSSP (2h trick): tree height {} <= h, consistency verified ✓",
        c.height(0)
    );
    println!(
        "  a in tree: {} (depth {}), t in tree: {} — t's only distance-1 route needs {} hops,",
        c.in_tree(0, nd.a),
        c.hops[0][nd.a as usize],
        c.in_tree(0, nd.t),
        h + 1
    );
    println!("  so Definition III.3 correctly leaves t out of the h-hop tree.");

    // Chained gadgets amplify the pathology.
    println!();
    for copies in [2usize, 4, 8] {
        let (g, nds) = gen::fig1_chain(h, copies, 7, true);
        let delta_h = dwapsp::seqref::max_finite_h_hop_distance(&g, h).max(1);
        let cfg = SspConfig::new(vec![nds[0].s], h as u64, delta_h);
        let raw = solve_hk_ssp(&g, &cfg, &Run::default(), &mut NullRecorder)
            .expect("simulator run")
            .result;
        let worst = g
            .nodes()
            .filter_map(|v| parent_chain_hops(&raw, 0, v))
            .max()
            .unwrap();
        let delta_2h = dwapsp::seqref::max_finite_h_hop_distance(&g, 2 * h).max(1);
        let (c, _) = build_csssp(
            &g,
            &[nds[0].s],
            h as u64,
            delta_2h,
            EngineConfig::default(),
            &mut NullRecorder,
        );
        check_consistency(&g, &c).unwrap();
        println!(
            "{copies} chained gadgets (n={}): naive chain {worst} hops, CSSSP height {} ✓",
            g.n(),
            c.height(0)
        );
    }
}
