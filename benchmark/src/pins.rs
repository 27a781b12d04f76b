//! Exact counts on each workload's graph, taken from the engine's
//! `RunStats` and the table file. A speed-up must not move them: a run
//! whose counts differ fails, whatever its seed, because `--seed` does not
//! change the graph. They are pinned at full size only; `--smoke` graphs
//! are not.
//!
//! When a change is meant to alter the round schedule or the table
//! format, re-run `-- all` and replace the values it prints.

const PINS: &[(&str, &str, u64)] = &[
    ("apsp256_sim_uniform", "congest.rounds", 1717),
    ("apsp256_sim_uniform", "congest.rounds_executed", 1441),
    ("apsp256_sim_uniform", "congest.messages", 1_230_120),
    ("apsp256_sim_uniform", "congest.max_link_load", 603),
    ("apsp256_sim_uniform", "congest.slab_peak", 256),
    ("apsp256_sim_uniform", "congest.slab_bytes", 163_840),
    ("apsp256_sim_uniform", "blocker.alg3_rounds", 5339),
    ("apsp256_sim_uniform", "blocker.q_size", 9),
    ("apsp256_sim_uniform", "serve.table_file_bytes", 854_032),
    ("kssp1k_tcp_zipf", "congest.rounds", 938),
    ("kssp1k_tcp_zipf", "congest.rounds_executed", 584),
    ("kssp1k_tcp_zipf", "congest.messages", 326_640),
    ("kssp1k_tcp_zipf", "congest.max_link_load", 40),
    ("kssp1k_tcp_zipf", "congest.slab_peak", 954),
    ("kssp1k_tcp_zipf", "congest.slab_bytes", 305_920),
    ("kssp1k_tcp_zipf", "serve.table_file_bytes", 213_136),
    ("kssp20k_sim_path", "congest.rounds", 1567),
    ("kssp20k_sim_path", "congest.rounds_executed", 686),
    ("kssp20k_sim_path", "congest.messages", 719_946),
    ("kssp20k_sim_path", "congest.max_link_load", 9),
    ("kssp20k_sim_path", "congest.slab_peak", 8530),
    ("kssp20k_sim_path", "congest.slab_bytes", 3_202_880),
    ("kssp20k_sim_path", "serve.table_file_bytes", 1_040_048),
    ("apsp384_oracle_swap", "serve.table_file_bytes", 1_920_016),
];

pub fn pinned(workload: &str, metric: &str) -> Option<u64> {
    PINS.iter()
        .find(|(w, m, _)| *w == workload && *m == metric)
        .map(|&(_, _, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_name_real_workloads_and_metrics_once() {
        for (i, (w, m, _)) in PINS.iter().enumerate() {
            assert!(crate::workloads::by_name(w).is_some(), "{w}");
            assert!(
                crate::metrics::PER_LAYER.iter().any(|p| p.name == *m),
                "{m}"
            );
            assert!(
                PINS[..i].iter().all(|(w2, m2, _)| (w2, m2) != (w, m)),
                "{w} {m} twice"
            );
        }
        assert_eq!(
            pinned("apsp384_oracle_swap", "serve.table_file_bytes"),
            Some(1_920_016)
        );
        assert_eq!(pinned("kssp20k_sim_path", "no.such.metric"), None);
    }
}
