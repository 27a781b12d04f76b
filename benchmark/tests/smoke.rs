//! The whole pipeline on shrunken graphs: all four workloads, untraced
//! and traced, through the real executable and its watchdog.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_dw-pipeline-bench");

#[test]
fn all_four_workloads_run_and_verify_at_smoke_size() {
    let out = Command::new(BIN)
        .args(["all", "--smoke", "--seconds", "0.8"])
        .output()
        .expect("run the benchmark executable");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("all workloads correct"), "{stdout}");
    for name in [
        "apsp256_sim_uniform",
        "kssp1k_tcp_zipf",
        "kssp20k_sim_path",
        "apsp384_oracle_swap",
    ] {
        assert!(stdout.contains(&format!("== {name} (untraced")), "{stdout}");
        assert!(stdout.contains(&format!("== {name} (traced")), "{stdout}");
    }
    // Both passes print their metrics with units.
    assert!(stdout.contains("time_to_serving_s") && stdout.contains("congest.messages"));
    assert!(!stderr.contains("FAILED"), "{stderr}");
}

#[test]
fn the_contract_form_prints_one_json_object_last() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "kssp20k_sim_path",
            "--seed",
            "3",
            "--seconds",
            "0.8",
        ])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("run the benchmark executable");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for key in [
        "\"failed\": 0",
        "\"setup_s\": {\"value\": ",
        "\"unit\": \"MiB\"}}}",
    ] {
        assert!(last.contains(key), "{key} not in {last}");
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--seconds", "0"][..],
        &["--trace", "2", "--workload", "kssp1k_tcp_zipf"][..],
        &[][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
