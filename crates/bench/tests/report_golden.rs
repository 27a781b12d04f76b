//! Golden-file regression test for the experiment report: every
//! experiment's quick-mode tables, rendered as markdown (the form
//! `report --markdown` prints), compared against a checked-in snapshot.
//!
//! Quick mode is deterministic (fixed seeds, the simulator only), so any
//! change to a measured round count, message count, bound or verdict —
//! E14's fault-recovery rows included — shows up here as a readable
//! diff. To accept an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dw-bench --test report_golden
//! ```
//!
//! and commit the rewritten `tests/golden/report_quick.md`.

use dw_bench::experiments;
use std::path::PathBuf;

#[test]
fn golden_report_quick() {
    let mut actual = String::new();
    for id in experiments::ALL {
        for table in experiments::run(id, false) {
            actual.push_str(&table.render_markdown());
            actual.push('\n');
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report_quick.md");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); create it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        expected, actual,
        "report golden mismatch; if intentional, rerun with UPDATE_GOLDEN=1 and commit"
    );
}
