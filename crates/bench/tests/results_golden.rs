//! Golden test: every committed `results/<report>.txt` is byte-identical
//! to what its renderer produces today. The `figures` binary prints the
//! same strings, so when the DES, the planner or the machine constants
//! change, this fails until the artifacts are regenerated
//! (`cargo run --release -p panda-bench --bin figures -- all --out-dir results`).

use panda_bench::figures::{render, HarnessOpts, REPORTS};

#[test]
fn committed_results_match_their_renderers() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    // One thread per report: the sweeps are independent simulations.
    let stale: Vec<&str> = std::thread::scope(|s| {
        let checks: Vec<_> = REPORTS
            .iter()
            .map(|&name| {
                s.spawn(move || {
                    let path = format!("{results}/{name}.txt");
                    let committed = std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| panic!("read {path}: {e}"));
                    let current = render(name, &HarnessOpts::default()).expect("known report");
                    (committed != current).then_some(name)
                })
            })
            .collect();
        checks
            .into_iter()
            .filter_map(|check| check.join().unwrap())
            .collect()
    });
    assert!(
        stale.is_empty(),
        "stale results/{{{}}}.txt; regenerate with \
         `cargo run --release -p panda-bench --bin figures -- all --out-dir results`",
        stale.join(",")
    );
}
