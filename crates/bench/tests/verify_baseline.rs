//! Golden-baseline regression test of the static-verification experiment:
//! re-runs the `figures verify` invocation that produced
//! `baselines/verify_small.json` and diffs the result against the checked-in
//! rows, so any drift in the verifier's verdicts — a new violation, a changed
//! steady-state peak, a moved copy-bus utilisation — fails CI
//! deterministically.
//!
//! To regenerate the baseline after an *intentional* change:
//!
//! ```text
//! cargo run --release -p vliw-bench --bin figures -- \
//!     verify --format json --corpus-size 32 --seed 386 \
//!     > baselines/verify_small.json
//! ```

use std::path::PathBuf;

use vliw_bench::RunConfig;
use vliw_core::experiments::{verify_experiment, VerifyReport};
use vliw_core::Session;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/verify_small.json")
}

fn load_baseline() -> (String, VerifyReport) {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let report = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid VerifyReport: {e}", path.display()));
    (text, report)
}

#[test]
fn baseline_proves_the_golden_corpus_clean() {
    let (_, baseline) = load_baseline();
    assert_eq!(baseline.corpus_size, 32);
    assert_eq!(baseline.seed, 386);
    assert_eq!(baseline.rows.len(), 4, "one row per simulated machine shape");
    // The acceptance bar: zero violations of either class, corpus-wide, on
    // every machine — the static proof CI relies on instead of simulating.
    assert!(baseline.is_clean(), "the golden corpus must verify clean");
    assert_eq!(baseline.total_violations(), 0);
    for row in &baseline.rows {
        assert_eq!(row.loops, 32, "{}: every corpus loop must schedule", row.machine);
        assert_eq!(row.schedule_faults, 0, "{}", row.machine);
        assert_eq!(row.capacity_faults, 0, "{}", row.machine);
        assert_eq!(row.loops_with_violations, 0, "{}", row.machine);
        assert!(row.max_private_peak > 0, "{}: peaks of a real corpus are nonzero", row.machine);
    }
    // Clustered rows route values over the ring; single-cluster rows cannot.
    for row in &baseline.rows {
        assert_eq!(row.clusters > 1, row.max_comm_peak > 0, "{}", row.machine);
    }
}

#[test]
fn rerun_matches_the_verify_baseline() {
    let (text, baseline) = load_baseline();
    let run = RunConfig {
        corpus_size: baseline.corpus_size,
        seed: baseline.seed,
        threads: None, // results are thread-count independent
        ..RunConfig::default()
    };
    let session = Session::new(run.experiment_config());
    let report = verify_experiment(&session).expect("verify runs");

    // Pure static analysis: the session must never touch the simulator.
    let stats = session.stats();
    assert_eq!(stats.sim_runs, 0, "verification must not simulate: {stats:?}");
    assert!(stats.verifications > 0);

    // Row-by-row first, for a readable diff when a verdict regresses.
    assert_eq!(report.rows.len(), baseline.rows.len());
    for (got, want) in report.rows.iter().zip(&baseline.rows) {
        assert_eq!(got, want, "verify row diverged: {}", want.machine);
    }
    assert_eq!(report, baseline);

    // And the serialized form must match byte for byte (catches format drift;
    // see the module docs for how to regenerate intentionally).
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(rendered.trim_end(), text.trim_end(), "serialized JSON drifted");
}
