//! Golden-baseline regression test of the simulated-IPC figure: re-runs the
//! small-corpus `figures simulate` sweep that produced
//! `baselines/sim_small.json` and diffs the result against the checked-in
//! numbers, so any change to the simulator's measurements — or any schedule
//! that stops executing cleanly — fails CI deterministically.
//!
//! To regenerate the baseline after an *intentional* change:
//!
//! ```text
//! cargo run --release -p vliw-bench --bin figures -- \
//!     simulate --format json --corpus-size 32 --seed 386 > baselines/sim_small.json
//! ```

use std::path::PathBuf;

use vliw_bench::{OutputFormat, RunConfig};
use vliw_core::experiments::{sim_machines, simulate_experiment, SimulateReport, SIM_TRIP_COUNTS};
use vliw_core::Session;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/sim_small.json")
}

fn load_baseline() -> (String, SimulateReport) {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let report = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid SimulateReport: {e}", path.display()));
    (text, report)
}

#[test]
fn baseline_deserializes_and_is_clean() {
    let (_, baseline) = load_baseline();
    assert_eq!(baseline.corpus_size, 32);
    assert_eq!(baseline.seed, 386);
    assert_eq!(baseline.trip_counts, SIM_TRIP_COUNTS.to_vec());
    assert_eq!(baseline.rows.len(), sim_machines().len() * SIM_TRIP_COUNTS.len());
    // The acceptance bar of the simulator: every scheduled loop of the corpus
    // executes with zero violations, and the execution-observed cycle counts
    // and issue rates agree with the closed forms the figures are derived from.
    assert_eq!(baseline.total_violations(), 0, "scheduled loops must execute cleanly");
    for row in &baseline.rows {
        assert!(row.loops > 0, "{} N={}: no loops simulated", row.machine, row.trip_count);
        assert!(row.cycles_match_formula, "{} N={}", row.machine, row.trip_count);
        assert_eq!(row.max_ipc_abs_error, 0.0, "{} N={}", row.machine, row.trip_count);
    }
}

#[test]
fn rerun_matches_the_sim_baseline() {
    let (text, baseline) = load_baseline();
    let run = RunConfig {
        corpus_size: baseline.corpus_size,
        seed: baseline.seed,
        threads: None, // results are thread-count independent
        format: OutputFormat::Json,
        ..RunConfig::default()
    };
    let session = Session::new(run.experiment_config());
    let report = simulate_experiment(&session).expect("simulation runs");

    // The memoised simulate path must actually have simulated.
    let stats = session.stats();
    assert!(stats.sim_runs > 0);

    // Row-by-row first, for a readable diff when a measurement regresses.
    assert_eq!(report.rows.len(), baseline.rows.len());
    for (got, want) in report.rows.iter().zip(&baseline.rows) {
        assert_eq!(got, want, "sim row diverged: {} N={}", want.machine, want.trip_count);
    }
    assert_eq!(report, baseline);

    // And the serialized form must match byte for byte (catches format drift;
    // see the module docs for how to regenerate intentionally).
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(rendered.trim_end(), text.trim_end(), "serialized JSON drifted");
}
