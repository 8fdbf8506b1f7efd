//! Golden-baseline regression test: re-runs the `figures all` sweeps that
//! produced `baselines/figures_small.json` (the 32-loop smoke corpus) and
//! `baselines/figures_full.json` (the full 1258-loop paper corpus at the
//! default seed) and diffs the results against the checked-in numbers, so any
//! change to the reproduced paper figures fails CI deterministically.
//!
//! To regenerate the baselines after an *intentional* change to the experiment
//! pipeline:
//!
//! ```text
//! cargo run --release -p vliw-bench --bin figures -- \
//!     all --format json --corpus-size 32 --seed 386 > baselines/figures_small.json
//! cargo run --release -p vliw-bench --bin figures -- \
//!     all --format json > baselines/figures_full.json
//! ```

use std::path::PathBuf;

use vliw_bench::{run_experiments_in, FiguresReport, OutputFormat, RunConfig, Selection};
use vliw_core::Session;

fn load_baseline(name: &str) -> (String, FiguresReport) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let report = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid FiguresReport: {e}", path.display()));
    (text, report)
}

#[test]
fn baseline_deserializes_into_the_row_types() {
    let (_, baseline) = load_baseline("figures_small.json");
    assert_eq!(baseline.corpus_size, 32);
    assert_eq!(baseline.seed, 386);
    // The `all` sweep fills every experiment.
    assert!(baseline.fig3.is_some());
    assert!(baseline.copy_cost.is_some());
    assert!(baseline.fig4.is_some());
    assert!(baseline.fig6.is_some());
    assert!(baseline.cluster_resources.is_some());
    assert!(baseline.fig8_ipc.is_some());
    assert!(baseline.fig9_ipc.is_some());
}

#[test]
fn rerun_matches_the_golden_baseline() {
    for name in ["figures_small.json", "figures_full.json"] {
        rerun_matches(name);
    }
}

fn rerun_matches(name: &str) {
    let (text, baseline) = load_baseline(name);
    let run = RunConfig {
        corpus_size: baseline.corpus_size,
        seed: baseline.seed,
        threads: None, // results are thread-count independent
        format: OutputFormat::Json,
        ..RunConfig::default()
    };
    let session = Session::new(run.experiment_config());
    let report = run_experiments_in(&session, Selection::All).expect("experiments run");

    // The shared compilation session must not change the figures — and it must
    // actually share: every driver overlap is served from the cache.
    let stats = session.stats();
    assert!(stats.hits > 0, "{name}: the all-run must hit the session cache");
    assert!(stats.unique_keys > 0);

    // Piecewise comparison first, for a readable diff when a figure regresses.
    assert_eq!(report.fig3, baseline.fig3, "{name}: Fig. 3 rows diverged from the baseline");
    assert_eq!(report.copy_cost, baseline.copy_cost, "{name}: copy-cost rows diverged");
    assert_eq!(report.fig4, baseline.fig4, "{name}: Fig. 4 rows diverged");
    assert_eq!(report.fig6, baseline.fig6, "{name}: Fig. 6 rows diverged");
    assert_eq!(
        report.cluster_resources, baseline.cluster_resources,
        "{name}: cluster-resource rows diverged"
    );
    assert_eq!(report.fig8_ipc, baseline.fig8_ipc, "{name}: Fig. 8 IPC curve diverged");
    assert_eq!(report.fig9_ipc, baseline.fig9_ipc, "{name}: Fig. 9 IPC curve diverged");

    // And the serialized form must match byte for byte (catches format drift; see
    // the module docs for how to regenerate intentionally).
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(rendered.trim_end(), text.trim_end(), "{name}: serialized JSON drifted");
}
