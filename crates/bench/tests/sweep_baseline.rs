//! Golden-baseline regression test of the Fig. 7 design-space sweep: re-runs
//! the small-grid `figures sweep` that produced `baselines/sweep_small.json`
//! and diffs the result against the checked-in rows, so any drift in the
//! classification fractions, the storage accounting or the Pareto frontier
//! fails CI deterministically.
//!
//! To regenerate the baseline after an *intentional* change:
//!
//! ```text
//! cargo run --release -p vliw-bench --bin figures -- \
//!     sweep --grid small --format json --corpus-size 32 --seed 386 \
//!     > baselines/sweep_small.json
//! ```

//! The run with the certificate accounting attached has its own golden,
//! `baselines/sweep_pruned_small.json`, regenerated the same way with
//! `--prune true --audit 16` appended to the command line above.  Its rows
//! must stay byte-identical to the plain golden's — the accounting never
//! changes a verdict.

use std::path::PathBuf;

use vliw_bench::RunConfig;
use vliw_core::experiments::{Classify, ExperimentRequest, ExperimentResponse, SweepReport};
use vliw_core::{Session, SweepGrid};

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/sweep_small.json")
}

fn pruned_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/sweep_pruned_small.json")
}

/// Runs the small-grid sweep request over `session`, exactly as `figures
/// sweep` (in process or through a daemon) does.
fn sweep(session: &Session, classify: Classify, prune: bool, audit: usize) -> SweepReport {
    let request = ExperimentRequest::Sweep { grid: SweepGrid::Small, classify, prune, audit };
    match request.run(session).expect("sweep runs") {
        ExperimentResponse::Sweep(report) => report,
        other => panic!("asked for a sweep, got `{}`", other.name()),
    }
}

fn load_baseline() -> (String, SweepReport) {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let report = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid SweepReport: {e}", path.display()));
    (text, report)
}

#[test]
fn baseline_reproduces_the_fig7_conclusion() {
    let (_, baseline) = load_baseline();
    assert_eq!(baseline.corpus_size, 32);
    assert_eq!(baseline.seed, 386);
    assert_eq!(baseline.grid, "small");
    assert_eq!(baseline.rows.len(), 8);
    // The acceptance bar of the sweep: the paper's published sizing — the
    // 8-queue × 8-entry, depth-8-link basic cluster — lies on the reported
    // Pareto frontier of its machine shape.
    assert_eq!(baseline.paper_points().count(), 1);
    assert!(
        baseline.paper_point_is_pareto(),
        "Fig. 7's 8x8 + depth-8 cluster must be Pareto-efficient"
    );
    // And it is not trivially so: the frontier is a strict subset of the grid.
    let frontier = baseline.frontier().count();
    assert!(frontier >= 2, "a one-point frontier would make the claim vacuous");
    assert!(frontier < baseline.rows.len(), "a full-grid frontier would make the claim vacuous");
    for row in &baseline.rows {
        assert_eq!(row.loops, 32);
        assert!(row.frac_clean <= row.frac_alloc_fits.min(row.frac_sim_clean) + 1e-12);
    }
}

#[test]
fn rerun_matches_the_sweep_baseline() {
    let (text, baseline) = load_baseline();
    let run = RunConfig {
        corpus_size: baseline.corpus_size,
        seed: baseline.seed,
        threads: None, // results are thread-count independent
        ..RunConfig::default()
    };
    let session = Session::new(run.experiment_config());
    let report = sweep(&session, Classify::Dynamic, false, 0);

    // The one-consultation contract: one machine shape in the grid means one
    // key, one simulation per schedulable (shape, loop) pair, and no grid
    // point re-consulting the store for it.
    let stats = session.stats();
    let schedulable = (baseline.rows[0].frac_schedulable * baseline.corpus_size as f64).round();
    assert_eq!(stats.unique_keys, 1);
    assert!(stats.hits > 0, "the witnesses read their compilations back: {stats:?}");
    assert_eq!(stats.sim_runs, schedulable as u64, "one sim per schedulable pair: {stats:?}");
    assert_eq!(stats.sim_hits, 0, "no grid point may re-consult a simulation: {stats:?}");

    // Row-by-row first, for a readable diff when a fraction regresses.
    assert_eq!(report.rows.len(), baseline.rows.len());
    for (got, want) in report.rows.iter().zip(&baseline.rows) {
        assert_eq!(
            got, want,
            "sweep row diverged: {}q x {}c x {}d",
            want.queues_per_cluster, want.queue_capacity, want.link_depth
        );
    }
    assert_eq!(report, baseline);

    // And the serialized form must match byte for byte (catches format drift;
    // see the module docs for how to regenerate intentionally).
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(rendered.trim_end(), text.trim_end(), "serialized JSON drifted");
}

#[test]
fn pruned_rerun_matches_its_baseline_and_the_exhaustive_verdicts() {
    let (_, plain) = load_baseline();
    let path = pruned_baseline_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let baseline: SweepReport = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not a valid SweepReport: {e}", path.display()));

    // Verdict identity: the pruned golden differs from the plain golden only
    // by its accounting block.
    assert_eq!(baseline.rows, plain.rows, "pruning changed a verdict");
    let prune = baseline.prune.as_ref().expect("the pruned golden carries its accounting");
    assert_eq!(prune.pairs, prune.configs_compiled + prune.configs_pruned);
    assert!(
        prune.configs_compiled * 5 <= prune.pairs,
        "the small grid must already prune >=5x: {} consultations for {} pairs",
        prune.configs_compiled,
        prune.pairs
    );
    assert!(prune.audited > 0, "the golden bakes in a non-trivial audit sample");
    assert!(prune.audit_clean(), "an audited certificate disagreed with the compiler");

    // And the rerun must reproduce the file byte for byte (the audit sample
    // is seeded from the corpus seed, so its counts are deterministic too).
    let run = RunConfig {
        corpus_size: baseline.corpus_size,
        seed: baseline.seed,
        threads: None,
        prune: true,
        audit: prune.audited,
        ..RunConfig::default()
    };
    let session = Session::new(run.experiment_config());
    let report = sweep(&session, Classify::Dynamic, run.prune, run.audit);
    assert_eq!(report, baseline, "pruned sweep drifted from its golden");
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(rendered.trim_end(), text.trim_end(), "serialized JSON drifted");
}

#[test]
fn static_classification_reproduces_the_sweep_baseline() {
    // `figures sweep --classify static` must pin to the same golden file as
    // the dynamic run: the verifier's proved peaks classify every loop exactly
    // as the simulator's observed ones do, frontier marks included.
    let (_, baseline) = load_baseline();
    let run = RunConfig {
        corpus_size: baseline.corpus_size,
        seed: baseline.seed,
        threads: None,
        ..RunConfig::default()
    };
    let session = Session::new(run.experiment_config());
    let report = sweep(&session, Classify::Static, false, 0);
    assert_eq!(session.stats().sim_runs, 0, "the static sweep must not simulate");
    assert!(session.stats().verifications > 0);
    assert_eq!(report, baseline, "static classification drifted from the golden verdicts");
}
