//! `sweep_huge`: one cold pass of the certificate-pruned design-space sweep
//! over `SweepGrid::Huge` (103,680 configs, 60 shapes) with static
//! classification, on an 8-loop corpus.  The small corpus keeps compilation
//! to a minor share, so the Pareto pass and the pruned aggregation dominate;
//! it is also the only workload that calls the verifier and the bounds
//! analyzer.

use std::time::Instant;

use vliw_core::analysis::mark_pareto;
use vliw_core::experiments::{pruned_sweep_experiment_with, Classify, SweepReport};
use vliw_core::session::SessionBuilder;
use vliw_core::{generate_corpus, CorpusConfig, Session, SweepGrid};

use crate::layers::{put_stage_metrics, replay};
use crate::stats::{call_median_s, cpu_s, secs, Metrics, Tally};
use crate::{checks, cold_passes, points, put_passes, Args, CORPUS_SEED, THREADS};

const LOOPS: usize = 8;
const GRID: SweepGrid = SweepGrid::Huge;
/// Pruned verdicts re-derived through the exhaustive path per pass.
const AUDIT: usize = 64;
/// Rows whose Pareto flag is re-derived by linear scan per run.
const PARETO_SAMPLES: usize = 2048;

fn session() -> Session {
    SessionBuilder::quick(LOOPS, CORPUS_SEED).threads(THREADS).build()
}

fn sweep(session: &Session) -> Result<SweepReport, String> {
    pruned_sweep_experiment_with(session, GRID, Classify::Static, AUDIT).map_err(|e| e.to_string())
}

fn render(report: &SweepReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| e.to_string())
}

/// One cold pass over a fresh session: `(pass seconds, report, session)`.
/// The session build is set-up, timed separately.
fn pass() -> Result<(f64, SweepReport, Session), String> {
    let session = session();
    let t = Instant::now();
    let report = sweep(&session)?;
    Ok((secs(t.elapsed()), report, session))
}

/// Checks the parts of a report the code under test could get wrong without
/// any other check noticing: the grid size, the audit, and the frontier.
fn check_report(report: &SweepReport, seed: u64, tally: &mut Tally) {
    tally.check(report.rows.len() == GRID.space().num_configs(), || {
        format!("{} rows for {} configs", report.rows.len(), GRID.space().num_configs())
    });
    match &report.prune {
        Some(p) => tally.check_many(p.audited as u64, (p.audited - p.audit_agreed) as u64, || {
            "pruned verdicts disagree with the exhaustive audit".to_string()
        }),
        None => tally.check(false, || "the pruned sweep reported no accounting".to_string()),
    }
    let wrong = checks::pareto_spot_check(&report.rows, PARETO_SAMPLES, seed);
    tally.check_many(PARETO_SAMPLES as u64, wrong, || {
        "pareto flags disagree with the linear-scan definition".to_string()
    });
}

pub fn run(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    if args.trace {
        return traced(args, tally, m);
    }
    let setup_s = call_median_s(31, 2000, session);
    let (passes, (report, session)) = cold_passes(args.seconds, tally, || {
        let (run, report, session) = pass()?;
        Ok((run, render(&report)?, (report, session)))
    })?;
    check_report(&report, args.seed, tally);
    let quality = checks::recheck(&session, &points::sweep_points(GRID), tally);
    put_passes(m, setup_s, &passes, quality.geomean());
    Ok(())
}

fn traced(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let loopgen_s =
        call_median_s(9, 5, || generate_corpus(&CorpusConfig::small(LOOPS, CORPUS_SEED)));

    let (untraced_s, reference, _) = pass()?;
    let session = session();
    let cpu0 = cpu_s("self");
    let t = Instant::now();
    let report = sweep(&session)?;
    let traced_s = secs(t.elapsed());
    let cpu = cpu_s("self") - cpu0;
    tally.check(render(&report)? == render(&reference)?, || {
        "the traced pass's report differs from the untraced pass".to_string()
    });
    check_report(&report, args.seed, tally);
    let stats = session.stats();

    let layers = replay(&session, &points::sweep_points(GRID), true, THREADS);
    tally.check_many(layers.pairs, layers.mismatches, || {
        "replayed II differs from the session's compilation".to_string()
    });
    let mut rows = report.rows.clone();
    for row in &mut rows {
        row.pareto = false;
    }
    let t = Instant::now();
    mark_pareto(&mut rows);
    let pareto_s = secs(t.elapsed());
    tally.check(rows == report.rows, || "mark_pareto replay changed a flag".to_string());

    put_stage_metrics(m, &layers);
    m.put("analysis.pareto_busy_ms", pareto_s * 1e3, "ms");
    m.put("analysis.pareto_rows", rows.len() as f64, "count");
    m.put("loopgen.busy_ms", loopgen_s * 1e3, "ms");
    crate::put_session_metrics(m, stats.compilations, stats.hits, traced_s, cpu);
    for driver in ["fig3", "copy_cost", "fig4", "fig6", "resources", "ipc", "verify"] {
        m.put(format!("experiments.{driver}_ms"), 0.0, "ms");
    }
    m.put("experiments.sweep_pruned_ms", traced_s * 1e3, "ms");
    crate::put_idle_serve_metrics(m);
    let busy = layers.busy_ns() as f64 / 1e9 + pareto_s;
    crate::put_trace_metrics(m, traced_s / untraced_s, busy, cpu);
    Ok(())
}
