//! `figures_cold`: the command people run.  Each pass builds a fresh
//! `Session` over a 256-loop corpus and runs every `figures all` driver on 2
//! threads; nearly all of it is the partitioner's II-retry/collapse tail.

use std::time::Instant;

use vliw_bench::{run_experiments_in, FiguresReport, Selection, RESOURCE_CLUSTER_COUNTS};
use vliw_core::experiments::{
    cluster_resources_experiment, copy_cost_experiment, fig3_experiment, fig4_experiment,
    fig6_experiment, fig8_experiment, fig9_experiment,
};
use vliw_core::session::SessionBuilder;
use vliw_core::{generate_corpus, CorpusConfig, Session};

use crate::layers::{put_stage_metrics, replay};
use crate::stats::{call_median_s, cpu_s, secs, Metrics, Tally};
use crate::{checks, cold_passes, points, put_passes, Args, CORPUS_SEED, THREADS};

const LOOPS: usize = 256;

fn session() -> Session {
    SessionBuilder::quick(LOOPS, CORPUS_SEED).threads(THREADS).build()
}

fn render(report: &FiguresReport) -> Result<String, String> {
    serde_json::to_string_pretty(report).map_err(|e| e.to_string())
}

/// One cold pass over a fresh session: `(pass seconds, report, session)`.
/// The session build is set-up, timed separately.
fn pass() -> Result<(f64, String, Session), String> {
    let session = session();
    let t = Instant::now();
    let report = run_experiments_in(&session, Selection::All).map_err(|e| e.to_string())?;
    let run = secs(t.elapsed());
    Ok((run, render(&report)?, session))
}

pub fn run(args: &Args, tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    if args.trace {
        return traced(tally, m);
    }
    let setup_s = call_median_s(31, 40, session);
    let (passes, session) = cold_passes(args.seconds, tally, pass)?;
    let quality = checks::recheck(&session, &points::figures_points(), tally);
    put_passes(m, setup_s, &passes, quality.geomean());
    Ok(())
}

/// Runs the driver `f` under a span: records `(name, wall ms)` in `times`.
fn timed<T>(
    times: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> Result<T, vliw_core::VliwError>,
) -> Result<T, String> {
    let t = Instant::now();
    let out = f().map_err(|e| e.to_string())?;
    times.push((name, secs(t.elapsed()) * 1e3));
    Ok(out)
}

fn traced(tally: &mut Tally, m: &mut Metrics) -> Result<(), String> {
    let loopgen_s =
        call_median_s(9, 5, || generate_corpus(&CorpusConfig::small(LOOPS, CORPUS_SEED)));

    // The untraced reference pass, then the same pass with a span around
    // every driver call.
    let (untraced_s, reference, _) = pass()?;
    let session = session();
    let cpu0 = cpu_s("self");
    let t = Instant::now();
    let mut times = Vec::new();
    let report = FiguresReport {
        corpus_size: session.config().corpus.num_loops,
        seed: session.config().corpus.seed,
        fig3: Some(timed(&mut times, "fig3", || fig3_experiment(&session))?),
        copy_cost: Some(timed(&mut times, "copy_cost", || copy_cost_experiment(&session))?),
        fig4: Some(timed(&mut times, "fig4", || fig4_experiment(&session))?),
        fig6: Some(timed(&mut times, "fig6", || fig6_experiment(&session))?),
        cluster_resources: Some(timed(&mut times, "resources", || {
            cluster_resources_experiment(&session, &RESOURCE_CLUSTER_COUNTS)
        })?),
        fig8_ipc: Some(timed(&mut times, "fig8", || fig8_experiment(&session))?),
        fig9_ipc: Some(timed(&mut times, "fig9", || fig9_experiment(&session))?),
    };
    let traced_s = secs(t.elapsed());
    let cpu = cpu_s("self") - cpu0;
    tally.check(render(&report)? == reference, || {
        "the traced pass's report differs from the untraced pass".to_string()
    });
    let stats = session.stats();

    let layers = replay(&session, &points::figures_points(), false, THREADS);
    tally.check_many(layers.pairs, layers.mismatches, || {
        "replayed II differs from the session's compilation".to_string()
    });

    put_stage_metrics(m, &layers);
    m.put("analysis.pareto_busy_ms", 0.0, "ms");
    m.put("analysis.pareto_rows", 0.0, "count");
    m.put("loopgen.busy_ms", loopgen_s * 1e3, "ms");
    crate::put_session_metrics(m, stats.compilations, stats.hits, traced_s, cpu);
    let driver = |name: &str| times.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    m.put("experiments.fig3_ms", driver("fig3"), "ms");
    m.put("experiments.copy_cost_ms", driver("copy_cost"), "ms");
    m.put("experiments.fig4_ms", driver("fig4"), "ms");
    m.put("experiments.fig6_ms", driver("fig6"), "ms");
    m.put("experiments.resources_ms", driver("resources"), "ms");
    m.put("experiments.ipc_ms", driver("fig8") + driver("fig9"), "ms");
    m.put("experiments.verify_ms", 0.0, "ms");
    m.put("experiments.sweep_pruned_ms", 0.0, "ms");
    crate::put_idle_serve_metrics(m);
    crate::put_trace_metrics(m, traced_s / untraced_s, layers.busy_ns() as f64 / 1e9, cpu);
    Ok(())
}
