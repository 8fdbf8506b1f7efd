//! The self-timed probe suite behind the `BENCH_session.json` perf-trend file.
//!
//! A fixed set of named probes, each timed with a plain warm-up + repeat loop
//! and reported as one mean, serialized to one small JSON document.  CI's
//! bench-smoke job runs the `perf` binary on every push, checks that every
//! listed probe is present, compares the result against the committed
//! `BENCH_session.json` and prints the per-probe delta — warn-only, no hard
//! gate.  The delta cannot be a gate: four back-to-back runs of one build on
//! a shared 2-vCPU container spread 1.10–1.82× per probe, and per-iteration
//! medians spread no less (1.10–2.16×), so a median field would not help.
//! The committed file is regenerated (same binary, `--out`) whenever a PR
//! deliberately moves the numbers, so the file's history *is* the perf
//! trajectory of the repo.
//!
//! Probes are named `group/probe`: `scheduler_micro/` (one pass over the
//! kernel set), `placement/` (the bare schedulers over the bench corpus, and
//! the partitioner over the huge grid's probe machines),
//! `session/`, `sweep_grid/` and `sweep/` (the memo store and sweep driver),
//! `report/` (the JSON encoder) and `figures/<request>_cold` (each `figures
//! all` request on a fresh session), so EXPERIMENTS.md tables and the trend
//! file speak the same language.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use vliw_core::experiments::{pruned_sweep_experiment_with, Classify, ExperimentConfig};
use vliw_core::pipeline::CompilerConfig;
use vliw_core::qrf::{allocate_queues, insert_copies, use_lifetimes};
use vliw_core::sched::{mii, modulo_schedule, ImsOptions};
use vliw_core::unroll::{unroll_ddg, DEFAULT_MAX_FACTOR};
use vliw_core::{
    kernels, partition_schedule, select_unroll_factor, LatencyModel, Machine, PartitionOptions,
    Session, SweepGrid,
};

use crate::{bench_config, requests_for, RunConfig, Selection, BENCH_CORPUS_LOOPS, BENCH_SEED};

/// Format version of the trend file; bump when probes change incompatibly.
pub const PERF_SCHEMA: u32 = 1;

/// One timed probe of the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfProbe {
    /// Stable probe name (`group/benchmark`).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations the mean was taken over.
    pub iters: u64,
}

/// The whole trend document — what `BENCH_session.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Format version ([`PERF_SCHEMA`]).
    pub schema: u32,
    /// Corpus size of the corpus-level probes.
    pub corpus_loops: usize,
    /// Corpus seed of the corpus-level probes.
    pub seed: u64,
    /// The probes, in suite order.
    pub probes: Vec<PerfProbe>,
}

impl PerfReport {
    /// Looks a probe up by name.
    pub fn probe(&self, name: &str) -> Option<&PerfProbe> {
        self.probes.iter().find(|p| p.name == name)
    }
}

/// Times `f`: one untimed warm-up call, then repeats until the probe has both
/// `min_iters` iterations and `min_millis` of accumulated wall clock (capped
/// at 100k iterations), reporting the mean.
pub fn time_probe<R>(
    name: &str,
    min_iters: u64,
    min_millis: u64,
    mut f: impl FnMut() -> R,
) -> PerfProbe {
    std::hint::black_box(f());
    let budget = std::time::Duration::from_millis(min_millis);
    let mut iters = 0u64;
    let mut elapsed = std::time::Duration::ZERO;
    while iters < min_iters || elapsed < budget {
        let start = Instant::now();
        std::hint::black_box(f());
        elapsed += start.elapsed();
        iters += 1;
        if iters >= 100_000 {
            break;
        }
    }
    PerfProbe {
        name: name.to_string(),
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        iters,
    }
}

/// Runs the standard suite and returns the trend document.
///
/// Kept deliberately small (seconds, not minutes): the corpus-level probes use
/// the 32-loop bench corpus ([`BENCH_CORPUS_LOOPS`]), the kernel-level probes
/// the shared kernel set.
pub fn collect() -> PerfReport {
    let lat = LatencyModel::default();
    let kernel_set = kernels::all_kernels(lat);
    let single12 = Machine::single_cluster(12, 4, 32, lat);
    let clustered = Machine::paper_clustered(4, lat);
    let paper6 = Machine::paper_single(6);
    let cfg = bench_config();

    let mut probes = Vec::new();

    // scheduler_micro — one iteration schedules the whole kernel set.
    let unrolled4: Vec<_> = kernel_set.iter().map(|lp| unroll_ddg(&lp.ddg, 4).ddg).collect();
    probes.push(time_probe("scheduler_micro/mii_x4", 5, 250, || {
        unrolled4.iter().map(|g| mii(g, &single12).unwrap()).sum::<u32>()
    }));
    probes.push(time_probe("scheduler_micro/modulo_schedule_x4", 5, 250, || {
        unrolled4
            .iter()
            .map(|g| modulo_schedule(g, &single12, ImsOptions::default()).unwrap().schedule.ii)
            .sum::<u32>()
    }));
    let bodies2: Vec<_> =
        kernel_set.iter().map(|lp| insert_copies(&unroll_ddg(&lp.ddg, 2).ddg, &lat).ddg).collect();
    probes.push(time_probe("scheduler_micro/partition_schedule_x2", 5, 250, || {
        bodies2
            .iter()
            .map(|g| {
                partition_schedule(g, &clustered, PartitionOptions::default()).unwrap().schedule.ii
            })
            .sum::<u32>()
    }));
    // allocator micro — queue allocation over precomputed lifetimes.
    let lifetime_sets: Vec<_> = kernel_set
        .iter()
        .map(|lp| {
            let body = insert_copies(&unroll_ddg(&lp.ddg, 4).ddg, &lat).ddg;
            let sched = modulo_schedule(&body, &single12, ImsOptions::default()).unwrap().schedule;
            let lts = use_lifetimes(&body, &sched);
            (lts, sched.ii)
        })
        .collect();
    probes.push(time_probe("scheduler_micro/allocate_queues", 5, 250, || {
        lifetime_sets.iter().map(|(lts, ii)| allocate_queues(lts, *ii).num_queues()).sum::<usize>()
    }));
    probes.push(time_probe("scheduler_micro/insert_copies", 5, 250, || {
        kernel_set.iter().map(|lp| insert_copies(&lp.ddg, &lat).num_copies()).sum::<usize>()
    }));

    // placement — cold scheduling of the whole bench corpus, single-cluster
    // and partitioned.
    let corpus_bodies: Vec<_> =
        cfg.corpus().iter().map(|lp| insert_copies(&lp.ddg, &lat).ddg).collect();
    probes.push(time_probe("placement/ims_corpus_cold", 5, 250, || {
        corpus_bodies
            .iter()
            .map(|g| modulo_schedule(g, &paper6, ImsOptions::default()).unwrap().schedule.ii)
            .sum::<u32>()
    }));
    probes.push(time_probe("placement/partition_corpus_cold", 5, 250, || {
        corpus_bodies
            .iter()
            .map(|g| {
                partition_schedule(g, &clustered, PartitionOptions::default()).unwrap().schedule.ii
            })
            .sum::<u32>()
    }));

    // The partitioner alone on the huge sweep grid's 60 probe machines (2–16
    // clusters, both FU mixes, ring, torus and crossbar), over the bodies the
    // pipeline schedules for the 8-loop corpus on each: the shapes the
    // paper-machine probes never reach.
    let corpus_8 = ExperimentConfig::quick(8, BENCH_SEED).corpus();
    let mut huge_configs = SweepGrid::Huge.space().configs();
    huge_configs.dedup_by_key(|c| c.shape());
    let huge_shapes: Vec<(Machine, Vec<_>)> = huge_configs
        .iter()
        .map(|config| {
            let machine = config.probe_machine(lat);
            let bodies = corpus_8
                .iter()
                .map(|lp| {
                    let factor = select_unroll_factor(&lp.ddg, &machine, DEFAULT_MAX_FACTOR);
                    insert_copies(&unroll_ddg(&lp.ddg, factor).ddg, &lat).ddg
                })
                .collect();
            (machine, bodies)
        })
        .collect();
    probes.push(time_probe("placement/partition_huge_shapes", 3, 500, || {
        huge_shapes
            .iter()
            .flat_map(|(machine, bodies)| bodies.iter().map(move |g| (machine, g)))
            .map(|(machine, g)| {
                partition_schedule(g, machine, PartitionOptions::default()).unwrap().schedule.ii
            })
            .sum::<u32>()
    }));

    // session — the cold compile path through the memo store, untraced and
    // with tracing spans recording.  The two sides are timed in *alternating*
    // iterations of one measurement window so machine-load drift hits both
    // equally: the traced/untraced ratio is what CI asserts (< 1.05), and on
    // a shared runner two windows seconds apart wobble by more than the
    // overhead being measured.
    let run_cold = || {
        let session = Session::new(cfg.clone());
        let compiler = session.compiler(CompilerConfig::paper_defaults(paper6.clone()));
        session.sweep(|i, _| compiler.compile(i).is_ok())
    };
    std::hint::black_box(run_cold());
    let budget = std::time::Duration::from_millis(500);
    let mut cold_elapsed = std::time::Duration::ZERO;
    let mut traced_elapsed = std::time::Duration::ZERO;
    let mut cold_iters = 0u64;
    while cold_iters < 5 || cold_elapsed + traced_elapsed < budget {
        let start = Instant::now();
        std::hint::black_box(run_cold());
        cold_elapsed += start.elapsed();
        // Clear the previous iteration's events outside the timed section so
        // the buffers stay bounded and every iteration pays the same
        // recording cost.
        vliw_obs::enable();
        vliw_obs::clear();
        let start = Instant::now();
        std::hint::black_box(run_cold());
        traced_elapsed += start.elapsed();
        vliw_obs::disable();
        cold_iters += 1;
        if cold_iters >= 100_000 {
            break;
        }
    }
    vliw_obs::clear();
    probes.push(PerfProbe {
        name: "session/compile_corpus_cold".to_string(),
        ns_per_iter: cold_elapsed.as_nanos() as f64 / cold_iters as f64,
        iters: cold_iters,
    });
    probes.push(PerfProbe {
        name: "session/compile_corpus_cold_traced".to_string(),
        ns_per_iter: traced_elapsed.as_nanos() as f64 / cold_iters as f64,
        iters: cold_iters,
    });
    // The same cold compile on the paper's 4-, 5- and 6-cluster ring machines,
    // where every loop goes through the partitioner (the single-cluster probe
    // above never calls it).
    let ring_configs =
        [4, 5, 6].map(|n| CompilerConfig::paper_defaults(Machine::paper_clustered(n, lat)));
    probes.push(time_probe("session/compile_corpus_cold_clustered", 5, 500, || {
        let session = Session::new(cfg.clone());
        ring_configs
            .iter()
            .map(|config| {
                let compiler = session.compiler(config.clone());
                session.sweep(|i, _| compiler.compile(i).is_ok())
            })
            .collect::<Vec<_>>()
    }));
    let warm = Session::new(cfg.clone());
    let warm_compiler = warm.compiler(CompilerConfig::paper_defaults(paper6.clone()));
    warm.sweep(|i, _| warm_compiler.compile(i).is_ok());
    probes.push(time_probe("session/compile_corpus_warm", 5, 250, || {
        warm.sweep(|i, _| warm_compiler.compile(i).is_ok())
    }));

    // session — static verification throughput over precompiled loops (the
    // per-loop cost `figures verify` pays once the compilations are cached).
    let compiler6 = vliw_core::Compiler::new(CompilerConfig::paper_defaults(paper6.clone()));
    let compiled: Vec<_> =
        cfg.corpus().iter().filter_map(|lp| compiler6.compile(lp).ok()).collect();
    probes.push(time_probe("session/verify_corpus", 5, 250, || {
        compiled
            .iter()
            .filter(|c| {
                vliw_core::verify::verify_with_allocation(
                    &c.transformed,
                    &paper6,
                    &c.schedule,
                    &c.queues,
                )
                .is_clean()
            })
            .count()
    }));
    // ...and the dynamic cost it replaces: simulating the same schedules to
    // steady state (N = 1000, the trip count the acceptance ratio quotes).
    probes.push(time_probe("session/sim_corpus_n1000", 2, 500, || {
        compiled
            .iter()
            .filter(|c| {
                vliw_core::sim::simulate(&c.transformed, &paper6, &c.schedule, 1000)
                    .expect("compiled schedules simulate")
                    .is_clean()
            })
            .count()
    }));

    // sweep_grid — the small design-space grid, dynamically classified (what
    // `figures sweep` runs by default): cold on a fresh session, then warm on
    // one session whose witnesses and bounds a first sweep already derived,
    // so the warm probe times the threshold transfer to the storage configs.
    let small_grid = |session: &Session| {
        pruned_sweep_experiment_with(session, SweepGrid::Small, Classify::Dynamic, 0).unwrap()
    };
    probes.push(time_probe("sweep_grid/small_grid_cold", 2, 500, || {
        small_grid(&Session::new(cfg.clone()))
    }));
    let warm_grid = Session::new(cfg.clone());
    small_grid(&warm_grid);
    probes.push(time_probe("sweep_grid/small_grid_warm", 5, 250, || small_grid(&warm_grid)));

    // sweep — statically classified grids.  `pruned_paper` pays the full
    // cold cost of the paper grid (3 shapes consulted, 192 configs recovered
    // by threshold transfer); `huge_smoke` re-runs the 103,680-config huge
    // grid on a warm session, where the 60 shapes' witnesses are store hits
    // and their bounds are reads of the session's analyzer memos, so it times
    // the driver's own work: the per-shape aggregation and row build, and the
    // Pareto frontier.
    probes.push(time_probe("sweep/pruned_paper", 2, 500, || {
        let session = Session::new(cfg.clone());
        pruned_sweep_experiment_with(&session, SweepGrid::Paper, Classify::Static, 0).unwrap()
    }));
    let huge_session = Session::new(cfg.clone());
    probes.push(time_probe("sweep/huge_smoke", 2, 500, || {
        pruned_sweep_experiment_with(&huge_session, SweepGrid::Huge, Classify::Static, 0).unwrap()
    }));

    // report — the report `figures sweep --grid huge --prune true --classify
    // static --corpus-size 8 --seed 386 --format json` prints (103,680 rows,
    // ~40 MB of pretty JSON), built once and streamed into `io::sink()`, so an
    // iteration times the encoder alone.
    let mut huge_8_cfg = ExperimentConfig::quick(8, BENCH_SEED);
    huge_8_cfg.threads = cfg.threads;
    let huge_8 = pruned_sweep_experiment_with(
        &Session::new(huge_8_cfg),
        SweepGrid::Huge,
        Classify::Static,
        0,
    )
    .unwrap();
    probes.push(time_probe("report/encode_huge_8", 3, 500, || {
        serde_json::to_writer_pretty(std::io::sink(), &huge_8).unwrap()
    }));

    // figures — each request of `figures all` on a fresh session, so an
    // iteration pays every compile and simulation that request needs.
    for request in requests_for(Selection::All, &RunConfig::default()) {
        let name = format!("figures/{}_cold", request.name());
        probes.push(time_probe(&name, 2, 250, || request.run(&Session::new(cfg.clone())).unwrap()));
    }

    PerfReport { schema: PERF_SCHEMA, corpus_loops: BENCH_CORPUS_LOOPS, seed: BENCH_SEED, probes }
}

/// Renders the per-probe delta of `current` against `baseline` as an aligned
/// table.  Informational only — the caller decides nothing on it (CI prints it
/// warn-only).
pub fn render_delta(current: &PerfReport, baseline: &PerfReport) -> String {
    let mut out =
        String::from("probe                                  baseline      current        delta\n");
    if baseline.schema != current.schema {
        out.push_str(&format!(
            "(schema changed {} -> {}; deltas may not be comparable)\n",
            baseline.schema, current.schema
        ));
    }
    for probe in &current.probes {
        let line = match baseline.probe(&probe.name) {
            Some(base) if base.ns_per_iter > 0.0 => {
                let delta = 100.0 * (probe.ns_per_iter - base.ns_per_iter) / base.ns_per_iter;
                format!(
                    "{:<38} {:>10.1}us {:>10.1}us {:>+10.1}%\n",
                    probe.name,
                    base.ns_per_iter / 1e3,
                    probe.ns_per_iter / 1e3,
                    delta
                )
            }
            _ => format!(
                "{:<38} {:>12} {:>10.1}us {:>11}\n",
                probe.name,
                "-",
                probe.ns_per_iter / 1e3,
                "new"
            ),
        };
        out.push_str(&line);
    }
    for base in &baseline.probes {
        if current.probe(&base.name).is_none() {
            out.push_str(&format!("{:<38} (probe removed)\n", base.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(probes: &[(&str, f64)]) -> PerfReport {
        PerfReport {
            schema: PERF_SCHEMA,
            corpus_loops: BENCH_CORPUS_LOOPS,
            seed: BENCH_SEED,
            probes: probes
                .iter()
                .map(|(name, ns)| PerfProbe { name: name.to_string(), ns_per_iter: *ns, iters: 10 })
                .collect(),
        }
    }

    #[test]
    fn time_probe_counts_its_iterations() {
        let mut calls = 0u64;
        let probe = time_probe("test/probe", 7, 0, || calls += 1);
        assert_eq!(probe.name, "test/probe");
        assert_eq!(probe.iters, 7);
        // One warm-up call on top of the timed iterations.
        assert_eq!(calls, 8);
        assert!(probe.ns_per_iter >= 0.0);
    }

    #[test]
    fn delta_table_covers_changed_new_and_removed_probes() {
        let baseline = report(&[("a/one", 1000.0), ("a/gone", 500.0)]);
        let current = report(&[("a/one", 1500.0), ("a/new", 2000.0)]);
        let table = render_delta(&current, &baseline);
        assert!(table.contains("a/one"));
        assert!(table.contains("+50.0%"));
        assert!(table.contains("a/new"));
        assert!(table.contains("new"));
        assert!(table.contains("a/gone"));
        assert!(table.contains("removed"));
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = report(&[("a/one", 123.4)]);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
