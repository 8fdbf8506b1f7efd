//! Shared machinery of the benchmark harness and the `figures` experiment CLI.
//!
//! The `vliw-bench` crate regenerates every table and figure of the paper's
//! evaluation:
//!
//! * `cargo run --release -p vliw-bench --bin figures -- all` prints the data
//!   series of Figs. 3, 4, 6, 8 and 9 plus the Section-2 copy-cost statistics and
//!   the Section-4 cluster-resource sizing (EXPERIMENTS.md records that output);
//!   `--format json` emits the same data as a machine-readable [`FiguresReport`],
//!   which the golden-baseline regression test diffs against
//!   `baselines/figures_small.json`;
//! * `cargo run --release -p vliw-bench --bin perf` times the scheduler passes,
//!   the session layer and every experiment driver ([`perf`]).
//!
//! All experiments run through one shared [`Session`] per invocation: the corpus
//! is generated once, overlapping sweep points across drivers compile once, and
//! the CLI reports the session's cache statistics (stdout in text mode, a small
//! JSON object on stderr in JSON mode — stdout stays byte-identical to the
//! baseline format).  Every selection becomes a batch of
//! [`ExperimentRequest`]s ([`requests_for`]) executed through
//! [`ExperimentRequest::run`] — in this process or in a `vliw-serve` daemon —
//! and the responses are assembled ([`assemble_report`]) or rendered
//! ([`render_section`]) the same way either side ran them.

pub mod cli;
pub mod client;
pub mod perf;

use serde::{Deserialize, Serialize};
use vliw_core::experiments::{
    Classify, ClusterResourcesRow, CopyCostRow, ExperimentConfig, ExperimentRequest,
    ExperimentResponse, Fig3Row, Fig4Row, Fig6Row, IpcCurvePoint, SweepReport,
};
use vliw_core::pipeline::CompilerConfig;
use vliw_core::session::{compile_stream, Session, SessionStats, StreamConfig, StreamReport};
use vliw_core::{Machine, SweepGrid, VliwError};

pub use client::{validate_server, ServeClient};

/// Corpus size used by the `perf` probes and the CI bench-smoke run.
///
/// The probes time the experiment *machinery*; a few dozen loops keep each
/// iteration affordable while exercising every code path.  The `figures` binary uses
/// the full 1258-loop corpus by default instead.
pub const BENCH_CORPUS_LOOPS: usize = 32;

/// Seed shared by the probes so their corpora are identical across runs.
pub const BENCH_SEED: u64 = 386;

/// Number of loops of the paper's benchmark suite (the default `figures` corpus).
pub const PAPER_CORPUS_LOOPS: usize = 1258;

/// Cluster counts evaluated by the cluster-resource driver (the paper's machines).
pub const RESOURCE_CLUSTER_COUNTS: [usize; 3] = [4, 5, 6];

/// The experiment configuration used by the `perf` probes.
pub fn bench_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(BENCH_CORPUS_LOOPS, BENCH_SEED);
    // Keep the sweep modestly parallel so the probes read alike on every host.
    cfg.threads = cfg.threads.min(4);
    cfg
}

/// Output format of the `figures` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable aligned tables (the EXPERIMENTS.md format).
    Text,
    /// A machine-readable [`FiguresReport`] as pretty-printed JSON.
    Json,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("unknown format `{other}` (expected `text` or `json`)")),
        }
    }
}

/// Which experiments a `figures` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Fig. 3 — number of queues required.
    Fig3,
    /// Section 2 — II / stage-count cost of copy insertion.
    CopyCost,
    /// Fig. 4 — II speedup from loop unrolling.
    Fig4,
    /// Fig. 6 — II variation of the partitioned schedules.
    Fig6,
    /// Fig. 7 / Section 4 — queue demand per cluster and ring link.
    Resources,
    /// Figs. 8 and 9 — static/dynamic IPC curves.
    Ipc,
    /// Cycle-accurate simulation: dynamic verification plus simulated IPC.
    ///
    /// Deliberately **not** part of [`Selection::All`]: the simulated-IPC
    /// report is a separate document ([`SimulateReport`]) with its own golden
    /// baseline, and `figures all` stdout must stay byte-identical to
    /// `baselines/figures_small.json`.
    Simulate,
    /// The Fig. 7 machine design-space sweep.
    ///
    /// Like [`Selection::Simulate`], excluded from [`Selection::All`]: its
    /// report ([`SweepReport`]) is a separate document pinned by
    /// `baselines/sweep_small.json`.
    Sweep,
    /// Streamed corpus compilation: bounded shards, flat memory, aggregate
    /// metrics only ([`StreamReport`]).
    ///
    /// Excluded from [`Selection::All`] like the other separate documents,
    /// and strictly in-process: the run exists to measure *this* process's
    /// memory behaviour, so `--server` is rejected.
    Stream,
    /// Static verification: the execution-free soundness proof of every
    /// schedule ([`VerifyReport`]), the fast counterpart of
    /// [`Selection::Simulate`].
    ///
    /// Excluded from [`Selection::All`] like the other separate documents;
    /// its report is pinned by `baselines/verify_small.json`.
    Verify,
    /// Scrape a `vliw-serve` daemon's telemetry (Prometheus text exposition).
    ///
    /// Strictly remote: the metrics live in the daemon's process, so the
    /// `figures` CLI rejects it without `--server`.  Not part of
    /// [`Selection::All`].
    Metrics,
    /// Every figure experiment (everything above except `Simulate`, `Sweep`,
    /// `Stream`, `Verify` and `Metrics`).
    All,
}

impl Selection {
    /// Maps a `figures` subcommand name to a selection.
    pub fn from_subcommand(name: &str) -> Option<Selection> {
        match name {
            "fig3" => Some(Selection::Fig3),
            "copy-cost" => Some(Selection::CopyCost),
            "fig4" => Some(Selection::Fig4),
            "fig6" => Some(Selection::Fig6),
            "resources" => Some(Selection::Resources),
            "ipc" => Some(Selection::Ipc),
            "simulate" => Some(Selection::Simulate),
            "sweep" => Some(Selection::Sweep),
            "stream" => Some(Selection::Stream),
            "verify" => Some(Selection::Verify),
            "metrics" => Some(Selection::Metrics),
            "all" => Some(Selection::All),
            _ => None,
        }
    }

    fn runs(self, which: Selection) -> bool {
        match self {
            // `all` is the figure sweep; the simulation, design-space,
            // streamed-compile and verification reports are separate documents
            // (see [`Selection::Simulate`], [`Selection::Sweep`],
            // [`Selection::Stream`] and [`Selection::Verify`]).
            Selection::All => {
                which != Selection::Simulate
                    && which != Selection::Sweep
                    && which != Selection::Stream
                    && which != Selection::Verify
                    && which != Selection::Metrics
            }
            s => s == which,
        }
    }
}

/// Parameters of a `figures` run, resolved from the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of loops in the synthetic corpus.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Worker threads for the corpus sweeps (`None` = the driver default).
    pub threads: Option<usize>,
    /// Output format.
    pub format: OutputFormat,
    /// Design-space grid preset of the `sweep` subcommand (ignored by every
    /// other selection).
    pub grid: SweepGrid,
    /// Classification mode of the `sweep` subcommand: dynamic (simulate each
    /// loop) or static (prove the peaks with the verifier).  Ignored by every
    /// other selection.
    pub classify: Classify,
    /// Attach the sweep driver's certificate accounting to the report and
    /// allow `audit` (the `sweep` subcommand's `--prune true`); the rows are
    /// the same either way.  Ignored by every other selection.
    pub prune: bool,
    /// Number of seeded-random (config, loop) pairs the sweep re-derives
    /// through the per-config classification to audit verdict agreement (the
    /// `sweep` subcommand's `--audit N`; 0 = no audit).  Ignored without
    /// `prune`.
    pub audit: usize,
    /// Shard size of the `stream` subcommand (ignored by every other
    /// selection).
    pub shard_size: usize,
    /// Address of a `vliw-serve` daemon to run against (`None` = in-process).
    pub server: Option<String>,
    /// Directory of the persistent artifact cache for in-process runs
    /// (`None` = in-memory only; ignored with `--server` — the daemon owns
    /// its own cache).
    pub cache_dir: Option<std::path::PathBuf>,
    /// File to write a Chrome `trace_event` JSON capture of this run to
    /// (`None` = tracing stays disabled).  In-process runs only: the spans
    /// live in this process, so `--trace` is rejected with `--server`.
    pub trace: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// The experiment-driver configuration for this run.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(self.corpus_size, self.seed);
        if let Some(t) = self.threads {
            cfg.threads = t.max(1);
        }
        cfg.cache_dir = self.cache_dir.clone();
        cfg
    }

    /// The streamed-compile configuration for this run (the `stream`
    /// subcommand).
    pub fn stream_config(&self) -> StreamConfig {
        let mut cfg = StreamConfig::new(self.corpus_size, self.seed);
        cfg.shard_size = self.shard_size;
        if let Some(t) = self.threads {
            cfg.threads = t.max(1);
        }
        cfg
    }
}

impl Default for RunConfig {
    /// The default `figures` run: the paper-sized corpus with the paper seed, so a
    /// library caller and a flagless CLI invocation produce the same report.
    fn default() -> Self {
        RunConfig {
            corpus_size: PAPER_CORPUS_LOOPS,
            seed: vliw_core::CorpusConfig::paper_default().seed,
            threads: None,
            format: OutputFormat::Text,
            grid: SweepGrid::Small,
            classify: Classify::default(),
            prune: false,
            audit: 0,
            shard_size: vliw_core::session::DEFAULT_SHARD_SIZE,
            server: None,
            cache_dir: None,
            trace: None,
        }
    }
}

/// Everything one `figures` run produced.  Experiments that were not selected stay
/// `None` and are omitted-as-null in the JSON output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiguresReport {
    /// Number of loops in the corpus the run evaluated.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Fig. 3 rows, if selected.
    pub fig3: Option<Vec<Fig3Row>>,
    /// Copy-cost rows, if selected.
    pub copy_cost: Option<Vec<CopyCostRow>>,
    /// Fig. 4 rows, if selected.
    pub fig4: Option<Vec<Fig4Row>>,
    /// Fig. 6 rows, if selected.
    pub fig6: Option<Vec<Fig6Row>>,
    /// Cluster-resource rows, if selected.
    pub cluster_resources: Option<Vec<ClusterResourcesRow>>,
    /// Fig. 8 IPC curve (all loops), if selected.
    pub fig8_ipc: Option<Vec<IpcCurvePoint>>,
    /// Fig. 9 IPC curve (resource-constrained loops), if selected.
    pub fig9_ipc: Option<Vec<IpcCurvePoint>>,
}

/// Runs the selected figure experiments over a shared compilation session:
/// the selection's [`requests_for`] batch through [`ExperimentRequest::run`],
/// assembled into one report.
///
/// The corpus is generated once (by the session), identical sweep points across
/// drivers compile once, and `session.stats()` afterwards tells how much work the
/// cache shared — the `figures` CLI reports those numbers.  Selections that are
/// not figure runs (`simulate`, `sweep`, `stream`, `verify`, `metrics` — their
/// reports are separate documents) are rejected as
/// [`VliwError::InvalidRequest`] before any work.
pub fn run_experiments_in(
    session: &Session,
    selection: Selection,
) -> Result<FiguresReport, VliwError> {
    if !Selection::All.runs(selection) {
        return Err(VliwError::InvalidRequest(format!(
            "{selection:?} produces its own report document, not a figure report"
        )));
    }
    let responses = requests_for(selection, &RunConfig::default())
        .iter()
        .map(|request| request.run(session))
        .collect::<Result<_, _>>()?;
    let corpus = &session.config().corpus;
    assemble_report(corpus.num_loops, corpus.seed, responses)
}

/// Runs the streamed-compile experiment (the `figures stream` subcommand):
/// the configured corpus flows through the paper's 6-FU single-cluster
/// compile pipeline in bounded shards, never materialised whole, and only the
/// aggregate [`StreamReport`] survives.  Strictly in-process — no session, no
/// memo store, no daemon — because the report's `peak_rss_kb` is the
/// flat-memory evidence the 100k-loop CI smoke asserts on.
pub fn run_stream(run: &RunConfig) -> Result<StreamReport, VliwError> {
    compile_stream(&run.stream_config(), CompilerConfig::paper_defaults(Machine::paper_single(6)))
}

/// Renders a streamed-compile report in the human-readable EXPERIMENTS.md
/// format.
pub fn render_stream_text(report: &StreamReport) -> String {
    let mut out = format!(
        "## Streamed corpus compile — {} loops in {} shards of {}\n\n\
         compiled        = {} ({} failed)\n\
         mean II         = {:.3}\n\
         mean MII        = {:.3}\n\
         II == MII       = {:.1}% of compiled loops\n\
         mean queues     = {:.3}\n\
         max queue depth = {}\n",
        report.corpus_size,
        report.shards,
        report.shard_size,
        report.compiled,
        report.failed,
        report.mean_ii,
        report.mean_mii,
        100.0 * report.mii_achieved_fraction,
        report.mean_queues,
        report.max_queue_depth,
    );
    if let Some(kb) = report.peak_rss_kb {
        out.push_str(&format!("peak RSS        = {kb} kB\n"));
    }
    out
}

/// The requests a `figures` selection translates to, in report order.
///
/// [`Selection::Ipc`] expands to both IPC curves; [`Selection::All`] to the
/// full figure sweep (everything a [`FiguresReport`] holds).  Only
/// [`Selection::Sweep`] reads `run` (its grid, classify, prune and audit).
pub fn requests_for(selection: Selection, run: &RunConfig) -> Vec<ExperimentRequest> {
    match selection {
        Selection::Simulate => vec![ExperimentRequest::Simulate],
        Selection::Sweep => vec![ExperimentRequest::Sweep {
            grid: run.grid,
            classify: run.classify,
            prune: run.prune,
            audit: run.audit,
        }],
        Selection::Verify => vec![ExperimentRequest::Verify],
        // A streamed run has no wire form: it measures this process's memory,
        // so the `figures` binary rejects `--server` before asking.
        Selection::Stream => Vec::new(),
        // A metrics scrape is a protocol-level frame, not an experiment; the
        // `figures` binary sends it through `ServeClient::metrics` directly.
        Selection::Metrics => Vec::new(),
        _ => {
            let mut requests = Vec::new();
            if selection.runs(Selection::Fig3) {
                requests.push(ExperimentRequest::Fig3);
            }
            if selection.runs(Selection::CopyCost) {
                requests.push(ExperimentRequest::CopyCost);
            }
            if selection.runs(Selection::Fig4) {
                requests.push(ExperimentRequest::Fig4);
            }
            if selection.runs(Selection::Fig6) {
                requests.push(ExperimentRequest::Fig6);
            }
            if selection.runs(Selection::Resources) {
                requests.push(ExperimentRequest::Resources {
                    cluster_counts: RESOURCE_CLUSTER_COUNTS.to_vec(),
                });
            }
            if selection.runs(Selection::Ipc) {
                requests.push(ExperimentRequest::Fig8);
                requests.push(ExperimentRequest::Fig9);
            }
            requests
        }
    }
}

/// Assembles a [`FiguresReport`] from figure-run responses.
///
/// The responses self-identify, so order does not matter; a `simulate`,
/// `sweep` or `verify` document in the batch is a protocol error (those are
/// separate reports, never part of a figure run).
pub fn assemble_report(
    corpus_size: usize,
    seed: u64,
    responses: Vec<ExperimentResponse>,
) -> Result<FiguresReport, VliwError> {
    let mut report = FiguresReport {
        corpus_size,
        seed,
        fig3: None,
        copy_cost: None,
        fig4: None,
        fig6: None,
        cluster_resources: None,
        fig8_ipc: None,
        fig9_ipc: None,
    };
    for response in responses {
        match response {
            ExperimentResponse::Fig3(rows) => report.fig3 = Some(rows),
            ExperimentResponse::CopyCost(rows) => report.copy_cost = Some(rows),
            ExperimentResponse::Fig4(rows) => report.fig4 = Some(rows),
            ExperimentResponse::Fig6(rows) => report.fig6 = Some(rows),
            ExperimentResponse::Resources(rows) => report.cluster_resources = Some(rows),
            ExperimentResponse::Fig8(points) => report.fig8_ipc = Some(points),
            ExperimentResponse::Fig9(points) => report.fig9_ipc = Some(points),
            other @ (ExperimentResponse::Simulate(_)
            | ExperimentResponse::Sweep(_)
            | ExperimentResponse::Verify(_)) => {
                return Err(VliwError::Protocol(format!(
                    "a figure report cannot hold a `{}` document",
                    other.name()
                )))
            }
        }
    }
    Ok(report)
}

/// Renders one response as a text section in the EXPERIMENTS.md format: a
/// `##` title over [`ExperimentResponse::render_table`], followed, for a sweep
/// that asked for it, by the certificate accounting.
pub fn render_section(response: &ExperimentResponse) -> String {
    let title: String = match response {
        ExperimentResponse::Fig3(_) => "Fig. 3 — Number of queues (cumulative % of loops)".into(),
        ExperimentResponse::CopyCost(_) => "Section 2 — Cost of copy operations".into(),
        ExperimentResponse::Fig4(_) => "Fig. 4 — II speedup from loop unrolling".into(),
        ExperimentResponse::Fig6(_) => "Fig. 6 — II variation of partitioned schedules".into(),
        ExperimentResponse::Resources(_) => "Fig. 7 / Section 4 — Cluster resource sizing".into(),
        ExperimentResponse::Fig8(_) => "Fig. 8 — Operations issued per cycle (all loops)".into(),
        ExperimentResponse::Fig9(_) => {
            "Fig. 9 — Operations issued per cycle (resource-constrained loops)".into()
        }
        ExperimentResponse::Simulate(report) => format!(
            "Simulated IPC — cycle-accurate execution (trip counts {:?})",
            report.trip_counts
        ),
        ExperimentResponse::Sweep(report) => format!(
            "Fig. 7 design-space sweep — grid `{}` ({} configs, {} machine shapes, N = {})",
            report.grid, report.configs, report.shapes, report.trip_count
        ),
        ExperimentResponse::Verify(report) => format!(
            "Static verification — execution-free soundness proof ({} loops)",
            report.corpus_size
        ),
    };
    let mut out = format!("## {title}\n\n{}\n", response.render_table());
    if let ExperimentResponse::Sweep(SweepReport { prune: Some(prune), .. }) = response {
        out.push_str(&format!(
            "\n## Certificate pruning\n\n\
             (config, loop) pairs  = {}\n\
             consultations         = {}\n\
             pruned                = {} ({:.1}%)\n",
            prune.pairs,
            prune.configs_compiled,
            prune.configs_pruned,
            100.0 * prune.pruning_ratio,
        ));
        for code in &prune.codes {
            out.push_str(&format!("{:<22}= {}\n", code.code, code.count));
        }
        if prune.audited > 0 {
            out.push_str(&format!(
                "audited               = {} ({} agreed)\n",
                prune.audited, prune.audit_agreed
            ));
        }
    }
    out
}

/// Renders session cache statistics in the text-output format.
pub fn render_stats(stats: &SessionStats) -> String {
    let mut out = format!(
        "## Compilation-session cache\n\n\
         compilations = {}\ncache hits   = {}\nunique keys  = {}\n",
        stats.compilations, stats.hits, stats.unique_keys
    );
    if stats.sim_runs > 0 || stats.sim_hits > 0 {
        out.push_str(&format!(
            "simulations  = {}\nsim hits     = {}\n",
            stats.sim_runs, stats.sim_hits
        ));
    }
    if stats.verifications > 0 || stats.verify_hits > 0 {
        out.push_str(&format!(
            "verifications= {}\nverify hits  = {}\n",
            stats.verifications, stats.verify_hits
        ));
    }
    if stats.disk_hits > 0 || stats.sim_disk_hits > 0 {
        out.push_str(&format!(
            "disk hits    = {} compile, {} sim\n",
            stats.disk_hits, stats.sim_disk_hits
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::experiments::{SimulateReport, VerifyReport};

    #[test]
    fn bench_config_is_small_and_deterministic() {
        let a = bench_config();
        let b = bench_config();
        assert_eq!(a.corpus.num_loops, BENCH_CORPUS_LOOPS);
        assert_eq!(a.corpus.seed, BENCH_SEED);
        assert_eq!(a.corpus().len(), b.corpus().len());
    }

    #[test]
    fn selection_covers_every_subcommand() {
        for (name, expected) in [
            ("fig3", Selection::Fig3),
            ("copy-cost", Selection::CopyCost),
            ("fig4", Selection::Fig4),
            ("fig6", Selection::Fig6),
            ("resources", Selection::Resources),
            ("ipc", Selection::Ipc),
            ("simulate", Selection::Simulate),
            ("sweep", Selection::Sweep),
            ("stream", Selection::Stream),
            ("verify", Selection::Verify),
            ("all", Selection::All),
        ] {
            assert_eq!(Selection::from_subcommand(name), Some(expected));
        }
        assert_eq!(Selection::from_subcommand("fig5"), None);
    }

    #[test]
    fn all_does_not_include_the_simulation_report() {
        // `figures all` stdout is pinned by baselines/figures_small.json; the
        // simulated-IPC report is a separate document with its own baseline.
        assert!(!Selection::All.runs(Selection::Simulate));
        assert!(!Selection::All.runs(Selection::Sweep));
        assert!(!Selection::All.runs(Selection::Stream));
        assert!(!Selection::All.runs(Selection::Verify));
        assert!(!Selection::All.runs(Selection::Metrics));
        let run = RunConfig::default();
        assert!(requests_for(Selection::Metrics, &run).is_empty());
        assert!(Selection::Simulate.runs(Selection::Simulate));
        assert!(Selection::Sweep.runs(Selection::Sweep));
        assert!(Selection::Stream.runs(Selection::Stream));
        assert!(Selection::Verify.runs(Selection::Verify));
        assert!(!Selection::Simulate.runs(Selection::Fig3));
        assert!(!Selection::Sweep.runs(Selection::Fig3));
        assert!(!Selection::Stream.runs(Selection::Fig3));
        assert!(!Selection::Verify.runs(Selection::Fig3));
        assert!(requests_for(Selection::Stream, &run).is_empty());
        assert_eq!(requests_for(Selection::Verify, &run), vec![ExperimentRequest::Verify]);
        let run = RunConfig { classify: Classify::Static, ..run };
        assert_eq!(
            requests_for(Selection::Sweep, &run),
            vec![ExperimentRequest::Sweep {
                grid: SweepGrid::Small,
                classify: Classify::Static,
                prune: false,
                audit: 0
            }]
        );
        let run = RunConfig { grid: SweepGrid::Huge, prune: true, audit: 64, ..run };
        assert_eq!(
            requests_for(Selection::Sweep, &run),
            vec![ExperimentRequest::Sweep {
                grid: SweepGrid::Huge,
                classify: Classify::Static,
                prune: true,
                audit: 64
            }]
        );
    }

    #[test]
    fn simulate_run_reports_cleanly_and_renders() {
        let run = RunConfig { corpus_size: 6, seed: 5, threads: Some(2), ..RunConfig::default() };
        let session = Session::new(run.experiment_config());
        let response = ExperimentRequest::Simulate.run(&session).unwrap();
        let ExperimentResponse::Simulate(report) = &response else { unreachable!() };
        assert_eq!(report.corpus_size, 6);
        assert_eq!(report.total_violations(), 0);
        assert!(session.stats().sim_runs > 0);
        let text = render_section(&response);
        assert!(text.contains("Simulated IPC"));
        assert!(text.contains("violations"));
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: SimulateReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(&back, report);
    }

    #[test]
    fn verify_run_reports_cleanly_and_renders() {
        let run = RunConfig { corpus_size: 6, seed: 5, threads: Some(2), ..RunConfig::default() };
        let session = Session::new(run.experiment_config());
        let response = ExperimentRequest::Verify.run(&session).unwrap();
        let ExperimentResponse::Verify(report) = &response else { unreachable!() };
        assert_eq!(report.corpus_size, 6);
        // Schedule faults indict the pipeline and must be zero; capacity
        // faults are a machine-sizing verdict and may legitimately fire
        // (the simulate driver files those under `loops_overflowing_queues`).
        for row in &report.rows {
            assert_eq!(row.schedule_faults, 0, "{}: unsound schedule", row.machine);
        }
        assert!(session.stats().verifications > 0);
        assert_eq!(session.stats().sim_runs, 0, "verification must not simulate");
        let text = render_section(&response);
        assert!(text.contains("Static verification"));
        assert!(text.contains("sched faults"));
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: VerifyReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(&back, report);
    }

    /// Runs one sweep request over `session` and returns the response.
    fn sweep(
        session: &Session,
        classify: Classify,
        prune: bool,
        audit: usize,
    ) -> ExperimentResponse {
        ExperimentRequest::Sweep { grid: SweepGrid::Small, classify, prune, audit }
            .run(session)
            .unwrap()
    }

    #[test]
    fn static_sweep_run_matches_the_dynamic_one() {
        let run = RunConfig { corpus_size: 8, seed: 386, threads: Some(2), ..RunConfig::default() };
        let session = Session::new(run.experiment_config());
        let dynamic = sweep(&session, Classify::Dynamic, false, 0);
        let static_ = sweep(&session, Classify::Static, false, 0);
        assert_eq!(static_, dynamic, "classification modes must agree row for row");
    }

    #[test]
    fn pruned_sweep_run_matches_the_unpruned_one_and_renders_accounting() {
        let run = RunConfig { corpus_size: 8, seed: 386, threads: Some(2), ..RunConfig::default() };
        let session = Session::new(run.experiment_config());
        let plain = sweep(&session, Classify::Static, false, 0);
        let pruned = sweep(&session, Classify::Static, true, 16);
        let (ExperimentResponse::Sweep(plain_report), ExperimentResponse::Sweep(pruned_report)) =
            (&plain, &pruned)
        else {
            unreachable!()
        };
        assert_eq!(pruned_report.rows, plain_report.rows, "the accounting must not move a verdict");
        let prune = pruned_report.prune.as_ref().expect("a pruned run carries its accounting");
        assert_eq!(prune.audited, 16);
        assert!(prune.audit_clean(), "audited pairs must agree with the per-config oracle");
        let text = render_section(&pruned);
        assert!(text.contains("Certificate pruning"));
        assert!(text.contains("B006-MONOTONE"));
        assert!(text.contains("audited"));
        // Without `prune` the report renders without the accounting section.
        assert!(!render_section(&plain).contains("Certificate pruning"));
    }

    #[test]
    fn sweep_run_reuses_the_session_and_renders() {
        let run = RunConfig { corpus_size: 8, seed: 386, threads: Some(2), ..RunConfig::default() };
        let session = Session::new(run.experiment_config());
        let response = sweep(&session, run.classify, false, 0);
        let ExperimentResponse::Sweep(report) = &response else { unreachable!() };
        assert_eq!(report.grid, "small");
        assert_eq!(report.rows.len(), 8);
        // The one-consultation contract: one simulation per schedulable
        // (shape, loop) pair — the small grid has one shape — and no grid
        // point re-consults it.
        let schedulable = (report.rows[0].frac_schedulable * 8.0).round() as u64;
        let stats = session.stats();
        assert!(stats.hits > 0, "the witness reads its compilation back from the store");
        assert_eq!(stats.sim_runs, schedulable, "one simulation per schedulable pair");
        assert_eq!(stats.sim_hits, 0, "no grid point may re-consult a simulation");
        let text = render_section(&response);
        assert!(text.contains("design-space sweep"));
        assert!(text.contains("storage bits"));
        let json = serde_json::to_string_pretty(report).expect("serializable");
        let back: SweepReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(&back, report);
    }

    #[test]
    fn stream_run_aggregates_and_renders() {
        let run = RunConfig {
            corpus_size: 12,
            seed: 386,
            threads: Some(2),
            shard_size: 5,
            ..RunConfig::default()
        };
        let report = run_stream(&run).unwrap();
        assert_eq!(report.corpus_size, 12);
        assert_eq!(report.shards, 3, "12 loops in shards of 5 is 3 shards");
        assert_eq!(report.compiled + report.failed, 12);
        assert!(report.mean_ii >= report.mean_mii, "II is bounded below by MII");
        let text = render_stream_text(&report);
        assert!(text.contains("Streamed corpus compile"));
        assert!(text.contains("max queue depth"));
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: StreamReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, report);
    }

    #[test]
    fn output_format_parses() {
        assert_eq!("text".parse(), Ok(OutputFormat::Text));
        assert_eq!("json".parse(), Ok(OutputFormat::Json));
        assert!("yaml".parse::<OutputFormat>().is_err());
    }

    #[test]
    fn run_config_threads_override() {
        let mut run = RunConfig { corpus_size: 10, seed: 3, ..RunConfig::default() };
        assert_eq!(run.experiment_config().corpus.num_loops, 10);
        run.threads = Some(0);
        assert_eq!(run.experiment_config().threads, 1);
        run.threads = Some(2);
        assert_eq!(run.experiment_config().threads, 2);
    }

    #[test]
    fn single_selection_runs_only_its_experiment() {
        let run = RunConfig { corpus_size: 8, seed: 5, threads: Some(1), ..RunConfig::default() };
        assert_eq!(requests_for(Selection::Fig4, &run), vec![ExperimentRequest::Fig4]);
        let report =
            run_experiments_in(&Session::new(run.experiment_config()), Selection::Fig4).unwrap();
        assert!(report.fig3.is_none());
        assert!(report.copy_cost.is_none());
        assert!(report.fig6.is_none());
        assert!(report.cluster_resources.is_none());
        assert!(report.fig8_ipc.is_none());
        assert!(report.fig9_ipc.is_none());
        let text = render_section(&ExperimentResponse::Fig4(report.fig4.expect("selected")));
        assert!(text.contains("Fig. 4"));
        assert!(!text.contains("Fig. 3"));
    }

    #[test]
    fn separate_documents_are_not_figure_runs() {
        let run = RunConfig { corpus_size: 4, seed: 5, threads: Some(1), ..RunConfig::default() };
        let session = Session::new(run.experiment_config());
        for selection in [
            Selection::Simulate,
            Selection::Sweep,
            Selection::Stream,
            Selection::Verify,
            Selection::Metrics,
        ] {
            let err = run_experiments_in(&session, selection).unwrap_err();
            assert_eq!(err.kind(), "invalid_request", "{selection:?}: {err}");
        }
        assert_eq!(session.stats().compilations, 0, "a rejected selection must not compile");
    }

    #[test]
    fn all_run_shares_work_across_drivers() {
        // The acceptance bar of the session layer: `all` in one session performs
        // strictly fewer compilations than the individual subcommands summed, the
        // cache reports hits, and the report is identical either way.
        let run = RunConfig { corpus_size: 10, seed: 5, threads: Some(2), ..RunConfig::default() };
        let singles = [
            Selection::Fig3,
            Selection::CopyCost,
            Selection::Fig4,
            Selection::Fig6,
            Selection::Resources,
            Selection::Ipc,
        ];
        let mut sum_of_singles = 0;
        let mut merged = FiguresReport {
            corpus_size: run.corpus_size,
            seed: run.seed,
            fig3: None,
            copy_cost: None,
            fig4: None,
            fig6: None,
            cluster_resources: None,
            fig8_ipc: None,
            fig9_ipc: None,
        };
        for selection in singles {
            let session = Session::new(run.experiment_config());
            let report = run_experiments_in(&session, selection).unwrap();
            sum_of_singles += session.stats().compilations;
            match selection {
                Selection::Fig3 => merged.fig3 = report.fig3,
                Selection::CopyCost => merged.copy_cost = report.copy_cost,
                Selection::Fig4 => merged.fig4 = report.fig4,
                Selection::Fig6 => merged.fig6 = report.fig6,
                Selection::Resources => merged.cluster_resources = report.cluster_resources,
                Selection::Ipc => {
                    merged.fig8_ipc = report.fig8_ipc;
                    merged.fig9_ipc = report.fig9_ipc;
                }
                Selection::All
                | Selection::Simulate
                | Selection::Sweep
                | Selection::Stream
                | Selection::Verify
                | Selection::Metrics => {
                    unreachable!()
                }
            }
        }

        let session = Session::new(run.experiment_config());
        let all = run_experiments_in(&session, Selection::All).unwrap();
        let stats = session.stats();
        assert!(
            stats.compilations < sum_of_singles,
            "all-run compiled {} times, the subcommands summed to {sum_of_singles}",
            stats.compilations
        );
        assert!(stats.hits > 0, "the all run must share sweep points across drivers");
        assert_eq!(all, merged, "sharing the session must not change any figure");
    }

    #[test]
    fn render_stats_mentions_every_counter() {
        let s = render_stats(&vliw_core::SessionStats {
            compilations: 12,
            hits: 34,
            disk_hits: 0,
            unique_keys: 5,
            sim_runs: 0,
            sim_hits: 0,
            sim_disk_hits: 0,
            verifications: 0,
            verify_hits: 0,
        });
        assert!(s.contains("12") && s.contains("34") && s.contains('5'));
        assert!(s.contains("Compilation-session cache"));
        assert!(!s.contains("simulations"), "sim counters only appear when sims ran");
        assert!(!s.contains("verifications"), "verify counters only appear when verifies ran");
        let s = render_stats(&vliw_core::SessionStats {
            compilations: 12,
            hits: 34,
            disk_hits: 0,
            unique_keys: 5,
            sim_runs: 7,
            sim_hits: 2,
            sim_disk_hits: 0,
            verifications: 9,
            verify_hits: 3,
        });
        assert!(s.contains("simulations  = 7"));
        assert!(s.contains("sim hits     = 2"));
        assert!(s.contains("verifications= 9"));
        assert!(s.contains("verify hits  = 3"));
    }

    #[test]
    fn json_report_round_trips_through_serde() {
        let run = RunConfig { corpus_size: 8, seed: 5, threads: Some(1), ..RunConfig::default() };
        let report =
            run_experiments_in(&Session::new(run.experiment_config()), Selection::Fig6).unwrap();
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: FiguresReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, report);
    }
}
