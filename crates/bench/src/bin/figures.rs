//! Regenerates the tables and figures of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p vliw-bench --bin figures                  # everything, full corpus
//! cargo run --release -p vliw-bench --bin figures -- fig6          # one figure
//! cargo run --release -p vliw-bench --bin figures -- \
//!     all --format json --corpus-size 32 --seed 386                # the golden-baseline run
//! cargo run --release -p vliw-bench --bin figures -- \
//!     all --format json --corpus-size 32 --seed 386 \
//!     --server 127.0.0.1:7421                                      # same, via vliw-serve
//! ```
//!
//! Subcommands: `fig3`, `copy-cost`, `fig4`, `fig6`, `resources`, `ipc`,
//! `simulate`, `sweep`, `stream`, `verify`, `all` (default; covers the figure
//! experiments but not `simulate`, `sweep`, `stream` or `verify`, whose
//! reports are separate documents).  `stream` compiles the corpus in bounded
//! shards without ever materialising it (flat memory at 100k+ loops, reporting
//! peak RSS) and is strictly in-process.  `verify` proves every schedule sound
//! statically — the same verdicts `simulate` observes, with no execution.
//! Global options: `--corpus-size`, `--seed`, `--threads`,
//! `--format text|json`, `--cache-dir DIR` (persist artifacts across
//! in-process runs), `--server ADDR` (run the experiments on a `vliw-serve`
//! daemon instead of compiling in-process) and `--trace FILE` (capture a
//! Chrome `trace_event` JSON of the run and print a per-stage breakdown on
//! stderr — in-process only, stdout stays byte-identical); the `sweep`
//! subcommand additionally takes `--grid small|paper|full|huge`,
//! `--classify dynamic|static`, `--prune true` (attach the driver's
//! certificate accounting — consultations, pruned pairs, per-code counts — as
//! a `prune` section; the rows are the same without it) and `--audit N` (with
//! `--prune true`: re-derive N seeded-random (config, loop) pairs through the
//! per-config classification and report how many agree).  The `metrics`
//! subcommand scrapes a daemon's telemetry (`--server` required) as
//! Prometheus text on stdout.  The output of a full-corpus text run is
//! recorded in EXPERIMENTS.md next to the numbers reported by the paper; the
//! JSON format is what CI's bench-smoke job archives and what
//! `baselines/figures_small.json` (and, for `simulate` / `sweep` / `verify`,
//! `baselines/sim_small.json` / `baselines/sweep_small.json` /
//! `baselines/verify_small.json`) pins; the `baselines/*.txt` files pin the
//! text format.
//!
//! Every selection runs as one batch of `ExperimentRequest`s, executed through
//! `ExperimentRequest::run` over one shared compilation session — in this
//! process or in the daemon's — so overlapping sweep points compile once, and
//! a `--server` run produces byte-identical stdout to the in-process run.  The
//! responses go through one emit path: JSON prints the single simulate, sweep
//! or verify report as is and assembles figure responses into a
//! `FiguresReport`; text prints one titled section per response.
//! The session's cache statistics (`compilations`, `hits`, `disk hits`,
//! `unique_keys`) are reported as a trailing section in text mode and as a
//! one-line JSON object on **stderr** in JSON mode — stdout stays
//! byte-identical to the baseline report, so redirecting it still produces a
//! valid document.

use std::io::{BufWriter, Write as _};
use std::process::ExitCode;

use vliw_bench::{
    assemble_report, cli, render_section, render_stats, render_stream_text, requests_for,
    run_stream, validate_server, OutputFormat, RunConfig, Selection, ServeClient,
};
use vliw_core::experiments::{ExperimentRequest, ExperimentResponse};
use vliw_core::{Session, SessionStats, VliwError};

/// Where this run's experiments execute: an in-process session, or a
/// `vliw-serve` daemon reached over a socket.
enum Backend {
    Local(Box<Session>),
    /// Connected client plus the daemon's worker-thread count (reported in
    /// text-mode headers in place of the local session's).
    Remote(ServeClient, usize),
}

impl Backend {
    /// Opens the backend the run configuration asks for.  A `--server` run
    /// validates the daemon's protocol version, corpus size and seed up front
    /// so a mismatched daemon fails with a clear message, not a wrong report.
    fn open(run: &RunConfig) -> Result<Backend, String> {
        let Some(addr) = &run.server else {
            let session = Session::try_new(run.experiment_config()).map_err(|e| e.to_string())?;
            return Ok(Backend::Local(Box::new(session)));
        };
        if run.cache_dir.is_some() {
            return Err(
                "--cache-dir configures the in-process store; the daemon owns its own cache \
                 (pass --cache-dir to vliw-serve instead)"
                    .to_string(),
            );
        }
        let mut client =
            ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let info = client.info().map_err(|e| e.to_string())?;
        validate_server(&info, run.corpus_size, run.seed)?;
        Ok(Backend::Remote(client, info.threads))
    }

    /// Worker threads of whichever session runs the experiments.
    fn threads(&self) -> usize {
        match self {
            Backend::Local(session) => session.threads(),
            Backend::Remote(_, threads) => *threads,
        }
    }

    /// Cache statistics of whichever session ran the experiments.  Queried
    /// after the reports so the numbers cover this run's work.
    fn stats(&mut self) -> Result<SessionStats, String> {
        match self {
            Backend::Local(session) => Ok(session.stats()),
            Backend::Remote(client, _) => client.stats().map_err(|e| e.to_string()),
        }
    }

    /// Runs a batch of requests in order — through `ExperimentRequest::run`
    /// over the in-process session, or on the daemon, which does the same.
    fn run(
        &mut self,
        requests: Vec<ExperimentRequest>,
    ) -> Result<Vec<ExperimentResponse>, VliwError> {
        match self {
            Backend::Local(session) => requests.iter().map(|r| r.run(session)).collect(),
            Backend::Remote(client, _) => client.run(requests),
        }
    }
}

/// Streams one report document to stdout as pretty JSON plus a newline,
/// through one locked, buffered handle and with no whole-document `String`.
fn print_json<T: serde::Serialize>(report: &T) -> Result<(), String> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    serde_json::to_writer_pretty(&mut out, report)
        .map_err(|e| format!("failed to serialize the report: {e}"))?;
    writeln!(out).and_then(|()| out.flush()).map_err(|e| format!("failed to write the report: {e}"))
}

/// Prints one report document on stdout (pretty) and the session cache
/// statistics on stderr (one line), the JSON-mode contract of every
/// subcommand.
fn emit_json<T: serde::Serialize>(report: &T, stats: &SessionStats) -> Result<(), String> {
    print_json(report)?;
    let stats_json = serde_json::to_string(stats)
        .map_err(|e| format!("failed to serialize the cache stats: {e}"))?;
    eprintln!("{stats_json}");
    Ok(())
}

/// Runs the resolved selection end to end; returns a user-facing error message.
fn run_selection(selection: Selection, run: &RunConfig) -> Result<(), String> {
    if selection == Selection::Metrics {
        // A metrics scrape reads the daemon's own telemetry, so it skips the
        // corpus-size/seed validation the experiment paths perform — any
        // healthy daemon can answer it.
        let addr = run.server.as_ref().expect("cli::resolve rejects `metrics` without --server");
        let mut client =
            ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let text = client.metrics().map_err(|e| e.to_string())?;
        print!("{text}");
        return Ok(());
    }

    if selection == Selection::Stream {
        // Streamed runs measure *this* process's memory, so there is no
        // backend to open: no session, no memo store, and no daemon.
        if run.server.is_some() {
            return Err("`stream` runs in-process only (it measures this process's memory); \
                 drop --server"
                .to_string());
        }
        let report = run_stream(run).map_err(|e| e.to_string())?;
        match run.format {
            OutputFormat::Json => print_json(&report)?,
            OutputFormat::Text => {
                println!(
                    "# Streamed run: {} loops, seed {}, {} threads\n",
                    report.corpus_size,
                    report.seed,
                    run.stream_config().threads
                );
                print!("{}", render_stream_text(&report));
            }
        }
        return Ok(());
    }

    let mut backend = Backend::open(run)?;
    let responses = backend.run(requests_for(selection, run)).map_err(|e| e.to_string())?;
    let stats = backend.stats()?;
    let _encode = vliw_core::obs::span!("report/encode");
    match run.format {
        OutputFormat::Json => match responses.as_slice() {
            [ExperimentResponse::Simulate(report)] => emit_json(report, &stats)?,
            [ExperimentResponse::Sweep(report)] => emit_json(report, &stats)?,
            [ExperimentResponse::Verify(report)] => emit_json(report, &stats)?,
            _ => emit_json(
                &assemble_report(run.corpus_size, run.seed, responses)
                    .map_err(|e| e.to_string())?,
                &stats,
            )?,
        },
        OutputFormat::Text => {
            let title = match selection {
                Selection::Simulate => "Simulation run",
                Selection::Sweep => "Design-space sweep",
                Selection::Verify => "Verification run",
                _ => "Reproduction run",
            };
            println!(
                "# {title}: {} loops, seed {}, {} threads\n",
                run.corpus_size,
                run.seed,
                backend.threads()
            );
            for response in &responses {
                print!("{}", render_section(response));
            }
            println!();
            print!("{}", render_stats(&stats));
        }
    }
    Ok(())
}

/// Writes the accumulated span buffers as Chrome `trace_event` JSON to
/// `path` and prints the per-stage breakdown on stderr.  Stdout is never
/// touched: a traced run's report stays byte-identical to an untraced one.
fn export_trace(path: &std::path::Path) -> Result<(), String> {
    vliw_core::obs::disable();
    let threads = vliw_core::obs::snapshot();
    std::fs::write(path, vliw_core::obs::chrome_trace(&threads))
        .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
    let stats = vliw_core::obs::stage_stats(&threads);
    eprint!("{}", vliw_core::obs::render_stage_table(&stats));
    eprintln!("trace written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let matches = cli::command().get_matches();
    let (selection, run) = match cli::resolve(&matches) {
        Ok(resolved) => resolved,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if run.trace.is_some() {
        vliw_core::obs::enable();
    }
    let mut result = run_selection(selection, &run);
    if let Some(path) = &run.trace {
        // Export even when the run failed: a partial trace is exactly what a
        // debugging session wants.
        let exported = export_trace(path);
        result = result.and(exported);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
