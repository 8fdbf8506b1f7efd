//! Command-line definition and parsing for the `figures` experiment CLI.
//!
//! Kept in the library (rather than the binary) so the argument handling is unit-
//! and integration-testable.

use clap::{Arg, ArgMatches, Command};
use vliw_core::experiments::Classify;
use vliw_core::{CorpusConfig, SweepGrid};

use crate::{OutputFormat, RunConfig, Selection, PAPER_CORPUS_LOOPS};

/// Builds the `figures` command: one subcommand per paper artefact plus `all`, and
/// global sweep options usable before or after the subcommand.
pub fn command() -> Command {
    let global = |arg: Arg| arg.global(true);
    Command::new("figures")
        .about(
            "Regenerates the tables and figures of 'Partitioned Schedules for \
             Clustered VLIW Architectures' (IPPS/SPDP 1998) on a synthetic corpus",
        )
        .arg(global(
            Arg::new("corpus-size")
                .long("corpus-size")
                .value_name("N")
                .default_value(PAPER_CORPUS_LOOPS.to_string())
                .help("Number of loops in the synthetic corpus"),
        ))
        .arg(global(
            Arg::new("seed")
                .long("seed")
                .value_name("S")
                .default_value(CorpusConfig::paper_default().seed.to_string())
                .help("Corpus generator seed"),
        ))
        .arg(global(
            Arg::new("threads")
                .long("threads")
                .value_name("T")
                .help("Worker threads for the corpus sweeps (default: all cores, max 8)"),
        ))
        .arg(global(
            Arg::new("format")
                .long("format")
                .value_name("FMT")
                .default_value("text")
                .help("Output format: text or json"),
        ))
        .arg(global(Arg::new("server").long("server").value_name("ADDR").help(
            "Run against a vliw-serve daemon (host:port or unix:/path.sock) \
                     instead of compiling in-process",
        )))
        .arg(global(
            Arg::new("cache-dir")
                .long("cache-dir")
                .value_name("DIR")
                .help("Persist compile/simulate artifacts under DIR (in-process runs only)"),
        ))
        .arg(global(Arg::new("trace").long("trace").value_name("FILE").help(
            "Capture a Chrome trace_event JSON of this run to FILE and print a \
                     per-stage breakdown on stderr (in-process runs only)",
        )))
        .subcommand(Command::new("fig3").about("Fig. 3 - number of queues required"))
        .subcommand(Command::new("copy-cost").about("Section 2 - cost of copy operations"))
        .subcommand(Command::new("fig4").about("Fig. 4 - II speedup from loop unrolling"))
        .subcommand(Command::new("fig6").about("Fig. 6 - II variation of partitioned schedules"))
        .subcommand(Command::new("resources").about("Fig. 7 / Section 4 - cluster resource sizing"))
        .subcommand(Command::new("ipc").about("Figs. 8 and 9 - operations issued per cycle"))
        .subcommand(Command::new("simulate").about(
            "Cycle-accurate kernel simulation - dynamic schedule verification \
             and simulated IPC (trip counts 10/100/1000)",
        ))
        .subcommand(
            Command::new("sweep")
                .about(
                    "Fig. 7 machine design-space sweep - sizing Pareto frontier \
                     over cluster count, queues, depths and FU mix",
                )
                .arg(
                    Arg::new("grid")
                        .long("grid")
                        .value_name("GRID")
                        .default_value("small")
                        .help("Design-space preset: small, paper, full or huge"),
                )
                .arg(
                    Arg::new("classify")
                        .long("classify")
                        .value_name("MODE")
                        .default_value("dynamic")
                        .help(
                            "Loop classification: dynamic (simulate) or static \
                             (prove with the verifier; same verdicts, no execution)",
                        ),
                )
                .arg(
                    Arg::new("prune").long("prune").value_name("BOOL").default_value("false").help(
                        "Attach the sweep driver's certificate accounting \
                             (consultations, pruned pairs, per-code counts) to \
                             the report and allow --audit; the rows are the same",
                    ),
                )
                .arg(Arg::new("audit").long("audit").value_name("N").default_value("0").help(
                    "With --prune true: re-derive N seeded-random \
                             (config, loop) pairs through the per-config \
                             classification and report how many agree \
                             (at most the grid's pair count)",
                )),
        )
        .subcommand(
            Command::new("stream")
                .about(
                    "Streamed corpus compile - bounded shards, flat memory; \
                     reports aggregate metrics and peak RSS",
                )
                .arg(
                    Arg::new("shard-size")
                        .long("shard-size")
                        .value_name("N")
                        .default_value(vliw_core::session::DEFAULT_SHARD_SIZE.to_string())
                        .help("Loops generated and compiled per shard"),
                ),
        )
        .subcommand(Command::new("verify").about(
            "Static schedule/allocation verification - proves the simulate \
             invariants without executing a cycle",
        ))
        .subcommand(Command::new("metrics").about(
            "Scrape a vliw-serve daemon's telemetry (Prometheus text) - \
             requires --server",
        ))
        .subcommand(Command::new("all").about("Every figure experiment above (the default)"))
}

/// Resolves parsed matches into the run parameters and experiment selection.
///
/// Returns a user-facing error message for out-of-range or unparsable values (the
/// vendored clap stores raw strings, so numeric validation happens here).
pub fn resolve(matches: &ArgMatches) -> Result<(Selection, RunConfig), String> {
    let selection = match matches.subcommand() {
        None => Selection::All,
        Some((name, _)) => Selection::from_subcommand(name)
            .ok_or_else(|| format!("unknown subcommand `{name}`"))?,
    };

    let corpus_size: usize = parse_number(matches, "corpus-size")?;
    if corpus_size == 0 {
        return Err("--corpus-size must be at least 1".to_string());
    }
    let seed: u64 = parse_number(matches, "seed")?;
    let threads: Option<usize> = matches
        .get_one::<String>("threads")
        .map(|raw| raw.parse().map_err(|e| format!("invalid --threads `{raw}`: {e}")))
        .transpose()?;
    let format: OutputFormat = matches
        .get_one::<String>("format")
        .expect("--format has a default")
        .parse()
        .map_err(|e: String| format!("invalid --format: {e}"))?;
    // `--grid`, `--classify`, `--prune` and `--audit` live on the `sweep`
    // subcommand (they mean nothing elsewhere).
    let (grid, classify, prune, audit): (SweepGrid, Classify, bool, usize) =
        match matches.subcommand() {
            Some(("sweep", sub)) => (
                sub.get_one::<String>("grid")
                    .expect("--grid has a default")
                    .parse()
                    .map_err(|e: String| format!("invalid --grid: {e}"))?,
                sub.get_one::<String>("classify")
                    .expect("--classify has a default")
                    .parse()
                    .map_err(|e: String| format!("invalid --classify: {e}"))?,
                {
                    let raw: String = sub.get_one("prune").expect("--prune has a default");
                    raw.parse().map_err(|e| format!("invalid --prune `{raw}`: {e}"))?
                },
                {
                    let raw: String = sub.get_one("audit").expect("--audit has a default");
                    raw.parse().map_err(|e| format!("invalid --audit `{raw}`: {e}"))?
                },
            ),
            _ => (SweepGrid::default(), Classify::default(), false, 0),
        };
    if audit > 0 && !prune {
        return Err("--audit samples the pruned driver's verdicts; pass --prune true".to_string());
    }
    // Likewise `--shard-size` belongs to `stream` alone.
    let shard_size: usize = match matches.subcommand() {
        Some(("stream", sub)) => {
            let raw: String = sub.get_one("shard-size").expect("--shard-size has a default");
            let n: usize = raw.parse().map_err(|e| format!("invalid --shard-size `{raw}`: {e}"))?;
            if n == 0 {
                return Err("--shard-size must be at least 1".to_string());
            }
            n
        }
        _ => vliw_core::session::DEFAULT_SHARD_SIZE,
    };

    let server = matches.get_one::<String>("server");
    let cache_dir = matches.get_one::<String>("cache-dir").map(std::path::PathBuf::from);
    let trace = matches.get_one::<String>("trace").map(std::path::PathBuf::from);

    if trace.is_some() && server.is_some() {
        return Err("--trace captures this process's spans; a --server run compiles in the \
                    daemon, so there is nothing to trace (drop one of the two)"
            .to_string());
    }
    if selection == Selection::Metrics && server.is_none() {
        return Err("`metrics` scrapes a daemon's telemetry; pass --server ADDR".to_string());
    }

    Ok((
        selection,
        RunConfig {
            corpus_size,
            seed,
            threads,
            format,
            grid,
            classify,
            prune,
            audit,
            shard_size,
            server,
            cache_dir,
            trace,
        },
    ))
}

/// Parses option `id` as a number with a clean diagnostic.
fn parse_number<T>(matches: &ArgMatches, id: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw: String = matches.get_one(id).ok_or_else(|| format!("--{id} needs a value"))?;
    raw.parse().map_err(|e| format!("invalid --{id} `{raw}`: {e}"))
}

/// Parses an argv (including the program name) into selection + run config.
pub fn parse_from<I, S>(argv: I) -> Result<(Selection, RunConfig), String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let matches = command().try_get_matches_from(argv).map_err(|e| e.to_string())?;
    resolve(&matches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Selection, RunConfig), String> {
        parse_from(std::iter::once("figures").chain(args.iter().copied()))
    }

    #[test]
    fn no_arguments_selects_everything_with_paper_defaults() {
        let (selection, run) = parse(&[]).unwrap();
        assert_eq!(selection, Selection::All);
        assert_eq!(run.corpus_size, PAPER_CORPUS_LOOPS);
        assert_eq!(run.seed, CorpusConfig::paper_default().seed);
        assert_eq!(run.threads, None);
        assert_eq!(run.format, OutputFormat::Text);
    }

    #[test]
    fn every_subcommand_maps_to_its_selection() {
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
            let (selection, _) = parse(&[name]).unwrap();
            assert_eq!(selection, expected, "subcommand {name}");
        }
    }

    #[test]
    fn stream_shard_size_parses_with_a_bounded_default() {
        let (selection, run) = parse(&["stream"]).unwrap();
        assert_eq!(selection, Selection::Stream);
        assert_eq!(run.shard_size, vliw_core::session::DEFAULT_SHARD_SIZE);
        let (_, run) =
            parse(&["stream", "--shard-size", "256", "--corpus-size", "100000"]).unwrap();
        assert_eq!(run.shard_size, 256);
        assert_eq!(run.corpus_size, 100000);
        assert!(parse(&["stream", "--shard-size", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["stream", "--shard-size", "many"]).unwrap_err().contains("--shard-size"));
        // `--shard-size` belongs to `stream` alone.
        assert!(parse(&["fig3", "--shard-size", "64"]).is_err());
    }

    #[test]
    fn sweep_grid_parses_with_a_small_default() {
        let (selection, run) = parse(&["sweep"]).unwrap();
        assert_eq!(selection, Selection::Sweep);
        assert_eq!(run.grid, SweepGrid::Small);
        for (raw, expected) in [
            ("small", SweepGrid::Small),
            ("paper", SweepGrid::Paper),
            ("full", SweepGrid::Full),
            ("huge", SweepGrid::Huge),
        ] {
            let (_, run) = parse(&["sweep", "--grid", raw]).unwrap();
            assert_eq!(run.grid, expected, "--grid {raw}");
        }
        assert!(parse(&["sweep", "--grid", "tiny"]).unwrap_err().contains("--grid"));
        // `--grid` belongs to `sweep` alone.
        assert!(parse(&["fig3", "--grid", "small"]).is_err());
    }

    #[test]
    fn sweep_classify_parses_with_a_dynamic_default() {
        let (_, run) = parse(&["sweep"]).unwrap();
        assert_eq!(run.classify, Classify::Dynamic);
        let (_, run) = parse(&["sweep", "--classify", "static"]).unwrap();
        assert_eq!(run.classify, Classify::Static);
        let (_, run) = parse(&["sweep", "--classify", "dynamic"]).unwrap();
        assert_eq!(run.classify, Classify::Dynamic);
        assert!(parse(&["sweep", "--classify", "cycle"]).unwrap_err().contains("--classify"));
        // `--classify` belongs to `sweep` alone.
        assert!(parse(&["verify", "--classify", "static"]).is_err());
    }

    #[test]
    fn sweep_prune_and_audit_parse_with_safe_defaults() {
        let (_, run) = parse(&["sweep"]).unwrap();
        assert!(!run.prune);
        assert_eq!(run.audit, 0);
        let (_, run) = parse(&["sweep", "--prune", "true"]).unwrap();
        assert!(run.prune);
        assert_eq!(run.audit, 0);
        let (_, run) =
            parse(&["sweep", "--grid", "huge", "--prune", "true", "--audit", "64"]).unwrap();
        assert!(run.prune);
        assert_eq!(run.audit, 64);
        assert!(parse(&["sweep", "--prune", "maybe"]).unwrap_err().contains("--prune"));
        assert!(parse(&["sweep", "--prune", "true", "--audit", "many"])
            .unwrap_err()
            .contains("--audit"));
        // Auditing without pruning has nothing to compare against.
        assert!(parse(&["sweep", "--audit", "8"]).unwrap_err().contains("--prune"));
        // Both belong to `sweep` alone.
        assert!(parse(&["fig3", "--prune", "true"]).is_err());
        assert!(parse(&["verify", "--audit", "4"]).is_err());
    }

    #[test]
    fn verify_acceptance_command_line_parses() {
        // The exact invocation the verification baseline is generated with.
        let (selection, run) =
            parse(&["verify", "--format", "json", "--corpus-size", "32", "--seed", "386"]).unwrap();
        assert_eq!(selection, Selection::Verify);
        assert_eq!(run.corpus_size, 32);
        assert_eq!(run.seed, 386);
        assert_eq!(run.format, OutputFormat::Json);
    }

    #[test]
    fn sweep_acceptance_command_line_parses() {
        // The exact invocation the sweep baseline is generated with.
        let (selection, run) = parse(&[
            "sweep",
            "--grid",
            "small",
            "--format",
            "json",
            "--corpus-size",
            "32",
            "--seed",
            "386",
        ])
        .unwrap();
        assert_eq!(selection, Selection::Sweep);
        assert_eq!(run.grid, SweepGrid::Small);
        assert_eq!(run.corpus_size, 32);
        assert_eq!(run.seed, 386);
        assert_eq!(run.format, OutputFormat::Json);
    }

    #[test]
    fn simulate_acceptance_command_line_parses() {
        // The exact invocation the simulated-IPC baseline is generated with.
        let (selection, run) =
            parse(&["simulate", "--format", "json", "--corpus-size", "32", "--seed", "386"])
                .unwrap();
        assert_eq!(selection, Selection::Simulate);
        assert_eq!(run.corpus_size, 32);
        assert_eq!(run.seed, 386);
        assert_eq!(run.format, OutputFormat::Json);
    }

    #[test]
    fn acceptance_command_line_parses() {
        // The exact invocation the golden baseline is generated with.
        let (selection, run) =
            parse(&["all", "--format", "json", "--corpus-size", "32", "--seed", "386"]).unwrap();
        assert_eq!(selection, Selection::All);
        assert_eq!(run.corpus_size, 32);
        assert_eq!(run.seed, 386);
        assert_eq!(run.format, OutputFormat::Json);
    }

    #[test]
    fn trace_parses_in_process_and_is_rejected_with_server() {
        let (_, run) = parse(&["all", "--trace", "out.json"]).unwrap();
        assert_eq!(run.trace, Some(std::path::PathBuf::from("out.json")));
        let (_, run) = parse(&["fig3"]).unwrap();
        assert_eq!(run.trace, None);
        let err = parse(&["all", "--trace", "out.json", "--server", "127.0.0.1:7421"]).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn metrics_requires_a_server() {
        let err = parse(&["metrics"]).unwrap_err();
        assert!(err.contains("--server"), "{err}");
        let (selection, run) = parse(&["metrics", "--server", "127.0.0.1:7421"]).unwrap();
        assert_eq!(selection, Selection::Metrics);
        assert_eq!(run.server.as_deref(), Some("127.0.0.1:7421"));
    }

    #[test]
    fn global_options_work_before_the_subcommand_too() {
        let (_, run) = parse(&["--corpus-size", "7", "--threads", "2", "fig3"]).unwrap();
        assert_eq!(run.corpus_size, 7);
        assert_eq!(run.threads, Some(2));
    }

    #[test]
    fn invalid_values_produce_clean_errors() {
        assert!(parse(&["--corpus-size", "zero"]).unwrap_err().contains("--corpus-size"));
        assert!(parse(&["--corpus-size", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--seed", "-4"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--format", "xml"]).unwrap_err().contains("format"));
        assert!(parse(&["fig5"]).is_err());
        assert!(parse(&["--nope"]).is_err());
    }

    #[test]
    fn help_renders_subcommands_and_options() {
        let err = parse(&["--help"]).unwrap_err();
        for needle in ["fig3", "copy-cost", "ipc", "--corpus-size", "--seed", "--format"] {
            assert!(err.contains(needle), "help is missing {needle}: {err}");
        }
    }
}
