//! The `figures` binary's stdout, byte for byte, against the committed
//! goldens of the 32-loop seed-386 corpus: the text format
//! (`baselines/*.txt`) and the JSON documents (`baselines/*.json`).  This pins
//! the CLI's emit path — responses assembled into a `FiguresReport` or printed
//! as a single report, responses rendered as titled text sections — not just
//! the drivers behind it.
//!
//! The text goldens were generated with
//!
//! ```text
//! cargo run --release -p vliw-bench --bin figures -- <selection> \
//!     --format text --corpus-size 32 --seed 386 --threads 2 > baselines/<name>.txt
//! ```
//!
//! for `all` (`figures_small.txt`), `verify`, `simulate`, `sweep --grid small`
//! (`sweep_small.txt`) and `sweep --grid small --prune true --audit 16`
//! (`sweep_pruned_small.txt`).  The two sweep files are compared up to their
//! `## Compilation-session cache` trailer: they were generated when the
//! unpruned sweep still classified every (config, loop) pair through the
//! store, so their hit counts describe a driver that no longer exists.  The
//! sweep's own cache contract is asserted by `sweep_baseline.rs`.

use std::path::PathBuf;
use std::process::Command;

/// The corpus and worker count every golden was generated with.
const CORPUS: [&str; 6] = ["--corpus-size", "32", "--seed", "386", "--threads", "2"];

/// The heading of the session-cache trailer that closes every text run.
const CACHE_TRAILER: &str = "## Compilation-session cache";

fn baseline(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs `figures <args> --format <format>` over the golden corpus; returns
/// its stdout.
fn figures(args: &[&str], format: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .args(["--format", format])
        .args(CORPUS)
        .output()
        .expect("the figures binary runs");
    assert!(
        out.status.success(),
        "figures {args:?} --format {format} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// `text` up to (not including) its session-cache trailer.
fn before_cache_trailer(text: &str) -> &str {
    text.split(CACHE_TRAILER).next().unwrap_or(text)
}

#[test]
fn text_output_matches_the_text_goldens() {
    let sweep = ["sweep", "--grid", "small"];
    let pruned = ["sweep", "--grid", "small", "--prune", "true", "--audit", "16"];
    for (args, name) in [
        (&["all"][..], "figures_small.txt"),
        (&["verify"], "verify_small.txt"),
        (&["simulate"], "sim_small.txt"),
    ] {
        assert_eq!(figures(args, "text"), baseline(name), "figures {args:?} drifted from {name}");
    }
    for (args, name) in [(&sweep[..], "sweep_small.txt"), (&pruned[..], "sweep_pruned_small.txt")] {
        let (got, want) = (figures(args, "text"), baseline(name));
        assert!(got.contains(CACHE_TRAILER), "figures {args:?} lost its cache trailer");
        assert_eq!(
            before_cache_trailer(&got),
            before_cache_trailer(&want),
            "figures {args:?} drifted from {name}"
        );
    }
}

#[test]
fn json_output_matches_the_json_goldens() {
    for (args, name) in [
        (&["all"][..], "figures_small.json"),
        (&["verify"], "verify_small.json"),
        (&["simulate"], "sim_small.json"),
        (&["sweep", "--grid", "small"], "sweep_small.json"),
        (&["sweep", "--grid", "small", "--classify", "static"], "sweep_small.json"),
        (
            &["sweep", "--grid", "small", "--prune", "true", "--audit", "16"],
            "sweep_pruned_small.json",
        ),
    ] {
        assert_eq!(figures(args, "json"), baseline(name), "figures {args:?} drifted from {name}");
    }
}
