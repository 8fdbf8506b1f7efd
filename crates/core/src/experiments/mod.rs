//! Experiment drivers reproducing every table and figure of the paper's evaluation.
//!
//! Each submodule corresponds to one figure (or to the statistics quoted in the
//! running text) and produces both a structured result type and a rendered
//! [`vliw_analysis::TextTable`].  The `figures` binary of the `vliw-bench` crate and
//! its `perf` probes call these drivers; EXPERIMENTS.md records their output next
//! to the paper's numbers.
//!
//! Every driver takes a shared [`crate::session::Session`] rather than a bare
//! configuration: the corpus is generated once per session, identical sweep points
//! are compiled once and served from the memo store afterwards, and sweeps run on
//! the session's work-stealing executor.  Running several drivers over one session
//! (as `figures all` does) therefore performs strictly fewer compilations than
//! running each driver standalone.
//!
//! | Driver | Paper artefact |
//! |---|---|
//! | [`fig3`] | Fig. 3 — number of queues required (4/6/12 FUs, with copies) |
//! | [`copy_cost`] | Section 2 statistics — II / stage-count cost of copy insertion |
//! | [`fig4`] | Fig. 4 — II speedup from loop unrolling |
//! | [`fig6`] | Fig. 6 — II variation of the partitioned schedules (12/15/18 FUs) |
//! | [`cluster_resources`] | Fig. 7 / Section 4 — queue demand per cluster and per ring link |
//! | [`ipc`] | Figs. 8 and 9 — static/dynamic IPC, all loops and resource-constrained loops |
//! | [`simulate`] | Simulated IPC — cycle-accurate execution with dynamic verification |
//! | [`pruned`] | Fig. 7 design-space sweep — the driver: one consultation per (shape, loop) |
//! | [`sweep`] | The sweep's report and table, plus the per-config classifiers (`--audit` oracle) |
//! | [`verify`] | Static verification — execution-free soundness proof of every schedule |
//!
//! [`api`] wraps every driver in one serializable request/response pair;
//! [`ExperimentRequest::run`] is the dispatch both the `figures` CLI and the
//! `vliw-serve` daemon execute experiments through.

pub mod api;
pub mod copy_cost;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod ipc;
pub mod pruned;
pub mod resources;
pub mod simulate;
pub mod sweep;
pub mod verify;

pub use api::{ExperimentRequest, ExperimentResponse};
pub use copy_cost::{copy_cost_experiment, CopyCostRow};
pub use fig3::{fig3_experiment, Fig3Row};
pub use fig4::{fig4_experiment, Fig4Row};
pub use fig6::{fig6_experiment, Fig6Row};
pub use ipc::{fig8_experiment, fig9_experiment, IpcCurvePoint};
pub use pruned::{pruned_sweep_experiment_with, CodeCount, PruneReport};
pub use resources::{cluster_resources_experiment, ClusterResourcesRow};
pub use simulate::{sim_machines, simulate_experiment, SimulateReport, SIM_TRIP_COUNTS};
pub use sweep::{
    classify_loop, classify_loop_static, Classify, LoopVerdict, SweepReport, SWEEP_TRIP_COUNT,
};
pub use verify::{verify_experiment, VerifyReport, VerifyRow};

use vliw_ddg::Loop;
use vliw_loopgen::{generate_corpus, CorpusConfig};

/// Shared configuration of the experiment drivers.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Corpus to evaluate.
    pub corpus: CorpusConfig,
    /// Number of worker threads for the corpus sweeps (1 = sequential).
    pub threads: usize,
    /// Directory of the persistent artifact cache; `None` disables persistence
    /// (results are still memoised in process).
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            corpus: CorpusConfig::paper_default(),
            threads: default_threads(),
            cache_dir: None,
        }
    }
}

impl ExperimentConfig {
    /// A configuration over a reduced corpus, for tests and quick runs.
    pub fn quick(num_loops: usize, seed: u64) -> Self {
        ExperimentConfig {
            corpus: CorpusConfig::small(num_loops, seed),
            threads: default_threads(),
            cache_dir: None,
        }
    }

    /// Generates the corpus described by this configuration.
    ///
    /// The experiment drivers do **not** call this — they read the corpus a
    /// [`crate::session::Session`] generated once.  It remains available for
    /// callers that need a standalone corpus (tests, examples, ad-hoc analyses).
    pub fn corpus(&self) -> Vec<Loop> {
        generate_corpus(&self.corpus)
    }
}

/// A sensible default worker count: the available parallelism capped at 8 (the
/// experiments are short; more threads only add contention on small corpora).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_generates_requested_corpus() {
        let cfg = ExperimentConfig::quick(17, 3);
        assert_eq!(cfg.corpus().len(), 17);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn default_config_is_paper_sized() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.corpus.num_loops, 1258);
    }
}
