//! The machine design-space sweep behind the paper's Fig. 7 sizing conclusion:
//! its report, its text table and the per-config classification.
//!
//! Fig. 7 claims a *sizing*: the basic cluster with 8 private queues of 8
//! entries and depth-8 ring links is the smallest clustered configuration that
//! still fits nearly all loops of the workload.  The sweep searches the
//! neighbourhood of that claim.  For every grid point of a
//! [`vliw_machine::MachineSpace`] it classifies each corpus loop three ways:
//!
//! * **schedulable** — the loop compiles on the machine shape at all;
//! * **allocation-fits** — the per-pool queue allocation (private GPQs per
//!   cluster, communication queues per directed ring link — the corrected,
//!   pool-split [`CommStats::fits_pools`] predicate) fits the configured
//!   budgets;
//! * **simulation-clean** — the executed kernel's observed queue occupancy
//!   stays within every storage pool at every cycle (zero capacity faults).
//!
//! Compilation and simulation run on the shape's *probe* machine (unbounded
//! storage, identical FU structure), because queue budgets constrain what fits
//! but never where the scheduler places operations and never how occupancy
//! evolves — the simulator accumulates occupancy regardless of capacity.  The
//! driver ([`super::pruned`]) therefore consults the pipeline once per (shape,
//! loop) and transfers the verdict to every storage config by threshold.
//! [`classify_loop`] and [`classify_loop_static`] classify one (config, loop)
//! pair from the full artifacts instead: they are the oracle the driver's
//! `--audit` sample and its verdict-identity tests check it against.
//!
//! [`CommStats::fits_pools`]: vliw_partition::CommStats::fits_pools

use std::io;

use serde::{de, json, Deserialize, Serialize, Value};
use vliw_analysis::{SweepRow, TextTable};
use vliw_machine::{Machine, MachineConfig};

use super::pruned::PruneReport;
use crate::session::{LoopSummary, SimSummary, VerifySummary};

/// Trip count of the sweep's simulation runs: long enough that every queue
/// reaches its steady-state peak occupancy, short enough to keep the full grid
/// affordable.
pub const SWEEP_TRIP_COUNT: u64 = 100;

/// How the sweep classifies each loop against a grid point's storage budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Classify {
    /// Execute each loop on the cycle-accurate simulator and read the observed
    /// occupancy peaks (the original, slower path).
    #[default]
    Dynamic,
    /// Prove the occupancy peaks statically with `vliw-verify` — no execution,
    /// verdict-identical to `Dynamic` (asserted by tests and the differential
    /// suite).
    Static,
}

impl Classify {
    /// Stable name, used on the wire and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Classify::Dynamic => "dynamic",
            Classify::Static => "static",
        }
    }
}

impl std::str::FromStr for Classify {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dynamic" => Ok(Classify::Dynamic),
            "static" => Ok(Classify::Static),
            other => Err(format!("unknown classify mode `{other}` (dynamic|static)")),
        }
    }
}

/// Everything one `figures sweep` run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Number of loops in the corpus the run evaluated.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Name of the swept grid preset (`small`, `paper`, `full`, `huge`).
    pub grid: String,
    /// Trip count of the simulation runs.
    pub trip_count: u64,
    /// Number of grid points evaluated.
    pub configs: usize,
    /// Number of distinct machine shapes (paid compiles) in the grid.
    pub shapes: usize,
    /// The driver's certificate accounting ([`super::pruned`]); `None` when
    /// the run did not ask for it (`prune: false`).
    pub prune: Option<PruneReport>,
    /// One row per grid point, in grid order.
    pub rows: Vec<SweepRow>,
}

// The wire form is written by hand so `prune` is emitted only when present —
// reports without the accounting (`baselines/sweep_small.json`) keep their
// pre-pruning byte-identical JSON.

impl Serialize for SweepReport {
    fn write_json(&self, w: &mut json::Writer<'_>) -> io::Result<()> {
        w.object(|o| {
            o.field("corpus_size", &self.corpus_size)?;
            o.field("seed", &self.seed)?;
            o.field("grid", &self.grid)?;
            o.field("trip_count", &self.trip_count)?;
            o.field("configs", &self.configs)?;
            o.field("shapes", &self.shapes)?;
            if let Some(prune) = &self.prune {
                o.field("prune", prune)?;
            }
            o.field("rows", &self.rows)
        })
    }
}

impl Deserialize for SweepReport {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let entries = v.as_object().ok_or_else(|| de::Error::unexpected("object", v))?;
        Ok(SweepReport {
            corpus_size: de::field(entries, "corpus_size")?,
            seed: de::field(entries, "seed")?,
            grid: de::field(entries, "grid")?,
            trip_count: de::field(entries, "trip_count")?,
            configs: de::field(entries, "configs")?,
            shapes: de::field(entries, "shapes")?,
            prune: de::field(entries, "prune")?,
            rows: de::field(entries, "rows")?,
        })
    }
}

impl SweepReport {
    /// The rows on the Pareto frontier of their machine shape.
    pub fn frontier(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| r.pareto)
    }

    /// The paper's published sizing points (8×8 queues, depth-8 links, basic
    /// cluster — one per swept cluster count).
    pub fn paper_points(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.iter().filter(|r| r.paper_point)
    }

    /// The Fig. 7 conclusion, as a checkable predicate: every paper point in
    /// the grid lies on its shape's Pareto frontier.
    pub fn paper_point_is_pareto(&self) -> bool {
        let mut any = false;
        for p in self.paper_points() {
            any = true;
            if !p.pareto {
                return false;
            }
        }
        any
    }
}

/// Per-loop verdict of one grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopVerdict {
    /// The loop compiles on the machine shape.
    pub schedulable: bool,
    /// The pool-split queue allocation fits the configured budgets.
    pub alloc_fits: bool,
    /// The executed kernel stays within every storage pool at every cycle.
    pub sim_clean: bool,
}

/// Classifies one compiled-and-simulated loop against one grid point's storage
/// budgets.
///
/// `machine` must be `config.machine(..)` (the *real* budgets; the compilation
/// itself came from the shape's probe machine).  The simulation verdict mirrors
/// the engine's pool model: a cluster's private QRF overflows when more than
/// `queues × capacity` values are resident, a directed link when more than
/// `queues × link_depth` are — evaluated here against the probe run's observed
/// peaks, which is exactly what simulating on the real machine would have
/// capacity-checked cycle by cycle.
pub fn classify_loop(
    summary: &LoopSummary,
    run: &SimSummary,
    machine: &Machine,
    config: &MachineConfig,
) -> LoopVerdict {
    debug_assert_eq!(run.capacity_faults, 0, "probe machines must never clip occupancy");
    let m = &run.measurement;
    let private_budget = config.queues_per_cluster * config.queue_capacity;
    let link_budget = config.queues_per_cluster * config.link_depth;
    LoopVerdict {
        schedulable: true,
        alloc_fits: summary.fits_machine(machine),
        sim_clean: run.schedule_faults == 0
            && m.max_private_peak() <= private_budget
            && m.max_comm_peak() <= link_budget,
    }
}

/// Classifies one statically verified loop against one grid point's storage
/// budgets — the execution-free counterpart of [`classify_loop`], reading the
/// `vliw-verify` proved peaks instead of the simulator's observed ones.  The
/// two must agree verdict-for-verdict; the sweep tests and the differential
/// suite assert they do.
pub fn classify_loop_static(
    summary: &LoopSummary,
    verify: &VerifySummary,
    machine: &Machine,
    config: &MachineConfig,
) -> LoopVerdict {
    let private_budget = config.queues_per_cluster * config.queue_capacity;
    let link_budget = config.queues_per_cluster * config.link_depth;
    LoopVerdict {
        schedulable: true,
        alloc_fits: summary.fits_machine(machine),
        sim_clean: verify.schedule_faults == 0
            && verify.max_private_peak <= private_budget
            && verify.max_comm_peak <= link_budget,
    }
}

/// Renders the sweep rows as a text table.
pub fn render(rows: &[SweepRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "clusters",
        "mix",
        "topo",
        "queues",
        "capacity",
        "link depth",
        "storage bits",
        "schedulable",
        "alloc fits",
        "sim clean",
        "clean",
        "pareto",
        "paper",
    ]);
    for r in rows {
        t.row(vec![
            r.clusters.to_string(),
            r.fu_mix.clone(),
            r.topology.clone(),
            r.queues_per_cluster.to_string(),
            r.queue_capacity.to_string(),
            r.link_depth.to_string(),
            r.storage_bits.to_string(),
            vliw_analysis::pct(r.frac_schedulable),
            vliw_analysis::pct(r.frac_alloc_fits),
            vliw_analysis::pct(r.frac_sim_clean),
            vliw_analysis::pct(r.frac_clean),
            if r.pareto { "*" } else { "" }.to_string(),
            if r.paper_point { "<- Fig. 7" } else { "" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::pruned_sweep_experiment_with;
    use crate::session::Session;
    use vliw_machine::SweepGrid;

    /// The small grid, classified dynamically, without an audit sample.
    fn sweep(session: &Session) -> SweepReport {
        pruned_sweep_experiment_with(session, SweepGrid::Small, Classify::Dynamic, 0).unwrap()
    }

    #[test]
    fn small_grid_reuses_one_compile_per_shape() {
        let session = Session::quick(10, 386);
        let report = sweep(&session);
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.shapes, 1);
        let stats = session.stats();
        // One shape: every loop compiled and simulated exactly once, and the
        // eight grid points never consulted the store per config.
        let schedulable = (report.rows[0].frac_schedulable * 10.0).round() as u64;
        assert_eq!(stats.unique_keys, 1);
        assert!(stats.compilations <= 10);
        assert!(stats.hits > 0, "the witness reads its compilation back from the store");
        assert_eq!(stats.sim_runs, schedulable, "one simulation per schedulable (shape, loop)");
        assert_eq!(stats.sim_hits, 0, "no grid point may re-consult a simulation");
    }

    #[test]
    fn fractions_are_ordered_and_bounded() {
        let session = Session::quick(12, 7);
        let report = sweep(&session);
        for r in &report.rows {
            assert_eq!(r.loops, 12);
            for f in [r.frac_schedulable, r.frac_alloc_fits, r.frac_sim_clean, r.frac_clean] {
                assert!((0.0..=1.0).contains(&f));
            }
            assert!(r.frac_alloc_fits <= r.frac_schedulable, "fitting implies scheduling");
            assert!(r.frac_sim_clean <= r.frac_schedulable, "clean implies scheduling");
            assert!(r.frac_clean <= r.frac_alloc_fits.min(r.frac_sim_clean));
        }
    }

    #[test]
    fn growing_a_storage_dimension_never_loses_loops() {
        // The monotonicity the proptest checks per loop, at the corpus level:
        // within one shape, a configuration that dominates another dimension-
        // wise classifies at least as many loops clean.
        let session = Session::quick(16, 23);
        let report = sweep(&session);
        for a in &report.rows {
            for b in &report.rows {
                if a.clusters == b.clusters
                    && a.fu_mix == b.fu_mix
                    && a.queues_per_cluster <= b.queues_per_cluster
                    && a.queue_capacity <= b.queue_capacity
                    && a.link_depth <= b.link_depth
                {
                    assert!(a.frac_alloc_fits <= b.frac_alloc_fits + 1e-12);
                    assert!(a.frac_sim_clean <= b.frac_sim_clean + 1e-12);
                    assert!(a.frac_clean <= b.frac_clean + 1e-12);
                    assert_eq!(a.frac_schedulable, b.frac_schedulable);
                }
            }
        }
    }

    #[test]
    fn paper_point_is_flagged_and_frontier_is_nonempty() {
        let session = Session::quick(16, 386);
        let report = sweep(&session);
        assert_eq!(report.paper_points().count(), 1);
        assert!(report.frontier().count() >= 1);
        let paper = report.paper_points().next().unwrap();
        assert_eq!(paper.queues_per_cluster, 8);
        assert_eq!(paper.queue_capacity, 8);
        assert_eq!(paper.link_depth, 8);
        assert_eq!(paper.fus, 12);
    }

    #[test]
    fn static_classification_reproduces_the_dynamic_verdicts_exactly() {
        // The headline differential property at the sweep level: swapping the
        // simulator out for the static verifier changes no row of the report
        // (fractions, frontier marks and paper points all included).
        let session = Session::quick(14, 386);
        let dynamic = sweep(&session);
        let sim_runs_after_dynamic = session.stats().sim_runs;
        let static_ =
            pruned_sweep_experiment_with(&session, SweepGrid::Small, Classify::Static, 0).unwrap();
        assert_eq!(static_, dynamic, "static and dynamic classification diverged");
        assert_eq!(
            session.stats().sim_runs,
            sim_runs_after_dynamic,
            "the static pass must not simulate anything"
        );
        assert!(session.stats().verifications > 0, "the static pass must verify");
    }

    #[test]
    fn classify_mode_names_round_trip() {
        for mode in [Classify::Dynamic, Classify::Static] {
            assert_eq!(mode.name().parse::<Classify>().unwrap(), mode);
        }
        assert!("cycle".parse::<Classify>().is_err());
        assert_eq!(Classify::default(), Classify::Dynamic);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let session = Session::quick(6, 5);
        let mut report = sweep(&session);
        report.prune = None;
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_shape() {
        let session = Session::quick(6, 5);
        let report = sweep(&session);
        let t = render(&report.rows);
        assert_eq!(t.num_rows(), report.rows.len());
        let text = t.render();
        assert!(text.contains("storage bits"));
        assert!(text.contains("Fig. 7"));
    }
}
