//! The Fig. 7 design-space sweep driver.
//!
//! Classifying a grid pair by pair ([`super::sweep::classify_loop`]) would let
//! the memo store collapse the *compiles* to one per machine shape, but each of
//! the `configs × loops` pairs would still pay a store consultation and a
//! classification.  On the huge grid (103 680 configurations, 60 shapes) that
//! is 3.3 million consultations for what is, mathematically, 60 shapes' worth
//! of information.
//!
//! This driver classifies the pairs from per-shape **thresholds** instead:
//!
//! 1. Per (shape, loop), one *witness* consultation compiles on the shape's
//!    probe machine and extracts the exact storage thresholds of the verdict
//!    bits: the allocation fits iff `q ≥ max(private queues, comm queues)`,
//!    `c ≥ private depth` and `d ≥ comm depth` (the pool-split
//!    [`vliw_partition::CommStats::fits_pools`] predicate, decomposed per
//!    axis), and the execution is capacity-clean iff the schedule is
//!    fault-free and `q·c` / `q·d` cover the proved occupancy peaks.  The
//!    transfer of these thresholds across the shape's storage sub-grid is
//!    what the driver's `B006-MONOTONE` code counts; `vliw-bounds` has no
//!    part in it.
//! 2. Each proven-monotone storage axis is **binary-searched** for its
//!    threshold index ([`[T]::partition_point`]) instead of enumerated, and
//!    the per-config verdict counts come from three-dimensional difference
//!    arrays with suffix sums — `O(loops · log axis + grid)` per shape rather
//!    than `O(loops · grid)`.
//! 3. Pairs whose config cannot even store the certified minimum of live
//!    values (`B004-STORAGE`, [`vliw_bounds::LoopBounds::min_live`] against
//!    [`vliw_bounds::value_slots`]) are additionally counted as decided by
//!    DDG arithmetic alone — the pigeonhole needs no witness thresholds for
//!    its two capacity bits.  The shape's `min_live` values are sorted once
//!    and each config's count is one binary search: `O((loops + grid) · log
//!    loops)` per shape, not `O(loops · grid)`.  The bounds come from the
//!    session's one analyzer, keyed by corpus index, so only the first sweep
//!    on a session derives them; later sweeps read its memos.
//!
//! The rows are **verdict-identical** to classifying every pair — same
//! fractions (the same integer count divided by the same denominator), same
//! frontier marks — with `shapes × loops` consultations instead of
//! `configs × loops`; the tests assert equality row for row against a
//! pair-by-pair reference.  The audit mode re-derives a seeded random sample
//! of verdicts through the per-config classification, reusing the shape's
//! compiler handle but checking against the real machine, and reports the
//! agreement rate in the [`PruneReport`], so the transfer is *checked*, not
//! trusted.

use serde::{Deserialize, Serialize};
use vliw_analysis::{mark_pareto, SweepRow};
use vliw_bounds::value_slots;
use vliw_machine::{MachineConfig, SweepGrid};

use super::sweep::{
    classify_loop, classify_loop_static, Classify, LoopVerdict, SweepReport, SWEEP_TRIP_COUNT,
};
use crate::error::VliwError;
use crate::pipeline::CompilerConfig;
use crate::session::{LoopSummary, Session, SessionCompiler};

/// How many (config, loop) pairs one certificate code decided.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeCount {
    /// Stable certificate code (`B004-STORAGE`, `B006-MONOTONE`).
    pub code: String,
    /// Pairs the certificate decided.
    pub count: usize,
}

/// Accounting of one pruned sweep run, attached to its [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneReport {
    /// Total (config, loop) pairs the grid classifies.
    pub pairs: usize,
    /// Pairs that consulted the compiler pipeline (one witness per shape and
    /// loop; every storage config of the shape shares it).
    pub configs_compiled: usize,
    /// Pairs served by a certificate instead of a consultation.
    pub configs_pruned: usize,
    /// `configs_pruned / pairs`.
    pub pruning_ratio: f64,
    /// Per-certificate-code counts; the counts sum to `pairs` (every verdict
    /// carries a certificate, anchored by the witness consultations).
    pub codes: Vec<CodeCount>,
    /// Pairs re-derived through the per-config classification.
    pub audited: usize,
    /// Audited pairs whose compiled verdict matched the certificate's.
    pub audit_agreed: usize,
}

impl PruneReport {
    /// True when every audited pair agreed (vacuously true when none were).
    pub fn audit_clean(&self) -> bool {
        self.audited == self.audit_agreed
    }
}

/// The per-loop storage thresholds one witness consultation certifies for a
/// whole machine shape (the payload of a `B006-MONOTONE` certificate).
#[derive(Debug, Clone, Copy)]
struct LoopThresholds {
    /// Allocation fits iff `queues_per_cluster >= q_alloc`, …
    q_alloc: usize,
    /// … `queue_capacity >= c_alloc`, …
    c_alloc: usize,
    /// … and `link_depth >= d_alloc`.
    d_alloc: usize,
    /// The schedule itself is fault-free (a shape property; a faulty schedule
    /// is never simulation-clean at any storage size).
    faults_clean: bool,
    /// Simulation-clean additionally needs `q·c >= private_peak` …
    private_peak: usize,
    /// … and `q·d >= comm_peak`.
    comm_peak: usize,
    /// Certified minimum of simultaneously live values (`vliw-bounds`), for
    /// the `B004-STORAGE` accounting.
    min_live: usize,
}

fn thresholds_of(
    summary: &LoopSummary,
    schedule_faults: u64,
    private_peak: usize,
    comm_peak: usize,
    min_live: usize,
) -> LoopThresholds {
    let (q_alloc, c_alloc, d_alloc) = match &summary.comm {
        Some(comm) => (
            comm.max_private_queues_per_cluster.max(comm.max_comm_queues_per_link),
            comm.max_private_queue_depth,
            comm.max_comm_queue_depth,
        ),
        None => (summary.queues_required, summary.max_queue_depth, 0),
    };
    LoopThresholds {
        q_alloc,
        c_alloc,
        d_alloc,
        faults_clean: schedule_faults == 0,
        private_peak,
        comm_peak,
        min_live,
    }
}

/// The verdict the thresholds certify for one storage config — the closed
/// form the per-config classifiers compute from the full artifacts.
fn verdict_of(thresholds: &Option<LoopThresholds>, config: &MachineConfig) -> LoopVerdict {
    match thresholds {
        None => LoopVerdict::default(),
        Some(t) => LoopVerdict {
            schedulable: true,
            alloc_fits: config.queues_per_cluster >= t.q_alloc
                && config.queue_capacity >= t.c_alloc
                && config.link_depth >= t.d_alloc,
            sim_clean: t.faults_clean
                && config.queues_per_cluster * config.queue_capacity >= t.private_peak
                && config.queues_per_cluster * config.link_depth >= t.comm_peak,
        },
    }
}

/// Verdict counts over one machine shape's storage sub-grid, aggregated with
/// per-axis binary searches and 3-D difference arrays instead of per-config
/// enumeration.
struct ShapeCounts {
    nc: usize,
    nd: usize,
    schedulable: usize,
    alloc: Vec<u32>,
    sim: Vec<u32>,
    clean: Vec<u32>,
}

impl ShapeCounts {
    fn new(nq: usize, nc: usize, nd: usize) -> Self {
        let len = nq * nc * nd;
        ShapeCounts {
            nc,
            nd,
            schedulable: 0,
            alloc: vec![0; len],
            sim: vec![0; len],
            clean: vec![0; len],
        }
    }

    fn idx(&self, qi: usize, ci: usize, di: usize) -> usize {
        (qi * self.nc + ci) * self.nd + di
    }

    /// Accumulates one loop's thresholds: for each queue-count index, binary-
    /// search the capacity and link-depth axes for the first admissible value
    /// and mark the upper-set corner in the difference arrays.
    fn add_loop(&mut self, t: &LoopThresholds, qs: &[usize], cs: &[usize], ds: &[usize]) {
        self.schedulable += 1;
        let iq = qs.partition_point(|&q| q < t.q_alloc);
        let ic = cs.partition_point(|&c| c < t.c_alloc);
        let id = ds.partition_point(|&d| d < t.d_alloc);
        for (qi, &q) in qs.iter().enumerate() {
            let cmin = cs.partition_point(|&c| q * c < t.private_peak);
            let dmin = ds.partition_point(|&d| q * d < t.comm_peak);
            if t.faults_clean {
                self.bump_sim(qi, cmin, dmin);
            }
            if qi >= iq {
                self.bump_alloc(qi, ic, id);
                if t.faults_clean {
                    self.bump_clean(qi, ic.max(cmin), id.max(dmin));
                }
            }
        }
    }

    fn bump_alloc(&mut self, qi: usize, ci: usize, di: usize) {
        if ci < self.nc && di < self.nd {
            let i = self.idx(qi, ci, di);
            self.alloc[i] += 1;
        }
    }

    fn bump_sim(&mut self, qi: usize, ci: usize, di: usize) {
        if ci < self.nc && di < self.nd {
            let i = self.idx(qi, ci, di);
            self.sim[i] += 1;
        }
    }

    fn bump_clean(&mut self, qi: usize, ci: usize, di: usize) {
        if ci < self.nc && di < self.nd {
            let i = self.idx(qi, ci, di);
            self.clean[i] += 1;
        }
    }

    /// Turns the corner marks into per-config counts: a loop marked at corner
    /// `(cmin, dmin)` is admissible at every index pair at or above it (the
    /// axes are ascending), so the count at `(ci, di)` is the 2-D prefix sum
    /// of the marks over `ci' <= ci, di' <= di`, per queue-count plane.
    fn resolve(&mut self) {
        let nq = self.alloc.len() / (self.nc * self.nd);
        for arr in [&mut self.alloc, &mut self.sim, &mut self.clean] {
            for qi in 0..nq {
                for ci in 0..self.nc {
                    for di in 0..self.nd {
                        let i = (qi * self.nc + ci) * self.nd + di;
                        let mut v = arr[i];
                        if ci > 0 {
                            v += arr[i - self.nd];
                        }
                        if di > 0 {
                            v += arr[i - 1];
                        }
                        if ci > 0 && di > 0 {
                            v -= arr[i - self.nd - 1];
                        }
                        arr[i] = v;
                    }
                }
            }
        }
    }
}

/// How many of a shape's schedulable loops `value_slots` cannot hold by
/// pigeonhole (`B004-STORAGE`), given their `min_live` values sorted
/// ascending.
fn storage_pigeonholed(sorted_min_live: &[usize], value_slots: usize) -> usize {
    sorted_min_live.len() - sorted_min_live.partition_point(|&m| m <= value_slots)
}

/// A tiny deterministic PRNG (splitmix64) for the audit sample; seeded from
/// the corpus seed so runs are reproducible.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One sweep row: `config`'s verdict counts (schedulable, allocation-fits,
/// simulation-clean, both) over a corpus of `loops` loops.
fn sweep_row(config: &MachineConfig, loops: usize, counts: [usize; 4]) -> SweepRow {
    let frac = |count: usize| if loops == 0 { 0.0 } else { count as f64 / loops as f64 };
    let [schedulable, alloc_fits, sim_clean, clean] = counts;
    SweepRow {
        clusters: config.clusters,
        fu_mix: config.fu_mix.tag().to_string(),
        topology: config.topology.tag().to_string(),
        fus: config.clusters * config.fu_mix.compute_fus(),
        queues_per_cluster: config.queues_per_cluster,
        queue_capacity: config.queue_capacity,
        link_depth: config.link_depth,
        storage_bits: config.storage_bits(),
        loops,
        frac_schedulable: frac(schedulable),
        frac_alloc_fits: frac(alloc_fits),
        frac_sim_clean: frac(sim_clean),
        frac_clean: frac(clean),
        pareto: false,
        paper_point: config.is_paper_point(),
    }
}

/// Runs the design-space sweep over `session` for the given grid preset and
/// classification mode, re-deriving `audit` randomly sampled (config, loop)
/// pairs through the per-config classification.
///
/// An `audit` larger than the grid's pair count is rejected before any work
/// as [`VliwError::InvalidRequest`]: the sample is drawn with replacement,
/// so a larger one only repeats pairs, and its cost would be unbounded.
pub fn pruned_sweep_experiment_with(
    session: &Session,
    grid: SweepGrid,
    classify: Classify,
    audit: usize,
) -> Result<SweepReport, VliwError> {
    let space = grid.space();
    let configs = space.configs();
    let loops = session.num_loops();
    let pairs = configs.len() * loops;
    if audit > pairs {
        return Err(VliwError::InvalidRequest(format!(
            "audit of {audit} pairs exceeds the {pairs} (config, loop) pairs of grid `{}`",
            grid.name()
        )));
    }
    let qs = &space.queues_per_cluster;
    let cs = &space.queue_capacities;
    let ds = &space.link_depths;
    for axis in [qs, cs, ds] {
        if axis.windows(2).any(|w| w[0] >= w[1]) {
            return Err(VliwError::internal("storage axes must be strictly ascending"));
        }
    }
    let (nq, nc, nd) = (qs.len(), cs.len(), ds.len());
    let per_shape = nq * nc * nd;

    let analyzer = session.bounds();
    let mut rows = Vec::with_capacity(configs.len());
    let mut shape_thresholds: Vec<Vec<Option<LoopThresholds>>> =
        Vec::with_capacity(space.num_shapes());
    let mut shape_compilers = Vec::with_capacity(space.num_shapes());
    let mut b004_pairs = 0usize;

    for (shape_index, shape) in configs.chunks(per_shape).enumerate() {
        let probe = shape[0].probe_machine(Default::default());
        let compiler = session.compiler(CompilerConfig::paper_defaults(probe.clone()));
        let thresholds: Vec<Option<LoopThresholds>> = session.try_sweep(|i, lp| {
            let bounds = analyzer.analyze(i, lp, &probe);
            match classify {
                Classify::Static => {
                    let Some(verify) = compiler.verify(i) else {
                        return Ok(None);
                    };
                    compiler
                        .map_ok(i, |c| {
                            thresholds_of(
                                c,
                                verify.schedule_faults,
                                verify.max_private_peak,
                                verify.max_comm_peak,
                                bounds.min_live,
                            )
                        })
                        .map(Some)
                        .ok_or_else(|| VliwError::internal("verified loops compiled"))
                }
                Classify::Dynamic => {
                    let Some(run) = compiler.simulate(i, SWEEP_TRIP_COUNT) else {
                        return Ok(None);
                    };
                    compiler
                        .map_ok(i, |c| {
                            thresholds_of(
                                c,
                                run.schedule_faults,
                                run.measurement.max_private_peak(),
                                run.measurement.max_comm_peak(),
                                bounds.min_live,
                            )
                        })
                        .map(Some)
                        .ok_or_else(|| VliwError::internal("simulated loops compiled"))
                }
            }
        })?;
        // Opened after the witness compiles: a driver span never encloses a
        // pipeline stage.
        let _aggregate = vliw_obs::span!("sweep/aggregate", shape_index);
        let mut counts = ShapeCounts::new(nq, nc, nd);
        for t in thresholds.iter().flatten() {
            counts.add_loop(t, qs, cs, ds);
        }
        counts.resolve();
        let mut min_live: Vec<usize> = thresholds.iter().flatten().map(|t| t.min_live).collect();
        min_live.sort_unstable();

        for (k, config) in shape.iter().enumerate() {
            let (qi, ci, di) = (k / (nc * nd), (k / nd) % nc, k % nd);
            let i = counts.idx(qi, ci, di);
            rows.push(sweep_row(
                config,
                loops,
                [
                    counts.schedulable,
                    counts.alloc[i] as usize,
                    counts.sim[i] as usize,
                    counts.clean[i] as usize,
                ],
            ));
            b004_pairs += storage_pigeonholed(&min_live, value_slots(config));
        }
        shape_thresholds.push(thresholds);
        shape_compilers.push(compiler);
    }
    {
        let _pareto = vliw_obs::span!("sweep/pareto", rows.len());
        mark_pareto(&mut rows);
    }

    let configs_compiled = space.num_shapes() * loops;
    let configs_pruned = pairs.saturating_sub(configs_compiled);

    // `audit <= pairs` was checked up front, so a sample implies pairs > 0.
    let mut audit_agreed = 0;
    let mut state = session.config().corpus.seed ^ 0xB0B5_0A11_D17B_0001;
    for _ in 0..audit {
        let pick = (splitmix64(&mut state) % pairs as u64) as usize;
        let (ci, li) = (pick / loops, pick % loops);
        let (config, shape) = (&configs[ci], ci / per_shape);
        let certified = verdict_of(&shape_thresholds[shape][li], config);
        if audit_pair(&shape_compilers[shape], config, li, classify)? == certified {
            audit_agreed += 1;
        }
    }

    Ok(SweepReport {
        corpus_size: session.config().corpus.num_loops,
        seed: session.config().corpus.seed,
        grid: grid.name().to_string(),
        trip_count: SWEEP_TRIP_COUNT,
        configs: space.num_configs(),
        shapes: space.num_shapes(),
        prune: Some(PruneReport {
            pairs,
            configs_compiled,
            configs_pruned,
            pruning_ratio: if pairs == 0 { 0.0 } else { configs_pruned as f64 / pairs as f64 },
            codes: vec![
                CodeCount { code: "B004-STORAGE".to_string(), count: b004_pairs },
                CodeCount { code: "B006-MONOTONE".to_string(), count: pairs - b004_pairs },
            ],
            audited: audit,
            audit_agreed,
        }),
        rows,
    })
}

/// Re-derives one (config, loop) verdict through the per-config
/// classification — full artifacts out of `compiler`, the handle of the
/// config's probe machine, classified against the real machine.  The
/// `--audit` oracle, and the reference the verdict-identity tests hold the
/// driver to.
fn audit_pair(
    compiler: &SessionCompiler<'_>,
    config: &MachineConfig,
    loop_index: usize,
    classify: Classify,
) -> Result<LoopVerdict, VliwError> {
    let machine = config.machine(Default::default());
    match classify {
        Classify::Static => match compiler.verify(loop_index) {
            None => Ok(LoopVerdict::default()),
            Some(v) => compiler
                .map_ok(loop_index, |c| classify_loop_static(c, &v, &machine, config))
                .ok_or_else(|| VliwError::internal("verified loops compiled")),
        },
        Classify::Dynamic => match compiler.simulate(loop_index, SWEEP_TRIP_COUNT) {
            None => Ok(LoopVerdict::default()),
            Some(run) => compiler
                .map_ok(loop_index, |c| classify_loop(c, &run, &machine, config))
                .ok_or_else(|| VliwError::internal("simulated loops compiled")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair-by-pair reference: every (config, loop) verdict classified
    /// through [`audit_pair`], no thresholds, no transfer.
    fn exhaustive_sweep(session: &Session, grid: SweepGrid, classify: Classify) -> SweepReport {
        let space = grid.space();
        let mut rows = Vec::new();
        for config in space.configs() {
            let probe = config.probe_machine(Default::default());
            let compiler = session.compiler(CompilerConfig::paper_defaults(probe));
            let verdicts =
                session.try_sweep(|i, _| audit_pair(&compiler, &config, i, classify)).unwrap();
            let count = |f: fn(&LoopVerdict) -> bool| verdicts.iter().filter(|v| f(v)).count();
            rows.push(sweep_row(
                &config,
                verdicts.len(),
                [
                    count(|v| v.schedulable),
                    count(|v| v.alloc_fits),
                    count(|v| v.sim_clean),
                    count(|v| v.alloc_fits && v.sim_clean),
                ],
            ));
        }
        mark_pareto(&mut rows);
        SweepReport {
            corpus_size: session.config().corpus.num_loops,
            seed: session.config().corpus.seed,
            grid: grid.name().to_string(),
            trip_count: SWEEP_TRIP_COUNT,
            configs: space.num_configs(),
            shapes: space.num_shapes(),
            prune: None,
            rows,
        }
    }

    fn pruned(session: &Session, grid: SweepGrid, classify: Classify) -> SweepReport {
        pruned_sweep_experiment_with(session, grid, classify, 0).unwrap()
    }

    fn strip_prune(mut report: SweepReport) -> SweepReport {
        report.prune = None;
        report
    }

    #[test]
    fn pruned_small_grid_is_verdict_identical_to_the_exhaustive_sweep() {
        let session = Session::quick(32, 386);
        for classify in [Classify::Static, Classify::Dynamic] {
            let pruned = pruned(&session, SweepGrid::Small, classify);
            let exhaustive = exhaustive_sweep(&session, SweepGrid::Small, classify);
            assert_eq!(strip_prune(pruned), exhaustive, "{}", classify.name());
        }
    }

    #[test]
    fn pruned_paper_grid_is_verdict_identical_to_the_exhaustive_sweep() {
        let session = Session::quick(32, 386);
        let pruned = pruned(&session, SweepGrid::Paper, Classify::Static);
        let exhaustive = exhaustive_sweep(&session, SweepGrid::Paper, Classify::Static);
        assert_eq!(strip_prune(pruned), exhaustive);
    }

    #[test]
    fn audits_larger_than_the_grid_are_rejected_before_any_work() {
        // 8 small-grid configs over 5 loops: 40 pairs to sample from.
        let session = Session::quick(5, 3);
        for audit in [41, usize::MAX] {
            let err =
                pruned_sweep_experiment_with(&session, SweepGrid::Small, Classify::Static, audit)
                    .unwrap_err();
            assert_eq!(err.kind(), "invalid_request", "{err}");
        }
        assert_eq!(session.stats().compilations, 0, "the rejection must precede the sweep");
        let report =
            pruned_sweep_experiment_with(&session, SweepGrid::Small, Classify::Static, 40).unwrap();
        assert_eq!(report.prune.unwrap().audited, 40);
    }

    #[test]
    fn prune_accounting_adds_up() {
        let session = Session::quick(6, 5);
        let report = pruned(&session, SweepGrid::Paper, Classify::Static);
        let prune = report.prune.as_ref().unwrap();
        assert_eq!(prune.pairs, report.configs * 6);
        assert_eq!(prune.configs_compiled, report.shapes * 6);
        assert_eq!(prune.configs_pruned, prune.pairs - prune.configs_compiled);
        assert!(prune.pruning_ratio > 0.9, "paper grid: 192 configs over 3 shapes");
        let code_total: usize = prune.codes.iter().map(|c| c.count).sum();
        assert_eq!(code_total, prune.pairs, "every pair carries a certificate");
        assert!(
            prune.configs_compiled * 5 <= prune.pairs,
            "the paper grid must need at least 5x fewer consultations"
        );
        assert_eq!(prune.audited, 0);
        assert!(prune.audit_clean(), "vacuously clean without an audit");
    }

    #[test]
    fn audited_pairs_always_agree_with_the_certificates() {
        let session = Session::quick(7, 42);
        for classify in [Classify::Static, Classify::Dynamic] {
            let report =
                pruned_sweep_experiment_with(&session, SweepGrid::Small, classify, 25).unwrap();
            let prune = report.prune.unwrap();
            assert_eq!(prune.audited, 25, "{}", classify.name());
            assert_eq!(
                prune.audit_agreed,
                25,
                "{}: certificate/compiler disagreement",
                classify.name()
            );
            assert!(prune.audit_clean());
        }
    }

    #[test]
    fn the_pruned_driver_consults_once_per_shape_and_loop() {
        let session = Session::quick(9, 386);
        let _ = pruned(&session, SweepGrid::Small, Classify::Static);
        let stats = session.stats();
        // One shape: 9 witness consultations, no per-config re-classification.
        assert_eq!(stats.unique_keys, 1);
        assert!(stats.compilations <= 9);
    }

    #[test]
    fn storage_pigeonholed_matches_the_direct_count() {
        let mut state = 17;
        for len in [0usize, 1, 2, 7, 64] {
            let mut min_live: Vec<usize> =
                (0..len).map(|_| (splitmix64(&mut state) % 12) as usize).collect();
            min_live.sort_unstable();
            for slots in 0..14 {
                let direct = min_live.iter().filter(|&&m| m > slots).count();
                assert_eq!(storage_pigeonholed(&min_live, slots), direct, "{min_live:?} {slots}");
            }
        }
    }

    #[test]
    fn a_warm_sweep_reads_the_sessions_bounds() {
        let session = Session::quick(12, 386);
        let sweep = || {
            pruned_sweep_experiment_with(&session, SweepGrid::Small, Classify::Static, 16).unwrap()
        };
        assert_eq!(session.bounds().memo_sizes(), (0, 0), "building a session derives nothing");
        let cold = sweep();
        let memos = session.bounds().memo_sizes();
        assert!(memos.0 > 0 && memos.1 > 0, "{memos:?}");
        assert_eq!(sweep(), cold);
        assert_eq!(session.bounds().memo_sizes(), memos, "the warm sweep derived bounds again");
    }

    #[test]
    fn prune_reports_round_trip_through_serde() {
        let session = Session::quick(5, 11);
        let report =
            pruned_sweep_experiment_with(&session, SweepGrid::Small, Classify::Static, 4).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"prune\""), "{json}");
        assert!(json.contains("B006-MONOTONE"), "{json}");
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
