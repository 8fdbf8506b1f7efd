//! Output checks.  None of them trusts the code under test to grade itself:
//! golden files are read from `baselines/`, schedules are re-proved with the
//! static verifier against certified lower bounds, and Pareto flags are
//! recomputed by a plain linear scan.

use std::collections::HashMap;

use vliw_bench::{run_experiments_in, Selection};
use vliw_core::analysis::SweepRow;
use vliw_core::bounds::BoundsAnalyzer;
use vliw_core::experiments::{pruned_sweep_experiment_with, Classify};
use vliw_core::session::SessionBuilder;
use vliw_core::verify::verify_with_allocation;
use vliw_core::{CompilerConfig, Session, SweepGrid};

use crate::stats::{splitmix64, Tally};

/// Corpus size and seed of the committed golden reports.
const GOLDEN_LOOPS: usize = 32;
const GOLDEN_SEED: u64 = 386;

/// Re-runs the 32-loop seed-386 inputs of `baselines/figures_small.json` and
/// `baselines/sweep_pruned_small.json` and requires byte identity.
pub fn golden(tally: &mut Tally) -> Result<(), String> {
    let session = SessionBuilder::quick(GOLDEN_LOOPS, GOLDEN_SEED).threads(2).build();
    let figures = run_experiments_in(&session, Selection::All).map_err(|e| e.to_string())?;
    let sweep = pruned_sweep_experiment_with(&session, SweepGrid::Small, Classify::default(), 16)
        .map_err(|e| e.to_string())?;
    for (path, produced) in [
        ("baselines/figures_small.json", serde_json::to_string_pretty(&figures)),
        ("baselines/sweep_pruned_small.json", serde_json::to_string_pretty(&sweep)),
    ] {
        let expected =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let produced = produced.map_err(|e| e.to_string())? + "\n";
        tally.check(produced == expected, || format!("{path} is not reproduced byte for byte"));
    }
    Ok(())
}

/// Code quality of the compiled schedules: `II / max(ResMII, RecMII)` per
/// (point, loop), the machine-wide bound, so a collapsed schedule counts
/// against the partitioner.
#[derive(Debug, Default, Clone, Copy)]
pub struct IiQuality {
    log_sum: f64,
    pairs: u64,
}

impl IiQuality {
    pub fn add(&mut self, ii: u32, res_mii: u32, rec_mii: u32) {
        self.log_sum += (f64::from(ii) / f64::from(res_mii.max(rec_mii).max(1))).ln();
        self.pairs += 1;
    }

    pub fn merge(&mut self, other: IiQuality) {
        self.log_sum += other.log_sum;
        self.pairs += other.pairs;
    }

    /// Geometric mean of the ratios; 1 when nothing was compiled.
    pub fn geomean(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            (self.log_sum / self.pairs as f64).exp()
        }
    }
}

/// Re-checks every (point, loop) the session compiled: the compile must have
/// succeeded, `verify_with_allocation` must find no schedule fault, and the II
/// must respect the `vliw-bounds` MII (certified for the copy-inserting
/// configurations the analyzer mirrors; the others against the pipeline's own
/// bound).  Also requires the session to have interned exactly `points`, each
/// compiled once per loop.
pub fn recheck(session: &Session, points: &[CompilerConfig], tally: &mut Tally) -> IiQuality {
    let stats = session.stats();
    let pairs = (points.len() * session.num_loops()) as u64;
    tally.check(stats.unique_keys == points.len() as u64, || {
        format!(
            "session interned {} points, the benchmark knows {}",
            stats.unique_keys,
            points.len()
        )
    });
    tally.check(stats.compilations == pairs, || {
        format!("session compiled {} pairs, expected {pairs}", stats.compilations)
    });

    let mut analyzers: HashMap<u32, BoundsAnalyzer> = HashMap::new();
    let mut quality = IiQuality::default();
    let mut bad = 0u64;
    for cfg in points {
        let compiler = session.compiler(cfg.clone());
        let max_unroll = if cfg.unroll { cfg.max_unroll } else { 1 };
        let analyzer = analyzers.entry(max_unroll).or_insert_with(|| {
            BoundsAnalyzer::new(*cfg.machine.latencies()).with_max_unroll(max_unroll)
        });
        for (i, lp) in session.corpus().iter().enumerate() {
            let compiled = compiler.compile_full(i);
            let c = match compiled.as_ref() {
                Ok(c) => c,
                Err(e) => {
                    bad += 1;
                    eprintln!("{} / {}: {e}", cfg.machine.name(), lp.name);
                    continue;
                }
            };
            let v = verify_with_allocation(&c.transformed, &cfg.machine, &c.schedule, &c.queues);
            let bound = if cfg.use_copies {
                analyzer.analyze(i, lp, &cfg.machine).mii()
            } else {
                c.res_mii.max(c.rec_mii)
            };
            if v.schedule_faults > 0 || c.ii() < bound {
                bad += 1;
                eprintln!(
                    "{} / {}: {} schedule faults, II {} vs MII bound {bound}",
                    cfg.machine.name(),
                    lp.name,
                    v.schedule_faults,
                    c.ii()
                );
            }
            quality.add(c.ii(), c.res_mii, c.rec_mii);
        }
    }
    tally.check_many(pairs, bad, || {
        "compiled schedules failed to compile, verify, or respect the MII bound".to_string()
    });
    quality
}

/// The Pareto flag of `rows[i]` by definition: dominated iff some same-shape
/// row has storage ≤ and clean fraction ≥, one of them strictly.
fn pareto_by_scan(rows: &[SweepRow], i: usize) -> bool {
    let r = &rows[i];
    !rows.iter().enumerate().any(|(j, o)| {
        j != i
            && o.clusters == r.clusters
            && o.fu_mix == r.fu_mix
            && o.topology == r.topology
            && o.storage_bits <= r.storage_bits
            && o.frac_clean >= r.frac_clean
            && (o.storage_bits < r.storage_bits || o.frac_clean > r.frac_clean)
    })
}

/// Spot-checks the `pareto` flags of `samples` rows drawn with `seed`;
/// returns how many disagree with the linear scan.
pub fn pareto_spot_check(rows: &[SweepRow], samples: usize, seed: u64) -> u64 {
    if rows.is_empty() {
        return 0;
    }
    let mut state = seed ^ 0x5EED_0FFA_2E70;
    (0..samples)
        .filter(|_| {
            let i = (splitmix64(&mut state) % rows.len() as u64) as usize;
            rows[i].pareto != pareto_by_scan(rows, i)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(clusters: usize, bits: u64, clean: f64) -> SweepRow {
        SweepRow {
            clusters,
            fu_mix: "basic".to_string(),
            topology: "ring".to_string(),
            fus: 3 * clusters,
            queues_per_cluster: 8,
            queue_capacity: 8,
            link_depth: 8,
            storage_bits: bits,
            loops: 8,
            frac_schedulable: 1.0,
            frac_alloc_fits: clean,
            frac_sim_clean: clean,
            frac_clean: clean,
            pareto: false,
            paper_point: false,
        }
    }

    fn marked() -> Vec<SweepRow> {
        let mut rows = vec![
            row(4, 100, 0.5),
            row(4, 200, 0.5),
            row(4, 200, 0.9),
            row(4, 400, 0.9),
            row(6, 400, 0.4),
            row(6, 100, 0.4),
        ];
        vliw_core::analysis::mark_pareto(&mut rows);
        rows
    }

    #[test]
    fn the_scan_agrees_with_the_marked_flags() {
        let rows = marked();
        assert_eq!(pareto_spot_check(&rows, 256, 7), 0);
    }

    #[test]
    fn one_flipped_flag_is_a_failure() {
        let mut rows = marked();
        rows[3].pareto = !rows[3].pareto;
        let mismatches = pareto_spot_check(&rows, 256, 7);
        assert!(mismatches > 0, "a corrupted flag must be caught");
        let mut tally = Tally::default();
        tally.check_many(256, mismatches, || "pareto".to_string());
        assert_eq!(tally.ok_frac(), 0.0, "the corruption must fail the whole check");
    }

    #[test]
    fn ii_quality_is_a_geometric_mean() {
        let mut q = IiQuality::default();
        q.add(2, 1, 1);
        q.add(8, 2, 1);
        assert!((q.geomean() - (2.0f64 * 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(IiQuality::default().geomean(), 1.0);
    }
}
