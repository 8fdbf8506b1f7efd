//! Soundness of the static lower bounds (`vliw-bounds`) against the real
//! compiler: for random `loopgen` loops driven through both schedulers, no
//! lower bound may ever exceed what the compiler achieves —
//! `mii() <= achieved II <= ii_cap`, and the min-live pigeonhole never
//! exceeds the storage the allocator actually reserves.
//!
//! The deterministic companion test additionally *measures* the bounds: the
//! tightness ratio `mii() / achieved II` over a fixed seed sweep, emitted as a
//! JSON report (run with `--nocapture` to see it).  Soundness says the ratio
//! is ≤ 1 everywhere; the report records how far below 1 it sits, which is
//! how much of the achieved II the analyzer explains without compiling.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

use vliw_repro::vliw_core::bounds::BoundsAnalyzer;
use vliw_repro::vliw_core::loopgen::generator::generate_loop;
use vliw_repro::vliw_core::loopgen::CorpusConfig;
use vliw_repro::vliw_core::pipeline::{Compiler, CompilerConfig};
use vliw_repro::vliw_core::{LatencyModel, Machine};

/// The machines the property sweeps: the paper's 6-FU single cluster, a wide
/// single cluster, and the paper's 4-cluster ring (partitioned scheduling).
fn machines(lat: LatencyModel) -> Vec<Machine> {
    vec![
        Machine::paper_single(6),
        Machine::single_cluster(12, 4, 32, lat),
        Machine::paper_clustered(4, lat),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certified_bounds_never_exceed_what_the_compiler_achieves(
        seed in 0u64..4000,
        which in 0usize..3,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let lp = generate_loop(&CorpusConfig::small(1, seed), &mut rng, 0);
        let lat = LatencyModel::default();
        let machine = machines(lat).swap_remove(which);

        let bounds = BoundsAnalyzer::new(lat).analyze(0, &lp, &machine);
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
        let Ok(c) = compiler.compile(&lp) else {
            // Unschedulable loops certify nothing about an achieved schedule.
            return Ok(());
        };

        prop_assert!(bounds.mii() <= c.schedule.ii,
            "{}: certified MII {} exceeds the achieved II {}",
            bounds.loop_name, bounds.mii(), c.schedule.ii);
        prop_assert!(c.schedule.ii <= bounds.ii_cap,
            "{}: the scheduler accepted II {} above the certified cap {}",
            bounds.loop_name, c.schedule.ii, bounds.ii_cap);

        // The pigeonhole side: at the II actually achieved, the certified
        // minimum of simultaneously live values cannot exceed the slots the
        // allocator reserved (peak-per-queue depths summed bound the peak of
        // the sum), and the config-independent `min_live` (evaluated at
        // `ii_cap`) is its weakest point.
        let reserved: usize = c.queues.queue_depths.iter().sum();
        prop_assert!(bounds.min_live_at(c.schedule.ii) <= reserved,
            "{}: certified min-live {} at II {} exceeds the {} reserved slots",
            bounds.loop_name, bounds.min_live_at(c.schedule.ii), c.schedule.ii, reserved);
        prop_assert!(bounds.min_live <= bounds.min_live_at(c.schedule.ii),
            "min_live must be the weakest (largest-II) point of the curve");
    }
}

/// The JSON document the tightness run prints.
#[derive(Serialize)]
struct TightnessReport {
    cases: usize,
    compiled: usize,
    mean_tightness: f64,
    min_tightness: f64,
    mii_achieved_fraction: f64,
}

#[test]
fn tightness_ratio_stays_sound_and_is_reported_as_json() {
    let lat = LatencyModel::default();
    let analyzer = BoundsAnalyzer::new(lat);
    let mut ratios: Vec<f64> = Vec::new();
    let mut cases = 0usize;
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(17));
        let lp = generate_loop(&CorpusConfig::small(1, seed), &mut rng, 0);
        for machine in machines(lat) {
            cases += 1;
            let bounds = analyzer.analyze(seed as usize, &lp, &machine);
            let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
            let Ok(c) = compiler.compile(&lp) else {
                continue;
            };
            let ratio = f64::from(bounds.mii()) / f64::from(c.schedule.ii);
            assert!(ratio <= 1.0, "{}: unsound bound, tightness {ratio}", bounds.loop_name);
            ratios.push(ratio);
        }
    }
    assert!(!ratios.is_empty(), "the seed sweep must compile something");
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let exact = ratios.iter().filter(|&&r| r == 1.0).count() as f64 / ratios.len() as f64;
    let report = TightnessReport {
        cases,
        compiled: ratios.len(),
        mean_tightness: mean,
        min_tightness: min,
        mii_achieved_fraction: exact,
    };
    println!("{}", serde_json::to_string_pretty(&report).expect("the tightness report serializes"));
    // The bound is not just sound but useful: on this corpus the certified
    // MII explains most of the achieved II on average, and a healthy share
    // of loops schedule exactly at it.
    assert!(mean > 0.5, "mean tightness collapsed to {mean}");
    assert!(exact > 0.2, "only {exact} of loops achieve the certified MII");
}
