//! The permanent static-vs-dynamic differential harness.
//!
//! Two instruments claim to judge the same schedules: the flow-sensitive
//! static verifier (`vliw_verify`, pure arithmetic) and the cycle-accurate
//! simulator (`vliw_sim`, execution).  This harness pins their agreement from
//! both directions:
//!
//! * **clean side** — property test: random `loopgen` loops driven through
//!   both schedulers (plain IMS on a single-cluster machine, the partitioner
//!   on clustered ones: the paper's ring, and a torus and a crossbar whose
//!   values also cross non-ring links) must receive the *same verdict* from
//!   both checkers at a steady-state trip count — identical violation-code
//!   sets, so verifier-clean ⟺ simulator-clean — and the same per-link
//!   storage peaks;
//! * **dirty side** — fault injection: every fault class of
//!   `vliw_verify::ALL_FAULTS`, planted into every clean compilation of the
//!   golden 32-loop corpus on both machine shapes, must be flagged by **both**
//!   checkers with the fault's expected lint code.
//!
//! A verifier that misses a planted fault is unsound; one that flags a clean
//! schedule is useless; one that disagrees with the simulator is both.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use vliw_repro::vliw_core::loopgen::generator::generate_loop;
use vliw_repro::vliw_core::loopgen::CorpusConfig;
use vliw_repro::vliw_core::verify::{dynamic_violations, inject, verify_with_allocation, Mutant};
use vliw_repro::vliw_core::{
    simulate, Compiler, CompilerConfig, FuMix, LatencyModel, Machine, MachineConfig, Session,
    Topology, ALL_FAULTS,
};

/// Long enough for every corpus schedule to reach steady state, where the
/// static peaks are exact — the same trip count the experiment drivers use.
const STEADY_N: u64 = 1000;

/// One machine per scheduler: `paper_single` drives plain IMS,
/// `paper_clustered` the ring partitioner.
fn machines() -> Vec<Machine> {
    vec![Machine::paper_single(6), Machine::paper_clustered(4, LatencyModel::default())]
}

/// The 4-cluster sweep probe machines of the two richer topologies: on the
/// 2×2 torus and the crossbar, cluster 0 also talks to cluster 2, which is no
/// ring link.
fn off_ring_probe_machines() -> Vec<Machine> {
    [Topology::Torus, Topology::Crossbar]
        .into_iter()
        .map(|topology| {
            MachineConfig {
                clusters: 4,
                queues_per_cluster: 8,
                queue_capacity: 8,
                link_depth: 8,
                fu_mix: FuMix::Basic,
                topology,
            }
            .probe_machine(LatencyModel::default())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random loops through both schedulers: the static violation-code set
    /// must equal the dynamic one at a steady-state trip count, on every
    /// machine shape — in particular, verifier-clean ⟺ simulator-clean — and
    /// the static per-link peaks must be the ones the execution observes.
    #[test]
    fn static_and_dynamic_verdicts_agree_on_random_loops(seed in 0u64..2000) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(13));
        let lp = generate_loop(&CorpusConfig::small(1, seed), &mut rng, 0);
        for machine in machines().into_iter().chain(off_ring_probe_machines()) {
            let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
            let Ok(c) = compiler.compile(&lp) else { continue };
            let v = verify_with_allocation(&c.transformed, &machine, &c.schedule, &c.queues);
            let dynamic =
                dynamic_violations(&c.transformed, &machine, &c.schedule, &c.queues, STEADY_N);
            let static_codes: BTreeSet<&str> = v.violations.iter().map(|x| x.code()).collect();
            let dynamic_codes: BTreeSet<&str> = dynamic.iter().map(|x| x.code()).collect();
            prop_assert_eq!(
                &static_codes,
                &dynamic_codes,
                "{}: static {:?} vs dynamic {:?}",
                machine.name(),
                v.violations,
                dynamic
            );
            prop_assert_eq!(v.is_clean(), dynamic.is_empty());
            let run = simulate(&c.transformed, &machine, &c.schedule, STEADY_N).unwrap();
            prop_assert_eq!(&v.peak_comm_occupancy, &run.measurement.peak_comm_occupancy);
        }
    }
}

#[test]
fn every_injected_fault_is_flagged_identically_by_both_checkers_corpus_wide() {
    // The golden corpus (what baselines/verify_small.json pins), both machine
    // shapes, every fault class with an injection site.
    let session = Session::quick(32, 386);
    let mut injected = 0usize;
    for machine in machines() {
        let compiler = session.compiler(CompilerConfig::paper_defaults(machine.clone()));
        for i in 0..session.num_loops() {
            let cached = compiler.compile_full(i);
            let Ok(c) = cached.as_ref().as_ref() else { continue };
            let clean = Mutant {
                ddg: c.transformed.clone(),
                schedule: c.schedule.clone(),
                allocation: c.queues.clone(),
            };
            // Injection needs an agreed-clean starting triple; loops whose
            // storage demand already exceeds this machine are sizing data,
            // exercised by the figure baselines instead.
            if !verify_with_allocation(&clean.ddg, &machine, &clean.schedule, &clean.allocation)
                .is_clean()
            {
                continue;
            }
            for fault in ALL_FAULTS {
                let mut m = clean.clone();
                if !inject(fault, &machine, &mut m) {
                    continue;
                }
                let code = fault.expected_code();
                let v = verify_with_allocation(&m.ddg, &machine, &m.schedule, &m.allocation);
                assert!(
                    v.violations.iter().any(|x| x.code() == code),
                    "loop {i} on {}: static verifier missed {fault}: {}",
                    machine.name(),
                    v.render_text()
                );
                let dynamic =
                    dynamic_violations(&m.ddg, &machine, &m.schedule, &m.allocation, STEADY_N);
                assert!(
                    dynamic.iter().any(|x| x.code() == code),
                    "loop {i} on {}: simulator missed {fault}: {:?}",
                    machine.name(),
                    dynamic
                );
                injected += 1;
            }
        }
    }
    assert!(injected >= 100, "the corpus must offer plenty of injection sites: {injected}");
}
