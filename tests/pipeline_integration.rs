//! Cross-crate integration tests: the full pipeline (corpus generation → unrolling →
//! copy insertion → scheduling / partitioning → queue allocation → analysis) on real
//! corpora and machines, checking the invariants that every layer must preserve for
//! every loop.

use vliw_core::copy_units_for;
use vliw_core::qrf::{insert_copies, q_compatible, use_lifetimes};
use vliw_core::{generate_corpus, CorpusConfig, LatencyModel, Machine};
use vliw_core::{Compiler, CompilerConfig};

fn small_corpus(n: usize, seed: u64) -> Vec<vliw_core::Loop> {
    generate_corpus(&CorpusConfig::small(n, seed))
}

#[test]
fn every_corpus_loop_compiles_on_single_cluster_machines() {
    let corpus = small_corpus(150, 2024);
    for fus in [4usize, 6, 12] {
        let machine =
            Machine::single_cluster(fus, copy_units_for(fus), 1024, LatencyModel::default());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        for lp in &corpus {
            let c =
                compiler.compile(lp).unwrap_or_else(|e| panic!("{} on {} FUs: {e}", lp.name, fus));
            // The schedule respects every dependence and every resource.
            c.schedule
                .validate(&c.transformed, &machine)
                .unwrap_or_else(|v| panic!("{} on {} FUs: {v}", lp.name, fus));
            // The II never beats the theoretical lower bound.
            assert!(c.ii() >= c.mii, "{}", lp.name);
            // Queue allocation covers every value-carrying edge exactly once.
            let flow_edges =
                c.transformed.edges().filter(|e| e.kind == vliw_core::ddg::DepKind::Flow).count();
            let allocated: usize = c.queues.queues().map(|q| q.len()).sum();
            assert_eq!(allocated, flow_edges, "{}", lp.name);
        }
    }
}

#[test]
fn every_corpus_loop_partitions_on_clustered_machines() {
    let corpus = small_corpus(100, 555);
    for clusters in [4usize, 6] {
        let machine = Machine::paper_clustered(clusters, LatencyModel::default());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        for lp in &corpus {
            let c = compiler
                .compile(lp)
                .unwrap_or_else(|e| panic!("{} on {} clusters: {e}", lp.name, clusters));
            c.schedule
                .validate(&c.transformed, &machine)
                .unwrap_or_else(|v| panic!("{}: {v}", lp.name));
            // After copy insertion no non-copy operation feeds more than one reader,
            // and copies feed at most two (the copy unit has two write ports).
            for op in c.transformed.ops() {
                let limit = if op.kind == vliw_core::OpKind::Copy { 2 } else { 1 };
                assert!(
                    c.transformed.fanout(op.id) <= limit,
                    "{}: {} has fan-out {}",
                    lp.name,
                    op.id,
                    c.transformed.fanout(op.id)
                );
            }
            // The ring topology is honoured: every value moves at most one hop.
            for e in c.transformed.edges() {
                if e.kind != vliw_core::ddg::DepKind::Flow {
                    continue;
                }
                let src = c.schedule.cluster_of(&machine, e.src);
                let dst = c.schedule.cluster_of(&machine, e.dst);
                assert!(
                    machine.clusters_communicate(src, dst),
                    "{}: non-adjacent communication {src} -> {dst}",
                    lp.name
                );
            }
        }
    }
}

#[test]
fn queue_allocations_are_pairwise_q_compatible() {
    let corpus = small_corpus(60, 9001);
    let machine = Machine::single_cluster(6, 2, 1024, LatencyModel::default());
    for lp in &corpus {
        let rewritten = insert_copies(&lp.ddg, &LatencyModel::default());
        let sched = vliw_core::modulo_schedule(&rewritten.ddg, &machine, Default::default())
            .unwrap()
            .schedule;
        let lts = use_lifetimes(&rewritten.ddg, &sched);
        let alloc = vliw_core::allocate_queues(&lts, sched.ii);
        for q in alloc.queues() {
            for (i, &a) in q.iter().enumerate() {
                for &b in &q[i + 1..] {
                    assert!(
                        q_compatible(&lts[a as usize], &lts[b as usize], sched.ii),
                        "{}: incompatible lifetimes share a queue",
                        lp.name
                    );
                }
            }
        }
    }
}

#[test]
fn clustered_machines_rarely_beat_their_single_cluster_equivalent() {
    // Both schedulers are heuristics; a partitioned schedule is also a valid
    // single-cluster schedule, so in principle the clustered II can never be
    // genuinely better — but plain IMS occasionally misses a packing the
    // partitioner finds.  Require the anomaly to be rare and the lower bound to be
    // respected everywhere.
    let corpus = small_corpus(60, 31337);
    let clustered = Machine::paper_clustered(4, LatencyModel::default());
    let single = Machine::paper_single_cluster_equivalent(4, LatencyModel::default());
    let c_clustered = Compiler::new(CompilerConfig::paper_defaults(clustered));
    let c_single = Compiler::new(CompilerConfig::paper_defaults(single));
    let mut beats = 0usize;
    for lp in &corpus {
        let a = c_single.compile(lp).unwrap();
        let b = c_clustered.compile(lp).unwrap();
        // Identical pipelines up to the scheduler, so the transformed bodies match.
        assert_eq!(a.transformed.num_ops(), b.transformed.num_ops(), "{}", lp.name);
        assert!(a.ii() >= a.mii, "{}", lp.name);
        assert!(b.ii() >= b.mii, "{}", lp.name);
        if b.ii() < a.ii() {
            beats += 1;
        }
    }
    assert!(
        beats * 20 <= corpus.len(),
        "the partitioner out-scheduled plain IMS on {beats}/{} loops, which suggests an IMS bug",
        corpus.len()
    );
}

#[test]
fn compilation_is_deterministic_end_to_end() {
    let corpus = small_corpus(40, 808);
    let machine = Machine::paper_clustered(5, LatencyModel::default());
    let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
    for lp in &corpus {
        let a = compiler.compile(lp).unwrap();
        let b = compiler.compile(lp).unwrap();
        assert_eq!(a.schedule, b.schedule, "{}", lp.name);
        assert_eq!(a.queues_required(), b.queues_required(), "{}", lp.name);
    }
}

#[test]
fn hand_written_kernels_behave_like_the_paper_examples() {
    let lat = LatencyModel::default();
    let machine = Machine::paper_clustered(4, lat);
    let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
    for lp in vliw_core::kernels::all_kernels(lat) {
        let c = compiler.compile(&lp).unwrap();
        assert!(c.ii() >= 1 && c.ii() <= 16, "{}: implausible II {}", lp.name, c.ii());
        assert!(c.queues_required() <= 32, "{}", lp.name);
        let comm = c.comm.unwrap();
        assert!(comm.fits_pools(&compiler.config().machine), "{}", lp.name);
    }
}
