//! The unrolling transformation itself.

use vliw_ddg::{Ddg, OpId};

/// An unrolled loop body together with the bookkeeping needed to map operations back
/// to the original body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrolledLoop {
    /// The unrolled dependence graph.  Copy `k` of original operation `i` has id
    /// `k · original_ops + i`.
    pub ddg: Ddg,
    /// Unroll factor (1 means the graph is an exact copy of the original).
    pub factor: u32,
    /// Number of operations in the original body.
    pub original_ops: usize,
}

impl UnrolledLoop {
    /// The id of copy `k` of original operation `op`.
    pub fn copy_of(&self, op: OpId, k: u32) -> OpId {
        assert!(k < self.factor);
        assert!(op.index() < self.original_ops);
        OpId(k * self.original_ops as u32 + op.0)
    }

    /// Maps an operation of the unrolled body back to `(original op, copy index)`.
    pub fn original_of(&self, op: OpId) -> (OpId, u32) {
        let n = self.original_ops as u32;
        (OpId(op.0 % n), op.0 / n)
    }
}

/// Unrolls `ddg` by `factor`.
///
/// Every original operation is replicated `factor` times; an edge `(i → j)` with
/// distance `d` becomes, for each copy `k`, an edge from copy `k` of `i` to copy
/// `(k + d) mod factor` of `j` with distance `(k + d) / factor`.  This preserves the
/// inter-iteration semantics of the original loop exactly (the unrolled loop executes
/// `factor` original iterations per unrolled iteration).
pub fn unroll_ddg(ddg: &Ddg, factor: u32) -> UnrolledLoop {
    assert!(factor >= 1, "unroll factor must be at least 1");
    let n = ddg.num_ops();
    let mut out = Ddg::with_capacity(n * factor as usize);
    for k in 0..factor {
        for op in ddg.ops() {
            let id = out.add_op(op.kind);
            debug_assert_eq!(id.0, k * n as u32 + op.id.0);
        }
    }
    for k in 0..factor {
        for e in ddg.edges() {
            let total = k + e.distance;
            let dst_copy = total % factor;
            let new_distance = total / factor;
            let src = OpId(k * n as u32 + e.src.0);
            let dst = OpId(dst_copy * n as u32 + e.dst.0);
            out.add_edge(src, dst, e.kind, e.latency, new_distance);
        }
    }
    debug_assert!(out.validate().is_ok(), "unrolling produced an invalid graph");
    UnrolledLoop { ddg: out, factor, original_ops: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vliw_ddg::{DdgBuilder, DepKind, LatencyModel, OpKind};

    fn accumulator() -> Ddg {
        // ld -> add(acc); acc -> acc carried.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let ld = b.op(OpKind::Load);
        let acc = b.op(OpKind::Add);
        b.flow(ld, acc);
        b.flow_carried(acc, acc, 1);
        b.finish()
    }

    #[test]
    fn factor_one_is_identity_up_to_ids() {
        let g = accumulator();
        let u = unroll_ddg(&g, 1);
        assert_eq!(u.ddg.num_ops(), g.num_ops());
        assert_eq!(u.ddg.num_edges(), g.num_edges());
        assert_eq!(u.factor, 1);
        for (a, b) in g.edges().zip(u.ddg.edges()) {
            assert_eq!(
                (a.src, a.dst, a.latency, a.distance),
                (b.src, b.dst, b.latency, b.distance)
            );
        }
    }

    #[test]
    fn op_count_scales_with_factor() {
        let g = accumulator();
        for f in 1..=5u32 {
            let u = unroll_ddg(&g, f);
            assert_eq!(u.ddg.num_ops(), g.num_ops() * f as usize);
            assert_eq!(u.ddg.num_edges(), g.num_edges() * f as usize);
            assert!(u.ddg.validate().is_ok());
        }
    }

    #[test]
    fn carried_self_edge_becomes_chain_plus_wraparound() {
        let g = accumulator();
        let u = unroll_ddg(&g, 3);
        // Copies of the accumulator are ops 1, 3, 5.
        let acc = OpId(1);
        let accs: Vec<OpId> = (0..3).map(|k| u.copy_of(acc, k)).collect();
        // Edges: acc0 -> acc1 (d 0), acc1 -> acc2 (d 0), acc2 -> acc0 (d 1).
        let mut found = 0;
        for e in u.ddg.edges() {
            if e.src == accs[0] && e.dst == accs[1] {
                assert_eq!(e.distance, 0);
                found += 1;
            }
            if e.src == accs[1] && e.dst == accs[2] {
                assert_eq!(e.distance, 0);
                found += 1;
            }
            if e.src == accs[2] && e.dst == accs[0] {
                assert_eq!(e.distance, 1);
                found += 1;
            }
        }
        assert_eq!(found, 3);
    }

    #[test]
    fn distance_two_edges_skip_a_copy() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        let p = b.op(OpKind::Add);
        let c = b.op(OpKind::Mul);
        b.flow_carried(p, c, 2);
        let g = b.finish();
        let u = unroll_ddg(&g, 2);
        // distance 2 at factor 2: copy k feeds copy k of the consumer in the *next*
        // unrolled iteration (distance 1).
        for e in u.ddg.edges() {
            assert_eq!(e.distance, 1);
            let (src_orig, src_copy) = u.original_of(e.src);
            let (dst_orig, dst_copy) = u.original_of(e.dst);
            assert_eq!(src_orig, p);
            assert_eq!(dst_orig, c);
            assert_eq!(src_copy, dst_copy);
        }
    }

    #[test]
    fn copy_of_and_original_of_roundtrip() {
        let g = accumulator();
        let u = unroll_ddg(&g, 4);
        for k in 0..4 {
            for op in g.op_ids() {
                let c = u.copy_of(op, k);
                assert_eq!(u.original_of(c), (op, k));
            }
        }
    }

    #[test]
    fn recurrence_circuit_total_weight_is_preserved() {
        // The recurrence circuit's delay-to-distance ratio (and hence RecMII per
        // original iteration) must be preserved by unrolling.
        let g = accumulator();
        let rec1 = vliw_sched::rec_mii(&g);
        for f in 2..=4 {
            let u = unroll_ddg(&g, f);
            let rec_u = vliw_sched::rec_mii(&u.ddg);
            // RecMII of the unrolled body counts f original iterations.
            assert_eq!(rec_u.div_ceil(f), rec1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_factor_panics() {
        let g = accumulator();
        let _ = unroll_ddg(&g, 0);
    }

    /// Random DAG + carried edges generator for property tests.
    fn random_ddg(seed: u64, n: usize) -> Ddg {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = DdgBuilder::new(LatencyModel::default());
        let kinds = [OpKind::Load, OpKind::Add, OpKind::Mul, OpKind::Sub];
        let ops: Vec<OpId> = (0..n).map(|_| b.op(kinds[rng.gen_range(0..kinds.len())])).collect();
        for i in 1..n {
            // Forward edge to keep the distance-0 subgraph acyclic.
            let src = ops[rng.gen_range(0..i)];
            b.flow(src, ops[i]);
            if rng.gen_bool(0.3) {
                let dst = ops[rng.gen_range(0..i)];
                b.edge_with_latency(
                    ops[i],
                    dst,
                    DepKind::Flow,
                    rng.gen_range(1..4),
                    rng.gen_range(1..3),
                );
            }
        }
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Unrolling preserves validity and scales counts for arbitrary graphs.
        #[test]
        fn unrolling_preserves_validity(seed in 0u64..500, n in 2usize..20, factor in 1u32..5) {
            let g = random_ddg(seed, n);
            let u = unroll_ddg(&g, factor);
            prop_assert!(u.ddg.validate().is_ok());
            prop_assert_eq!(u.ddg.num_ops(), g.num_ops() * factor as usize);
            prop_assert_eq!(u.ddg.num_edges(), g.num_edges() * factor as usize);
        }

        /// Every unrolled edge maps back to an original edge with consistent copy
        /// arithmetic: `dst_copy = (src_copy + d_orig) mod U` and
        /// `d_new = (src_copy + d_orig) / U`.
        #[test]
        fn edge_redistribution_is_consistent(seed in 0u64..500, n in 2usize..16, factor in 1u32..5) {
            let g = random_ddg(seed, n);
            let u = unroll_ddg(&g, factor);
            for e in u.ddg.edges() {
                let (src_orig, src_copy) = u.original_of(e.src);
                let (dst_orig, dst_copy) = u.original_of(e.dst);
                // Find a matching original edge.
                let matched = g.edges().any(|oe| {
                    oe.src == src_orig
                        && oe.dst == dst_orig
                        && oe.latency == e.latency
                        && oe.kind == e.kind
                        && (src_copy + oe.distance) % factor == dst_copy
                        && (src_copy + oe.distance) / factor == e.distance
                });
                prop_assert!(matched, "unrolled edge {} has no original counterpart", e);
            }
        }

        /// The recurrence bound per original iteration never degrades.
        #[test]
        fn rec_mii_per_iteration_preserved(seed in 0u64..200, n in 2usize..12, factor in 1u32..5) {
            let g = random_ddg(seed, n);
            let u = unroll_ddg(&g, factor);
            let rec1 = vliw_sched::rec_mii(&g);
            let rec_u = vliw_sched::rec_mii(&u.ddg);
            prop_assert!(rec_u <= rec1 * factor,
                "unrolled RecMII {} exceeds {} x factor {}", rec_u, rec1, factor);
        }
    }
}
