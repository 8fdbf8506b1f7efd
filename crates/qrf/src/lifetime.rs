//! Value lifetimes in a modulo schedule.
//!
//! A *lifetime* spans from the cycle at which storage is reserved for a value (the
//! issue cycle of its producer) to the cycle at which its last consumer reads it
//! (`issue(consumer) + II · distance` for a loop-carried use).  Because successive
//! iterations are initiated every II cycles, several instances of the same lifetime
//! can be alive simultaneously; this is precisely what creates register pressure in
//! software-pipelined loops.
//!
//! Two flavours of lifetime are extracted:
//!
//! * **per-value lifetimes** ([`value_lifetimes`]) — one per produced value, ending at
//!   the *last* read; these drive the conventional-register-file MaxLive baseline;
//! * **per-use lifetimes** ([`use_lifetimes`]) — one per (producer, consumer) flow
//!   edge; these drive queue allocation, because a queue read is destructive so every
//!   additional consumer needs its own queue-resident instance of the value
//!   (Section 2 of the paper).

use vliw_ddg::{Ddg, OpId};
use vliw_sched::Schedule;

/// A storage lifetime extracted from a modulo schedule.
///
/// Endpoints are `u64`: schedule issue cycles are `u32`, but a loop-carried use
/// ends at `issue(consumer) + II · distance`, and for long-latency chains (large
/// II) combined with large dependence distances that product overflows `u32`.
/// The scheduler's window scans were widened the same way; the lifetime side
/// (extraction, MaxLive, Q-compatibility) works in `u64` throughout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifetime {
    /// The operation producing the value.
    pub producer: OpId,
    /// The consumer this lifetime feeds (per-use lifetimes) or the last consumer
    /// (per-value lifetimes).
    pub consumer: OpId,
    /// Cycle at which the storage is reserved: the producer's issue cycle.
    pub start: u64,
    /// Cycle at which the (last) consumer reads the value:
    /// `issue(consumer) + II · distance`.
    pub end: u64,
}

impl Lifetime {
    /// Length of the lifetime in cycles (`end − start`).
    #[inline]
    pub fn length(&self) -> u64 {
        self.end - self.start
    }

    /// True if the lifetime spans more than `ii` cycles, meaning more than one
    /// instance of it is alive at steady state.
    pub fn overlaps_itself(&self, ii: u32) -> bool {
        self.length() > u64::from(ii)
    }
}

/// Extracts one lifetime per (producer, consumer) flow edge.
pub fn use_lifetimes(ddg: &Ddg, schedule: &Schedule) -> Vec<Lifetime> {
    let ii = u64::from(schedule.ii);
    let mut out = Vec::new();
    for e in ddg.edges() {
        if !e.kind.carries_value() {
            continue;
        }
        let start = u64::from(schedule.start_of(e.src));
        let end = u64::from(schedule.start_of(e.dst)) + ii * u64::from(e.distance);
        debug_assert!(end >= start, "schedule violates dependence {e}");
        out.push(Lifetime { producer: e.src, consumer: e.dst, start, end });
    }
    out
}

/// Extracts one lifetime per produced value (covering all of its consumers).
///
/// Values with no consumer (e.g. a compare feeding the loop branch, which is not
/// modelled) produce no lifetime.
pub fn value_lifetimes(ddg: &Ddg, schedule: &Schedule) -> Vec<Lifetime> {
    let ii = u64::from(schedule.ii);
    let mut out = Vec::new();
    for op in ddg.op_ids() {
        let mut last: Option<(OpId, u64)> = None;
        for e in ddg.flow_consumers(op) {
            let end = u64::from(schedule.start_of(e.dst)) + ii * u64::from(e.distance);
            if last.is_none_or(|(_, prev)| end > prev) {
                last = Some((e.dst, end));
            }
        }
        if let Some((consumer, end)) = last {
            out.push(Lifetime {
                producer: op,
                consumer,
                start: u64::from(schedule.start_of(op)),
                end,
            });
        }
    }
    out
}

/// Steady-state storage requirement of a set of lifetimes: the maximum, over the II
/// modulo slots, of the number of live lifetime instances.
///
/// This is the classic *MaxLive* quantity; for a conventional register file it is the
/// number of registers needed (ignoring allocation fragmentation), and for a single
/// queue holding a set of lifetimes it is the queue depth required.
pub fn max_live(lifetimes: &[Lifetime], ii: u32) -> usize {
    let mut diff = Vec::new();
    max_live_iter(lifetimes.iter(), ii, &mut diff)
}

/// [`max_live`] of the subset `members` (indices into `lifetimes`), reusing a
/// caller-provided difference-array buffer.
///
/// This is the queue-depth computation of the allocator: one call per queue,
/// over the member indices, with a single scratch buffer for the whole
/// allocation — no member `Lifetime` is ever cloned.
pub fn max_live_indexed(
    lifetimes: &[Lifetime],
    members: &[u32],
    ii: u32,
    diff: &mut Vec<i64>,
) -> usize {
    max_live_iter(members.iter().map(|&j| &lifetimes[j as usize]), ii, diff)
}

/// The shared MaxLive core: whole-wrap counting plus a difference array over the
/// II ring, `O(II + n)` per call.  `diff` is cleared and reused.
fn max_live_iter<'a>(
    lifetimes: impl Iterator<Item = &'a Lifetime>,
    ii: u32,
    diff: &mut Vec<i64>,
) -> usize {
    assert!(ii >= 1);
    let ii = ii as usize;
    // O(II) per lifetime instead of O(length): a lifetime of length L covers
    // every modulo slot ⌊L / II⌋ times (the whole wraps), plus the L mod II
    // slots starting at `start mod II` once more.  The partial cover is a
    // (possibly wrapping) interval, accumulated in a difference array.
    let mut whole_wraps = 0usize;
    diff.clear();
    diff.resize(ii + 1, 0);
    for lt in lifetimes {
        let len = lt.length();
        whole_wraps += (len / ii as u64) as usize;
        let rem = (len % ii as u64) as usize;
        if rem == 0 {
            continue;
        }
        let s = (lt.start % ii as u64) as usize;
        if s + rem <= ii {
            diff[s] += 1;
            diff[s + rem] -= 1;
        } else {
            diff[s] += 1;
            diff[ii] -= 1;
            diff[0] += 1;
            diff[s + rem - ii] -= 1;
        }
    }
    let mut best = 0i64;
    let mut cur = 0i64;
    for d in &diff[..ii] {
        cur += d;
        best = best.max(cur);
    }
    whole_wraps + best as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, DdgBuilder, LatencyModel, OpKind};
    use vliw_machine::Machine;
    use vliw_sched::{modulo_schedule, ImsOptions};

    fn schedule_kernel(l: &vliw_ddg::Loop, fus: usize) -> Schedule {
        let m = Machine::single_cluster(fus, 2, 32, LatencyModel::default());
        modulo_schedule(&l.ddg, &m, ImsOptions::default()).unwrap().schedule
    }

    #[test]
    fn use_lifetimes_one_per_flow_edge() {
        let l = kernels::dot_product(LatencyModel::default(), 100);
        let s = schedule_kernel(&l, 6);
        let lts = use_lifetimes(&l.ddg, &s);
        let flow_edges = l.ddg.edges().filter(|e| e.kind.carries_value()).count();
        assert_eq!(lts.len(), flow_edges);
        for lt in &lts {
            assert!(lt.end >= lt.start);
        }
    }

    #[test]
    fn value_lifetimes_one_per_producing_op_with_consumers() {
        let l = kernels::wide_parallel(LatencyModel::default(), 100);
        let s = schedule_kernel(&l, 12);
        let lts = value_lifetimes(&l.ddg, &s);
        let producers_with_uses = l.ddg.op_ids().filter(|&op| l.ddg.fanout(op) > 0).count();
        assert_eq!(lts.len(), producers_with_uses);
    }

    #[test]
    fn value_lifetime_ends_at_last_consumer() {
        // One producer read by an early and a late consumer.
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let p = b.op(OpKind::Load);
        let early = b.op(OpKind::Add);
        let late = b.op(OpKind::Mul);
        b.flow(p, early);
        b.flow(p, late);
        let g = b.finish();
        let m = Machine::single_cluster(6, 1, 32, LatencyModel::unit());
        let s = modulo_schedule(&g, &m, ImsOptions::default()).unwrap().schedule;
        let vl = value_lifetimes(&g, &s);
        assert_eq!(vl.len(), 1);
        let ul = use_lifetimes(&g, &s);
        assert_eq!(ul.len(), 2);
        let max_end = ul.iter().map(|l| l.end).max().unwrap();
        assert_eq!(vl[0].end, max_end);
    }

    #[test]
    fn carried_uses_extend_lifetimes_by_ii() {
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let p = b.op(OpKind::Add);
        let c = b.op(OpKind::Mul);
        b.flow_carried(p, c, 2);
        let g = b.finish();
        let m = Machine::single_cluster(6, 1, 32, LatencyModel::unit());
        let s = modulo_schedule(&g, &m, ImsOptions::default()).unwrap().schedule;
        let lts = use_lifetimes(&g, &s);
        assert_eq!(lts.len(), 1);
        assert_eq!(lts[0].end, u64::from(s.start_of(c)) + 2 * u64::from(s.ii));
        assert!(lts[0].overlaps_itself(s.ii));
    }

    #[test]
    fn long_latency_chain_lifetimes_do_not_overflow_u32() {
        // A loop-carried use at a large II and a large distance: the end cycle
        // `issue(consumer) + II · distance` exceeds u32::MAX.  The scheduler's
        // window scans were widened to u64 earlier; the lifetime extraction must
        // survive the same regime instead of wrapping (or panicking in debug).
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let p = b.op(OpKind::Add);
        let c = b.op(OpKind::Mul);
        b.flow_carried(p, c, 70_000);
        let g = b.finish();
        let ii = 70_000u32; // ii · distance = 4.9e9 > u32::MAX
        let s = Schedule::new(ii, vec![0, 1], vec![vliw_machine::FuId(0), vliw_machine::FuId(1)]);
        let lts = use_lifetimes(&g, &s);
        assert_eq!(lts.len(), 1);
        assert_eq!(lts[0].end, 1 + u64::from(ii) * 70_000);
        assert!(lts[0].end > u64::from(u32::MAX));
        // The derived quantities stay exact in the widened domain.
        assert_eq!(lts[0].length(), lts[0].end - lts[0].start);
        assert!(lts[0].overlaps_itself(ii));
        let vls = value_lifetimes(&g, &s);
        assert_eq!(vls[0].end, lts[0].end);
        // MaxLive of a single lifetime of length L at initiation interval II is
        // ceil(L / II); the whole-wrap accounting must not truncate.
        assert_eq!(max_live(&lts, ii), lts[0].length().div_ceil(u64::from(ii)) as usize);
    }

    #[test]
    fn max_live_counts_overlap() {
        // Two lifetimes [0, 4) and [2, 6) at II = 2: every slot holds one instance of
        // each at steady state plus the overlap, giving MaxLive 4.
        let lts = vec![
            Lifetime { producer: OpId(0), consumer: OpId(1), start: 0, end: 4 },
            Lifetime { producer: OpId(2), consumer: OpId(3), start: 2, end: 6 },
        ];
        assert_eq!(max_live(&lts, 2), 4);
        assert_eq!(max_live(&lts, 4), 2);
        assert_eq!(max_live(&lts, 8), 2);
    }

    #[test]
    fn max_live_of_empty_set_is_zero() {
        assert_eq!(max_live(&[], 4), 0);
    }

    #[test]
    fn max_live_indexed_matches_cloning_the_subset() {
        let lts: Vec<Lifetime> = [(0u64, 4u64), (2, 6), (1, 9), (3, 3), (5, 17)]
            .iter()
            .map(|&(s, e)| Lifetime { producer: OpId(0), consumer: OpId(1), start: s, end: e })
            .collect();
        let mut diff = Vec::new();
        for members in [vec![], vec![0u32], vec![1, 3], vec![0, 2, 4], vec![4, 2, 0]] {
            for ii in 1..=8 {
                let cloned: Vec<Lifetime> =
                    members.iter().map(|&j| lts[j as usize].clone()).collect();
                assert_eq!(
                    max_live_indexed(&lts, &members, ii, &mut diff),
                    max_live(&cloned, ii),
                    "members {members:?} at II {ii}"
                );
            }
        }
    }

    #[test]
    fn lifetime_length_and_self_overlap() {
        let lt = Lifetime { producer: OpId(0), consumer: OpId(1), start: 3, end: 10 };
        assert_eq!(lt.length(), 7);
        assert!(lt.overlaps_itself(4));
        assert!(!lt.overlaps_itself(7));
    }

    proptest::proptest! {
        /// The whole-wrap + difference-array implementation agrees with the
        /// naive per-cycle counting it replaced, including lifetimes much
        /// longer than the II and empty (zero-length) lifetimes.
        #[test]
        fn max_live_matches_naive_counting(
            raw in proptest::collection::vec((0u32..40, 0u32..90), 0..40),
            ii in 1u32..12,
        ) {
            let lts: Vec<Lifetime> = raw
                .iter()
                .map(|&(s, l)| Lifetime {
                    producer: OpId(0),
                    consumer: OpId(1),
                    start: u64::from(s),
                    end: u64::from(s + l),
                })
                .collect();
            let naive = {
                let mut live = vec![0usize; ii as usize];
                for lt in &lts {
                    for t in lt.start..lt.end {
                        live[(t % u64::from(ii)) as usize] += 1;
                    }
                }
                live.into_iter().max().unwrap_or(0)
            };
            proptest::prop_assert_eq!(max_live(&lts, ii), naive);
        }
    }
}
