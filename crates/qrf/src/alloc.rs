//! Queue allocation: binning per-use lifetimes into hardware queues.
//!
//! Lifetimes are assigned to queues greedily (first fit, in increasing start order):
//! a lifetime joins the first queue whose current members are all Q-compatible with
//! it, otherwise a new queue is opened.  Q-compatibility is pairwise but not
//! transitive, so every member must be checked.
//!
//! The membership test is bitset-accelerated (see [`crate::interfere`]): each open
//! queue keeps a running **interference row** — the OR of its members' occupancy
//! masks over the II ring.  A candidate whose mask is disjoint from the row is
//! compatible with every member (one word-AND per word); only on overlap does the
//! allocator fall back to per-member tests, skipping members whose own masks are
//! disjoint and deciding the rest with the division-free reduced form.  The
//! resulting allocation is **identical** to the pairwise path — the masks only
//! skip tests whose outcome is forced.
//!
//! The allocator also reports the depth each queue needs (the maximum number of
//! values simultaneously resident), which sizes the queue storage of Fig. 7.
//! Depths are computed from member indices over a shared difference array; no
//! member lifetime is cloned.

use std::cell::RefCell;

use crate::interfere::{masks_disjoint, words_for, InterferenceSigs};
use crate::lifetime::{max_live_indexed, Lifetime};
use crate::qcompat::q_compatible_reduced;

/// Result of queue allocation.
///
/// Queue membership is stored queue-major in one flat array (`members` sliced
/// by `offsets`, CSR style) so an allocation costs three allocations however
/// many queues it uses; access members through [`QueueAllocation::queue`] or
/// [`QueueAllocation::queues`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueAllocation {
    /// Initiation interval of the schedule the lifetimes came from.
    pub ii: u32,
    /// Lifetime indices of every queue, queue-major.
    members: Vec<u32>,
    /// `members[offsets[q]..offsets[q + 1]]` are queue `q`'s lifetimes.
    offsets: Vec<u32>,
    /// Required depth of each queue (maximum simultaneous occupancy).
    pub queue_depths: Vec<usize>,
}

impl QueueAllocation {
    /// Number of queues used.
    pub fn num_queues(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Indices (into the input lifetime slice) of queue `q`'s members.
    pub fn queue(&self, q: usize) -> &[u32] {
        &self.members[self.offsets[q] as usize..self.offsets[q + 1] as usize]
    }

    /// Iterator over the member lists of all queues, in queue order.
    pub fn queues(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_queues()).map(move |q| self.queue(q))
    }

    /// The largest queue depth required by any queue.
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depths.iter().copied().max().unwrap_or(0)
    }

    /// True if the allocation fits **one** storage pool of `num_queues` queues of
    /// `capacity` entries each.
    ///
    /// This is a single-pool predicate: it is only meaningful when every
    /// lifetime behind the allocation lives in the same physical pool (a
    /// single-cluster QRF, one cluster's private queues, or one directed ring
    /// link).  A clustered machine owns several distinct pools per cluster
    /// (private GPQs plus ring-input and ring-output queues — Fig. 7's 8+8+8),
    /// so feasibility there must be decided per pool from per-pool allocations
    /// (`vliw_partition::CommStats::fits_pools`), never by applying this check
    /// to a machine-wide allocation.
    pub fn fits(&self, num_queues: usize, capacity: usize) -> bool {
        self.num_queues() <= num_queues && self.max_queue_depth() <= capacity
    }
}

/// Reusable working storage of [`allocate_queues`]: the sort order, the
/// interference signatures, the per-queue interference rows, the flat member
/// tables and the MaxLive difference array.  One instance per worker thread
/// makes queue allocation allocation-free apart from the returned
/// [`QueueAllocation`] itself.
#[derive(Debug, Default)]
struct AllocScratch {
    order: Vec<usize>,
    sigs: InterferenceSigs,
    /// Interference rows of the open queues, `words_for(ii)` words each, flat.
    rows: Vec<u64>,
    /// Occupied write phases of the open queues, same layout as `rows`.
    phase_bits: Vec<u64>,
    /// Flat per-queue member tables, stride `ii` (a queue holds at most one
    /// member per phase, hence at most `ii` members).
    member_idx: Vec<u32>,
    member_phase: Vec<u32>,
    member_len: Vec<u64>,
    /// Member count and length extrema per open queue.
    counts: Vec<u32>,
    min_len: Vec<u64>,
    max_len: Vec<u64>,
    diff: Vec<i64>,
}

thread_local! {
    /// Per-thread scratch of [`allocate_queues`].  The session executor runs
    /// one OS thread per worker, so this gives every worker a private reusable
    /// arena without threading a parameter through every caller.
    static ALLOC_SCRATCH: RefCell<AllocScratch> = RefCell::new(AllocScratch::default());
}

/// Allocates `lifetimes` (per-use lifetimes of one modulo-scheduled loop) to queues.
pub fn allocate_queues(lifetimes: &[Lifetime], ii: u32) -> QueueAllocation {
    ALLOC_SCRATCH.with(|s| allocate_in(lifetimes, ii, &mut s.borrow_mut()))
}

/// [`allocate_queues`] in `scratch`'s buffers.
fn allocate_in(lifetimes: &[Lifetime], ii: u32, scratch: &mut AllocScratch) -> QueueAllocation {
    let _span = vliw_obs::span!("qrf/alloc", lifetimes.len());
    assert!(ii >= 1);
    let words = words_for(ii);
    // Process lifetimes by increasing start time (then end time) — the same order in
    // which the hardware would see the writes — which keeps first-fit behaviour
    // deterministic and tends to pack compatible chains together.
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..lifetimes.len());
    order.sort_unstable_by_key(|&i| (lifetimes[i].start, lifetimes[i].end, i));

    let sigs = &mut scratch.sigs;
    sigs.build_into(lifetimes, ii);
    let rows = &mut scratch.rows;
    rows.clear();
    let phase_bits = &mut scratch.phase_bits;
    phase_bits.clear();
    let stride = ii as usize;
    scratch.member_idx.clear();
    scratch.member_phase.clear();
    scratch.member_len.clear();
    scratch.counts.clear();
    scratch.min_len.clear();
    scratch.max_len.clear();

    let mut nq = 0usize;
    for &i in order.iter() {
        let mask = sigs.mask(i);
        let (phase, len) = (sigs.phase(i), sigs.len(i));
        let (pw, pb) = ((phase / 64) as usize, phase % 64);
        let mut placed = usize::MAX;
        for q in 0..nq {
            // O(1) rejects, all of which only skip provably incompatible
            // queues (so first fit still lands on the same queue):
            // * a member at the candidate's phase — same-phase lifetimes
            //   always collide (`d == 0` fails both branches of the test);
            // * a length gap of at least II−1 in either direction — the
            //   phase distance is at most II−1, so no phase can absorb it.
            if phase_bits[q * words + pw] >> pb & 1 == 1 {
                continue;
            }
            if len >= scratch.min_len[q] + u64::from(ii) - 1
                || scratch.max_len[q] >= len + u64::from(ii) - 1
            {
                continue;
            }
            // O(words) accept: a candidate disjoint from the queue's
            // interference row is compatible with every member.
            let fits = masks_disjoint(mask, &rows[q * words..(q + 1) * words]) || {
                let count = scratch.counts[q] as usize;
                let phases = &scratch.member_phase[q * stride..q * stride + count];
                let lens = &scratch.member_len[q * stride..q * stride + count];
                phases
                    .iter()
                    .zip(lens)
                    .all(|(&pj, &lj)| q_compatible_reduced(phase, len, pj, lj, ii))
            };
            if fits {
                placed = q;
                break;
            }
        }
        if placed == usize::MAX {
            placed = nq;
            nq += 1;
            rows.resize(nq * words, 0);
            phase_bits.resize(nq * words, 0);
            scratch.member_idx.resize(nq * stride, 0);
            scratch.member_phase.resize(nq * stride, 0);
            scratch.member_len.resize(nq * stride, 0);
            scratch.counts.push(0);
            scratch.min_len.push(u64::MAX);
            scratch.max_len.push(0);
        }
        let q = placed;
        let at = q * stride + scratch.counts[q] as usize;
        scratch.member_idx[at] = i as u32;
        scratch.member_phase[at] = phase;
        scratch.member_len[at] = len;
        scratch.counts[q] += 1;
        scratch.min_len[q] = scratch.min_len[q].min(len);
        scratch.max_len[q] = scratch.max_len[q].max(len);
        phase_bits[q * words + pw] |= 1u64 << pb;
        for (r, m) in rows[q * words..(q + 1) * words].iter_mut().zip(mask) {
            *r |= m;
        }
    }

    let mut members: Vec<u32> = Vec::with_capacity(lifetimes.len());
    let mut offsets: Vec<u32> = Vec::with_capacity(nq + 1);
    offsets.push(0);
    for q in 0..nq {
        members.extend_from_slice(
            &scratch.member_idx[q * stride..q * stride + scratch.counts[q] as usize],
        );
        offsets.push(members.len() as u32);
    }
    let queue_depths = (0..nq)
        .map(|q| {
            let m = &members[offsets[q] as usize..offsets[q + 1] as usize];
            max_live_indexed(lifetimes, m, ii, &mut scratch.diff)
        })
        .collect();

    QueueAllocation { ii, members, offsets, queue_depths }
}

/// Number of queues required by a loop, as reported in Fig. 3: the size of the
/// allocation produced by [`allocate_queues`].
pub fn queues_required(lifetimes: &[Lifetime], ii: u32) -> usize {
    allocate_queues(lifetimes, ii).num_queues()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::use_lifetimes;
    use crate::qcompat::q_compatible;
    use proptest::prelude::*;
    use vliw_ddg::{kernels, LatencyModel, OpId};
    use vliw_machine::Machine;
    use vliw_sched::{modulo_schedule, ImsOptions};

    fn lt(start: u32, end: u32) -> Lifetime {
        Lifetime { producer: OpId(0), consumer: OpId(1), start: start.into(), end: end.into() }
    }

    #[test]
    fn disjoint_compatible_lifetimes_share_one_queue() {
        // Same length, consecutive phases: all pairwise compatible at II 4.
        let lts = vec![lt(0, 2), lt(1, 3), lt(2, 4), lt(3, 5)];
        let alloc = allocate_queues(&lts, 4);
        assert_eq!(alloc.num_queues(), 1);
        assert_eq!(alloc.queue(0).len(), 4);
        assert!(alloc.max_queue_depth() >= 2);
    }

    #[test]
    fn colliding_lifetimes_need_separate_queues() {
        // Identical phases collide pairwise: one queue each.
        let lts = vec![lt(0, 2), lt(4, 6), lt(8, 10)];
        let alloc = allocate_queues(&lts, 4);
        assert_eq!(alloc.num_queues(), 3);
        assert!(alloc.queue_depths.iter().all(|&d| d == 1));
    }

    #[test]
    fn allocation_is_pairwise_compatible_within_each_queue() {
        let l = kernels::wide_parallel(LatencyModel::default(), 100);
        let m = Machine::single_cluster(6, 2, 32, LatencyModel::default());
        let s = modulo_schedule(&l.ddg, &m, ImsOptions::default()).unwrap().schedule;
        let lts = use_lifetimes(&l.ddg, &s);
        let alloc = allocate_queues(&lts, s.ii);
        for q in alloc.queues() {
            for (ai, &a) in q.iter().enumerate() {
                for &b in &q[ai + 1..] {
                    assert!(
                        q_compatible(&lts[a as usize], &lts[b as usize], s.ii),
                        "queue contains an incompatible pair"
                    );
                }
            }
        }
        // Every lifetime is allocated exactly once.
        let mut seen: Vec<usize> = alloc.queues().flatten().map(|&i| i as usize).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..lts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn queues_required_matches_allocation() {
        let lts = vec![lt(0, 3), lt(1, 4), lt(4, 7), lt(2, 9)];
        assert_eq!(queues_required(&lts, 4), allocate_queues(&lts, 4).num_queues());
    }

    #[test]
    fn fits_checks_both_dimensions() {
        let lts = vec![lt(0, 9), lt(1, 8)];
        let alloc = allocate_queues(&lts, 2);
        assert!(alloc.fits(32, 8));
        assert!(!alloc.fits(0, 8));
        assert!(!alloc.fits(32, 1));
    }

    #[test]
    fn empty_input_allocates_nothing() {
        let alloc = allocate_queues(&[], 3);
        assert_eq!(alloc.num_queues(), 0);
        assert_eq!(alloc.max_queue_depth(), 0);
        assert!(alloc.fits(0, 0));
    }

    /// The historical pairwise first-fit allocator, kept verbatim as the
    /// executable specification the bitset path must match queue-for-queue.
    fn allocate_queues_pairwise(lifetimes: &[Lifetime], ii: u32) -> QueueAllocation {
        let mut order: Vec<usize> = (0..lifetimes.len()).collect();
        order.sort_unstable_by_key(|&i| (lifetimes[i].start, lifetimes[i].end, i));
        let mut queues: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            let lt = &lifetimes[i];
            let mut placed = false;
            for q in queues.iter_mut() {
                if q.iter().all(|&j| q_compatible(lt, &lifetimes[j], ii)) {
                    q.push(i);
                    placed = true;
                    break;
                }
            }
            if !placed {
                queues.push(vec![i]);
            }
        }
        let queue_depths = queues
            .iter()
            .map(|q| {
                let members: Vec<Lifetime> = q.iter().map(|&j| lifetimes[j].clone()).collect();
                crate::lifetime::max_live(&members, ii)
            })
            .collect();
        let mut members: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        for q in &queues {
            members.extend(q.iter().map(|&j| j as u32));
            offsets.push(members.len() as u32);
        }
        QueueAllocation { ii, members, offsets, queue_depths }
    }

    #[test]
    fn scratch_reuse_does_not_change_the_allocation() {
        // One scratch across differently-sized inputs and IIs (including an II
        // needing two mask words after an II needing one) must behave exactly
        // like fresh scratch every time.
        let mut scratch = AllocScratch::default();
        let sets: Vec<Vec<Lifetime>> = vec![
            vec![lt(0, 2), lt(1, 3), lt(2, 4), lt(3, 5)],
            vec![lt(0, 200), lt(70, 90), lt(130, 135)],
            vec![],
            vec![lt(5, 9)],
        ];
        for lts in &sets {
            for ii in [1u32, 4, 7, 64, 100] {
                let reused = allocate_in(lts, ii, &mut scratch);
                let fresh = allocate_in(lts, ii, &mut AllocScratch::default());
                assert_eq!(reused, fresh, "ii {ii}");
                assert_eq!(reused, allocate_queues_pairwise(lts, ii), "ii {ii}");
            }
        }
    }

    proptest! {
        /// The bitset-accelerated first-fit produces the exact allocation of the
        /// pairwise path — same queues, same member order, same depths — on
        /// arbitrary lifetime sets.
        #[test]
        fn bitset_first_fit_matches_pairwise_path(
            raw in proptest::collection::vec((0u32..40, 0u32..30), 0..40),
            ii in 1u32..12,
        ) {
            let lts: Vec<Lifetime> = raw.iter().map(|&(s, l)| lt(s, s + l)).collect();
            prop_assert_eq!(allocate_queues(&lts, ii), allocate_queues_pairwise(&lts, ii));
        }

        /// Same equivalence with II > 64 (multi-word masks, wrapping intervals)
        /// and u64 endpoints from `start + II·distance` far beyond u32.
        #[test]
        fn bitset_first_fit_matches_pairwise_path_multiword(
            raw in proptest::collection::vec((0u64..1_000, 0u64..600), 0..24),
            ii in 65u32..200,
            distance in 0u64..3,
        ) {
            let lts: Vec<Lifetime> = raw
                .iter()
                .map(|&(s, l)| {
                    let start = s + (u64::from(u32::MAX) + 1) * distance;
                    Lifetime {
                        producer: OpId(0),
                        consumer: OpId(1),
                        start,
                        end: start + l + u64::from(ii) * distance,
                    }
                })
                .collect();
            prop_assert_eq!(allocate_queues(&lts, ii), allocate_queues_pairwise(&lts, ii));
        }

        /// The allocator never produces a queue containing an incompatible pair, and
        /// never loses or duplicates a lifetime.
        #[test]
        fn allocation_invariants(
            raw in proptest::collection::vec((0u32..12, 1u32..10), 1..24),
            ii in 1u32..8,
        ) {
            let lts: Vec<Lifetime> = raw
                .iter()
                .map(|&(s, l)| lt(s, s + l))
                .collect();
            let alloc = allocate_queues(&lts, ii);
            let mut seen: Vec<usize> =
                alloc.queues().flatten().map(|&i| i as usize).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..lts.len()).collect::<Vec<_>>());
            for q in alloc.queues() {
                for (ai, &a) in q.iter().enumerate() {
                    for &b in &q[ai + 1..] {
                        prop_assert!(q_compatible(&lts[a as usize], &lts[b as usize], ii));
                    }
                }
            }
            // Queue depths are consistent with the members assigned to each queue.
            prop_assert_eq!(alloc.queue_depths.len(), alloc.num_queues());
        }
    }
}
