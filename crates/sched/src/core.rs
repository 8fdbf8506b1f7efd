//! The shared placement engine of the modulo schedulers.
//!
//! Rau's plain IMS (`crate::ims`) and the clustered partitioner
//! (`vliw-partition`) run the same inner loop: pick the highest-priority
//! unscheduled operation, compute its earliest start from the scheduled
//! predecessors, look for a free slot in the `[estart, estart + II)` window,
//! place it by force (evicting a victim) when the window is full, and
//! unschedule any operation whose dependences the new placement violates.
//! This module implements that loop once; the two schedulers differ only in the
//! [`ClusterPolicy`] that decides *which clusters* may host each operation.
//!
//! Two data structures keep the loop fast:
//!
//! * a **ready queue** — a binary heap keyed on `(height, Reverse(id))`, so the
//!   next operation to place is popped in `O(log n)` instead of re-scanning all
//!   operations (`O(n)`) per placement.  Unscheduled operations are simply
//!   pushed back; because an operation is only pushed when it leaves the
//!   schedule and popped when it re-enters, the heap never holds duplicates,
//!   and the pop-side staleness check is a cheap invariant guard;
//! * the machine's **per-class / per-(cluster, class) unit indices**
//!   ([`Machine::fu_ids_of_class`]) — window probes and victim selection touch
//!   only the candidate units instead of filtering the full FU list.
//!
//! A failing attempt ends early on a **state recurrence**.  Between placements
//! the engine's state is, per operation: scheduled or not, its last start
//! cycle, its unit while scheduled, and whether it was ever placed.  The MRT,
//! the cluster loads and the ready queue (exactly the unscheduled set) are
//! functions of it, and the heights, the II and the policy are fixed for the
//! attempt, so the loop is a deterministic function of that state.  Once a
//! state repeats, the attempt cycles through the same placements until its
//! budget runs out and returns `None`, so the engine returns `None` at the
//! repeat instead; every result is the one the full budget would give.
//! Repeats are found with Brent's cycle detection (Brent 1980) over a
//! Zobrist-style hash kept in O(1) per place and unschedule; a hash match
//! is confirmed against the saved state before the attempt ends.  In
//! practice the partitioner's ring backtracking livelocks with period 2: one
//! operation evicts a neighbour, whose re-placement evicts the first back.
//!
//! All window arithmetic is done in `u64`: `estart + II` can exceed `u32` for
//! long-latency chains at large IIs, which used to wrap (release) or panic
//! (debug).  An attempt that would have to place an operation beyond
//! `u32::MAX` cycles fails instead of corrupting the schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use vliw_ddg::{Ddg, DepKind, OpId};
use vliw_machine::{ClusterId, FuId, Machine};

use crate::mrt::Mrt;
use crate::priority::height_r_into;

/// Reusable backing storage of one scheduling attempt: the placement arrays,
/// the ready heap, the MRT grids, the cluster ranking buffer and the
/// recurrence checkpoint.
///
/// One engine attempt performs a dozen allocations; an II search multiplies
/// that by the number of attempts, and a corpus compile by the number of loops.
/// The II search's per-thread `SchedScratch` (`crate::ims`) makes every attempt
/// after the first allocation-free: buffers are taken out of the scratch,
/// cleared, resized and returned by `PlacementEngine::recycle`, growing
/// monotonically to the high-water mark of the workload.
#[derive(Debug, Default)]
pub(crate) struct SchedScratch {
    heights: Vec<i64>,
    start: Vec<Option<u32>>,
    fu_of: Vec<FuId>,
    prev_start: Vec<u64>,
    never_scheduled: Vec<bool>,
    cluster_load: Vec<u32>,
    mrt: Mrt,
    /// Backing vector of the ready heap (kept as a `Vec` between attempts so
    /// refills use `BinaryHeap::from`'s O(n) heapify).
    ready: Vec<(i64, Reverse<u32>)>,
    ranked: Vec<ClusterId>,
    checkpoint: Checkpoint,
    /// The buffers of the II search's pre-flight [`Ddg::validate_with`] check.
    pub(crate) validate: vliw_ddg::ValidateScratch,
}

/// The placement state a run saved last, for its recurrence check: the
/// per-op arrays that decide every later step of the attempt, plus their hash.
#[derive(Debug, Default)]
struct Checkpoint {
    hash: u64,
    start: Vec<Option<u32>>,
    fu_of: Vec<FuId>,
    prev_start: Vec<u64>,
    never_scheduled: Vec<bool>,
}

/// Zobrist-style key of operation `i`'s placement state: its last start cycle
/// and, while it is scheduled, its unit.  Operations that were never placed
/// contribute no key, so a fresh attempt hashes to 0 and the state hash is the
/// XOR of the placed operations' keys.
#[inline]
fn op_key(i: usize, time: u64, fu: Option<FuId>) -> u64 {
    let unit = fu.map_or(0, |f| u64::from(f.0) + 1);
    // SplitMix64's finaliser over (op, unit) mixed with the cycle.
    let mut x = ((i as u64) << 32 | unit).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ time;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Cluster restriction of one placement round, as decided by a
/// [`ClusterPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eligibility {
    /// Any cluster may host the operation (plain IMS: the machine is treated as
    /// one flat pool of units).
    AnyCluster,
    /// Only the clusters the policy wrote into the scratch ranking may host the
    /// operation, probed best-first.
    Ranked,
}

/// The per-scheduler part of the placement loop: which clusters may host an
/// operation, and which inter-cluster value flows are illegal.
///
/// **Contract:** both methods are deterministic functions of their arguments
/// and of the engine's placement state (which operations are placed, where
/// and when).  They may keep reusable buffers, but no state that carries over
/// from one call to the next.  The engine's recurrence exit relies on this: a
/// repeated placement state must imply a repeated future.
pub trait ClusterPolicy {
    /// Computes the clusters eligible to host `op`, best first, into `ranked`.
    ///
    /// Returning [`Eligibility::AnyCluster`] leaves the placement unrestricted
    /// (`ranked` is ignored).  Returning [`Eligibility::Ranked`] restricts the
    /// window search and victim selection to the clusters in `ranked`, probed
    /// in order.  The policy may unschedule already-placed operations through
    /// `engine` (the partitioner backtracks out of communication conflicts this
    /// way) — it must then leave `ranked` non-empty, or the attempt fails.
    fn eligible(
        &self,
        engine: &mut PlacementEngine<'_>,
        op: OpId,
        ranked: &mut Vec<ClusterId>,
    ) -> Eligibility;

    /// True if a value produced in `from` cannot be consumed in `to`.  The
    /// engine unschedules flow neighbours that a forced placement strands in
    /// incompatible clusters.  The default (plain IMS) permits everything.
    fn comm_violated(&self, from: ClusterId, to: ClusterId) -> bool {
        let _ = (from, to);
        false
    }
}

/// The trivial policy of plain IMS: every cluster is always eligible.
pub struct AnyClusterPolicy;

impl ClusterPolicy for AnyClusterPolicy {
    fn eligible(
        &self,
        _engine: &mut PlacementEngine<'_>,
        _op: OpId,
        _ranked: &mut Vec<ClusterId>,
    ) -> Eligibility {
        Eligibility::AnyCluster
    }
}

/// State of one scheduling attempt at a fixed II: the modulo reservation table,
/// the per-operation placement arrays and the ready queue.
pub struct PlacementEngine<'a> {
    ddg: &'a Ddg,
    machine: &'a Machine,
    ii: u32,
    heights: Vec<i64>,
    start: Vec<Option<u32>>,
    fu_of: Vec<FuId>,
    prev_start: Vec<u64>,
    never_scheduled: Vec<bool>,
    cluster_load: Vec<u32>,
    mrt: Mrt,
    ready: BinaryHeap<(i64, Reverse<u32>)>,
    ranked_buf: Vec<ClusterId>,
    /// XOR of [`op_key`] over the placed operations, kept by every place and
    /// unschedule.
    state_hash: u64,
    checkpoint: Checkpoint,
}

impl<'a> PlacementEngine<'a> {
    /// Prepares an attempt in `scratch`'s buffers: computes the II-adjusted
    /// heights and fills the ready queue with every operation.  The attempt
    /// allocates nothing the scratch already holds; pair with
    /// [`PlacementEngine::recycle`] to return the buffers after the run.
    fn new_in(ddg: &'a Ddg, machine: &'a Machine, ii: u32, scratch: &mut SchedScratch) -> Self {
        let n = ddg.num_ops();
        let mut heights = mem::take(&mut scratch.heights);
        height_r_into(ddg, ii, &mut heights);
        let mut ready = mem::take(&mut scratch.ready);
        ready.clear();
        ready.extend(heights.iter().enumerate().map(|(i, &h)| (h, Reverse(i as u32))));
        let mut start = mem::take(&mut scratch.start);
        start.clear();
        start.resize(n, None);
        let mut fu_of = mem::take(&mut scratch.fu_of);
        fu_of.clear();
        fu_of.resize(n, FuId(0));
        let mut prev_start = mem::take(&mut scratch.prev_start);
        prev_start.clear();
        prev_start.resize(n, 0);
        let mut never_scheduled = mem::take(&mut scratch.never_scheduled);
        never_scheduled.clear();
        never_scheduled.resize(n, true);
        let mut cluster_load = mem::take(&mut scratch.cluster_load);
        cluster_load.clear();
        cluster_load.resize(machine.num_clusters(), 0);
        let mut mrt = mem::take(&mut scratch.mrt);
        mrt.reset(machine, ii);
        let mut ranked_buf = mem::take(&mut scratch.ranked);
        ranked_buf.clear();
        PlacementEngine {
            ddg,
            machine,
            ii,
            heights,
            start,
            fu_of,
            prev_start,
            never_scheduled,
            cluster_load,
            mrt,
            ready: BinaryHeap::from(ready),
            ranked_buf,
            state_hash: 0,
            checkpoint: mem::take(&mut scratch.checkpoint),
        }
    }

    /// Returns the engine's buffers to `scratch` for the next attempt.
    fn recycle(self, scratch: &mut SchedScratch) {
        scratch.heights = self.heights;
        scratch.start = self.start;
        scratch.fu_of = self.fu_of;
        scratch.prev_start = self.prev_start;
        scratch.never_scheduled = self.never_scheduled;
        scratch.cluster_load = self.cluster_load;
        scratch.mrt = self.mrt;
        scratch.ready = self.ready.into_vec();
        scratch.ranked = self.ranked_buf;
        scratch.checkpoint = self.checkpoint;
    }

    /// The dependence graph being scheduled.
    #[inline]
    pub fn ddg(&self) -> &'a Ddg {
        self.ddg
    }

    /// The target machine.
    #[inline]
    pub fn machine(&self) -> &'a Machine {
        self.machine
    }

    /// The initiation interval of this attempt.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The cluster currently hosting `op`, or `None` if it is unscheduled.
    #[inline]
    pub fn cluster_of(&self, op: OpId) -> Option<ClusterId> {
        self.start[op.index()].map(|_| self.machine.fu(self.fu_of[op.index()]).cluster)
    }

    /// Number of operations currently placed in cluster `c`.
    #[inline]
    pub fn cluster_load(&self, c: ClusterId) -> u32 {
        self.cluster_load[c.index()]
    }

    /// Removes `op` from the schedule (no-op if it is not scheduled), returning
    /// it to the ready queue.  Policies use this to backtrack out of
    /// communication conflicts.
    pub fn unschedule(&mut self, op: OpId) {
        if let Some(s) = self.start[op.index()] {
            self.mrt.release(s, self.fu_of[op.index()]);
            self.mark_unscheduled(op);
        }
    }

    /// Bookkeeping shared by every unscheduling path; the caller has already
    /// released the MRT slot.
    fn mark_unscheduled(&mut self, op: OpId) {
        let i = op.index();
        let c = self.machine.fu(self.fu_of[i]).cluster;
        self.cluster_load[c.index()] = self.cluster_load[c.index()].saturating_sub(1);
        self.start[i] = None;
        self.state_hash ^= op_key(i, self.prev_start[i], Some(self.fu_of[i]))
            ^ op_key(i, self.prev_start[i], None);
        self.ready.push((self.heights[i], Reverse(op.0)));
    }

    /// Places the unscheduled `op` at `cycle` on `fu`, evicting the slot's
    /// current occupant (if any) back to the ready queue.  Returns the
    /// cluster of `fu`.
    fn place(&mut self, op: OpId, cycle: u32, fu: FuId) -> ClusterId {
        let i = op.index();
        debug_assert!(self.start[i].is_none(), "{op:?} is already placed");
        if let Some(victim) = self.mrt.release(cycle, fu) {
            self.mark_unscheduled(victim);
        }
        self.mrt.reserve(cycle, fu, op);
        let time = u64::from(cycle);
        if !self.never_scheduled[i] {
            self.state_hash ^= op_key(i, self.prev_start[i], None);
        }
        self.state_hash ^= op_key(i, time, Some(fu));
        self.start[i] = Some(cycle);
        self.fu_of[i] = fu;
        self.prev_start[i] = time;
        self.never_scheduled[i] = false;
        let c = self.machine.fu(fu).cluster;
        self.cluster_load[c.index()] += 1;
        c
    }

    /// Saves the placement state as the checkpoint later states are compared
    /// against.
    fn save_checkpoint(&mut self) {
        let cp = &mut self.checkpoint;
        cp.hash = self.state_hash;
        cp.start.clone_from(&self.start);
        cp.fu_of.clone_from(&self.fu_of);
        cp.prev_start.clone_from(&self.prev_start);
        cp.never_scheduled.clone_from(&self.never_scheduled);
    }

    /// True if the placement state equals the checkpoint.  The hash rejects
    /// almost every mismatch; a match is confirmed on the full arrays, so a
    /// collision can never end an attempt.  The unit of an unscheduled
    /// operation is stale and plays no part in the state.
    fn at_checkpoint(&self) -> bool {
        let cp = &self.checkpoint;
        self.state_hash == cp.hash
            && self.start == cp.start
            && self.prev_start == cp.prev_start
            && self.never_scheduled == cp.never_scheduled
            && self
                .start
                .iter()
                .zip(self.fu_of.iter().zip(&cp.fu_of))
                .all(|(s, (a, b))| s.is_none() || a == b)
    }

    /// Pops the highest-priority unscheduled operation (height, then lowest
    /// id), or `None` when every operation is placed.
    fn pop_ready(&mut self) -> Option<OpId> {
        while let Some((_, Reverse(id))) = self.ready.pop() {
            if self.start[id as usize].is_none() {
                return Some(OpId(id));
            }
        }
        None
    }

    /// Earliest start of `op` consistent with its scheduled predecessors.
    fn estart(&self, op: OpId) -> u64 {
        let mut estart: i64 = 0;
        for e in self.ddg.pred_edges(op) {
            if e.src == op {
                continue; // self recurrences are guaranteed by II >= RecMII
            }
            if let Some(s) = self.start[e.src.index()] {
                estart = estart.max(s as i64 + e.weight_at(self.ii));
            }
        }
        estart.max(0) as u64
    }

    /// The unit among `candidates` whose occupant at `cycle` has the lowest
    /// priority (free units sort first); ties go to the lowest unit id because
    /// the index lists are ascending.
    fn victim_fu(&self, cycle: u32, candidates: &[FuId]) -> Option<FuId> {
        candidates.iter().copied().min_by_key(|&f| {
            self.mrt.occupant(cycle, f).map(|occ| self.heights[occ.index()]).unwrap_or(i64::MIN)
        })
    }

    /// Runs the placement loop until every operation is scheduled or the budget
    /// is exhausted.  Returns the per-op start times and unit assignments.
    ///
    /// The run also fails as soon as its placement state repeats (see the
    /// module docs): from then on it could only cycle until the budget ran
    /// out, so the result is the same.
    ///
    /// The engine survives the run (`&mut self`) so its buffers can be
    /// [recycled](PlacementEngine::recycle) into a `SchedScratch`.
    fn run<P: ClusterPolicy>(&mut self, budget: u32, policy: &P) -> Option<(Vec<u32>, Vec<FuId>)> {
        // The ranking buffer is lent to the loop (the policy callback already
        // borrows the whole engine mutably) and restored on every exit path.
        let mut ranked = mem::take(&mut self.ranked_buf);
        let result = self.run_inner(budget, policy, &mut ranked);
        self.ranked_buf = ranked;
        result
    }

    fn run_inner<P: ClusterPolicy>(
        &mut self,
        budget: u32,
        policy: &P,
        ranked: &mut Vec<ClusterId>,
    ) -> Option<(Vec<u32>, Vec<FuId>)> {
        let ddg = self.ddg;
        let ii = self.ii;
        let mut budget = budget as i64;
        // Brent's cycle detection: every state is compared with the
        // checkpoint, which moves to the current state after 1, 2, 4, ...
        // placements, so a recurrence of period λ is caught within about
        // two periods of the first repeated state once the stride reaches λ.
        self.save_checkpoint();
        let (mut stride, mut since_checkpoint) = (1u64, 0u64);

        while let Some(op) = self.pop_ready() {
            budget -= 1;
            if budget < 0 {
                return None;
            }

            let class = ddg.op(op).class();
            // The estart is computed *before* the policy runs: a backtracking
            // policy may unschedule predecessors, and the window deliberately
            // keeps the bound they implied (matching the original schedulers).
            let estart = self.estart(op);
            ranked.clear();
            let eligibility = policy.eligible(self, op, ranked);

            // Look for a free unit in the scheduling window
            // [estart, estart + II - 1], best cluster first.
            let mut placement: Option<(u64, FuId)> = None;
            'window: for t in estart..estart + ii as u64 {
                if t > u32::MAX as u64 {
                    break;
                }
                let cycle = t as u32;
                match eligibility {
                    Eligibility::AnyCluster => {
                        if let Some(fu) = self.mrt.free_fu(self.machine, cycle, class, None) {
                            placement = Some((t, fu));
                            break 'window;
                        }
                    }
                    Eligibility::Ranked => {
                        for &c in ranked.iter() {
                            if let Some(fu) = self.mrt.free_fu(self.machine, cycle, class, Some(c))
                            {
                                placement = Some((t, fu));
                                break 'window;
                            }
                        }
                    }
                }
            }

            let (time, fu) = match placement {
                Some(p) => p,
                None => {
                    // Forced placement (Rau): at estart if this is the first
                    // time or the window moved forward, otherwise one cycle
                    // after the previous placement so progress is made.
                    let i = op.index();
                    let time = if self.never_scheduled[i] || estart > self.prev_start[i] {
                        estart
                    } else {
                        self.prev_start[i] + 1
                    };
                    if time > u32::MAX as u64 {
                        return None; // the schedule no longer fits the cycle domain
                    }
                    // Evict from the unit whose occupant has the lowest
                    // priority, restricted to the best eligible cluster that
                    // has units of the class at all.  If no eligible cluster
                    // can execute the class the attempt fails — escaping to an
                    // ineligible cluster would break the policy's invariants.
                    let candidates: &[FuId] = match eligibility {
                        Eligibility::AnyCluster => self.machine.fu_ids_of_class(class),
                        Eligibility::Ranked => ranked
                            .iter()
                            .map(|&c| self.machine.fu_ids_of_class_in_cluster(c, class))
                            .find(|units| !units.is_empty())
                            .unwrap_or(&[]),
                    };
                    match self.victim_fu(time as u32, candidates) {
                        Some(f) => (time, f),
                        None => return None,
                    }
                }
            };

            let placed_cluster = self.place(op, time as u32, fu);

            // Unschedule already-placed operations whose dependences with `op`
            // are now violated — and, under a restrictive policy, flow
            // neighbours the placement stranded in incompatible clusters; they
            // will be re-placed later (this is the "iterative" part).
            for e in ddg.succ_edges(op) {
                if e.dst == op {
                    continue;
                }
                if let Some(s_dst) = self.start[e.dst.index()] {
                    let dep_violated = (s_dst as i64) < time as i64 + e.weight_at(ii);
                    let comm_violated = e.kind == DepKind::Flow
                        && policy.comm_violated(
                            placed_cluster,
                            self.machine.fu(self.fu_of[e.dst.index()]).cluster,
                        );
                    if dep_violated || comm_violated {
                        self.unschedule(e.dst);
                    }
                }
            }
            for e in ddg.pred_edges(op) {
                if e.src == op {
                    continue;
                }
                if let Some(s_src) = self.start[e.src.index()] {
                    let dep_violated = (time as i64) < s_src as i64 + e.weight_at(ii);
                    let comm_violated = e.kind == DepKind::Flow
                        && policy.comm_violated(
                            self.machine.fu(self.fu_of[e.src.index()]).cluster,
                            placed_cluster,
                        );
                    if dep_violated || comm_violated {
                        self.unschedule(e.src);
                    }
                }
            }

            since_checkpoint += 1;
            if self.at_checkpoint() {
                return None; // a state recurrence: the attempt cannot converge
            }
            if since_checkpoint == stride {
                self.save_checkpoint();
                stride *= 2;
                since_checkpoint = 0;
            }
        }

        // The result vectors escape into the schedule, so they are the one
        // fresh allocation of a successful attempt; the working buffers stay
        // with the engine for recycling.
        let start: Vec<u32> = self.start.iter().map(|s| s.expect("all ops scheduled")).collect();
        Some((start, self.fu_of.clone()))
    }
}

/// Runs one scheduling attempt of `ddg` on `machine` at the given II under
/// `policy`, bounded by `budget` placements, in `scratch`'s buffers: repeated
/// attempts (the II search, a corpus compile) reuse one set.
pub(crate) fn run_placement_with<P: ClusterPolicy>(
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    budget: u32,
    policy: &P,
    scratch: &mut SchedScratch,
) -> Option<(Vec<u32>, Vec<FuId>)> {
    let mut engine = PlacementEngine::new_in(ddg, machine, ii, scratch);
    let result = engine.run(budget, policy);
    engine.recycle(scratch);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::height_r;
    use vliw_ddg::{DdgBuilder, LatencyModel, OpClass, OpKind};

    fn machine(fus: usize) -> Machine {
        Machine::single_cluster(fus, 2, 32, LatencyModel::default())
    }

    /// One attempt under plain IMS's policy in fresh buffers.
    fn fresh_attempt(
        ddg: &Ddg,
        machine: &Machine,
        ii: u32,
        budget: u32,
    ) -> Option<(Vec<u32>, Vec<FuId>)> {
        run_placement_with(
            ddg,
            machine,
            ii,
            budget,
            &AnyClusterPolicy,
            &mut SchedScratch::default(),
        )
    }

    #[test]
    fn ready_queue_orders_by_height_then_lowest_id() {
        // Three independent adds plus a chain head: the chain head (highest
        // height) is placed at cycle 0, then the ties go in id order.
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let ops = b.ops(OpKind::Add, 3);
        let tail = b.op(OpKind::Add);
        b.flow(ops[1], tail);
        let g = b.finish();
        let m = machine(6);
        let (start, _) = fresh_attempt(&g, &m, 2, 64).unwrap();
        // op1 heads the only chain: scheduled first, at its estart.
        assert_eq!(start[ops[1].index()], 0);
    }

    /// The historical scan-based IMS attempt (pre-engine), kept verbatim as an
    /// executable specification of the placement order: highest-priority
    /// unscheduled op by `(height, Reverse(id))` maximised, window search,
    /// Rau's forced placement, lowest-priority victim eviction,
    /// dependence-violation unscheduling.
    fn naive_schedule_at(
        ddg: &Ddg,
        mach: &Machine,
        ii: u32,
        budget: u32,
    ) -> Option<(Vec<u32>, Vec<FuId>)> {
        let n = ddg.num_ops();
        let heights = height_r(ddg, ii);
        let mut start: Vec<Option<u32>> = vec![None; n];
        let mut fu_of: Vec<FuId> = vec![FuId(0); n];
        let mut prev_start: Vec<u32> = vec![0; n];
        let mut never_scheduled: Vec<bool> = vec![true; n];
        let mut mrt = Mrt::new(mach, ii);
        let mut budget = budget as i64;
        while let Some(i) = (0..n)
            .filter(|&i| start[i].is_none())
            .max_by_key(|&i| (heights[i], std::cmp::Reverse(i)))
        {
            let op = OpId(i as u32);
            budget -= 1;
            if budget < 0 {
                return None;
            }
            let class = ddg.op(op).class();
            let mut estart: i64 = 0;
            for e in ddg.pred_edges(op) {
                if e.src == op {
                    continue;
                }
                if let Some(s) = start[e.src.index()] {
                    estart = estart.max(s as i64 + e.weight_at(ii));
                }
            }
            let estart = estart.max(0) as u32;
            let mut placement: Option<(u32, FuId)> = None;
            for t in estart..estart + ii {
                if let Some(fu) = mrt.free_fu(mach, t, class, None) {
                    placement = Some((t, fu));
                    break;
                }
            }
            let (time, fu) = match placement {
                Some(p) => p,
                None => {
                    let time = if never_scheduled[i] || estart > prev_start[i] {
                        estart
                    } else {
                        prev_start[i] + 1
                    };
                    let victim_fu = mach
                        .fus_of_class(class)
                        .map(|f| f.id)
                        .min_by_key(|&f| {
                            mrt.occupant(time, f)
                                .map(|occ| heights[occ.index()])
                                .unwrap_or(i64::MIN)
                        })
                        .expect("at least one unit of the class");
                    (time, victim_fu)
                }
            };
            if let Some(victim) = mrt.release(time, fu) {
                start[victim.index()] = None;
            }
            mrt.reserve(time, fu, op);
            start[i] = Some(time);
            fu_of[i] = fu;
            prev_start[i] = time;
            never_scheduled[i] = false;
            for e in ddg.succ_edges(op) {
                if e.dst == op {
                    continue;
                }
                if let Some(s_dst) = start[e.dst.index()] {
                    if (s_dst as i64) < time as i64 + e.weight_at(ii) {
                        mrt.release(s_dst, fu_of[e.dst.index()]);
                        start[e.dst.index()] = None;
                    }
                }
            }
            for e in ddg.pred_edges(op) {
                if e.src == op {
                    continue;
                }
                if let Some(s_src) = start[e.src.index()] {
                    if (time as i64) < s_src as i64 + e.weight_at(ii) {
                        mrt.release(s_src, fu_of[e.src.index()]);
                        start[e.src.index()] = None;
                    }
                }
            }
        }
        let start: Vec<u32> = start.into_iter().map(|s| s.expect("all ops scheduled")).collect();
        Some((start, fu_of))
    }

    #[test]
    fn engine_matches_the_naive_priority_scan() {
        // The heap-based ready queue must reproduce the exact placements of
        // the historical `filter().max_by_key()` scan — same start cycles,
        // same unit assignments — including on tie-heavy graphs, eviction
        // (forced placement) and dependence-violation backtracking.
        use vliw_ddg::kernels;
        let budget = 512;
        let mut cases: Vec<Ddg> = Vec::new();
        // Tie-heavy: six independent load→add chains (equal heights per rank).
        let mut b = DdgBuilder::new(LatencyModel::default());
        let lds = b.ops(OpKind::Load, 6);
        let adds = b.ops(OpKind::Add, 6);
        for (l, a) in lds.iter().zip(&adds) {
            b.flow(*l, *a);
        }
        cases.push(b.finish());
        for lp in kernels::all_kernels(LatencyModel::default()) {
            cases.push(lp.ddg);
        }
        for g in &cases {
            for fus in [3, 6] {
                let m = machine(fus);
                for ii in 1..=6 {
                    assert_eq!(
                        fresh_attempt(g, &m, ii, budget),
                        naive_schedule_at(g, &m, ii, budget),
                        "engine diverges from the naive scan at II {ii} on {fus} FUs"
                    );
                }
            }
        }

        // Random corpus bodies at IIs from their RecMII (below the ResMII
        // the units are oversubscribed and every attempt fails) up past their
        // MII, with budgets from one placement per operation upwards.  The
        // scan has no recurrence exit, so the engine must fail on exactly the
        // same attempts: an early `None` is only ever the `None` of the budget.
        let corpus = vliw_loopgen::generate_corpus(&vliw_loopgen::CorpusConfig::small(96, 386));
        let mut failures = 0;
        for (idx, lp) in corpus.iter().enumerate() {
            let g = &lp.ddg;
            let n = g.num_ops() as u32;
            for fus in [3, 6, 12] {
                let m = machine(fus);
                let mii = crate::mii::mii(g, &m).unwrap();
                for ii in crate::mii::rec_mii(g).max(1)..=mii + 1 {
                    for budget in [n, 4 * n, 6 * n, 16 * n] {
                        let engine = fresh_attempt(g, &m, ii, budget);
                        assert_eq!(
                            engine,
                            naive_schedule_at(g, &m, ii, budget),
                            "loop {idx}: engine diverges at II {ii}, budget {budget}, {fus} FUs"
                        );
                        failures += usize::from(engine.is_none());
                    }
                }
            }
        }
        assert!(failures > 0, "no attempt failed: the comparison never covered `None`");
    }

    #[test]
    fn scratch_reuse_matches_fresh_engines() {
        // One scratch carried across kernels, machine widths and IIs (so every
        // buffer is resized up and down and the MRT is re-shaped) must yield
        // exactly the placements of a fresh engine every time.
        use vliw_ddg::kernels;
        let mut scratch = SchedScratch::default();
        for lp in kernels::all_kernels(LatencyModel::default()) {
            for fus in [3, 6] {
                let m = machine(fus);
                for ii in 1..=5 {
                    let fresh = fresh_attempt(&lp.ddg, &m, ii, 256);
                    let reused =
                        run_placement_with(&lp.ddg, &m, ii, 256, &AnyClusterPolicy, &mut scratch);
                    assert_eq!(fresh, reused, "II {ii} on {fus} FUs");
                }
            }
        }
    }

    #[test]
    fn recurrence_check_tells_every_state_component_apart() {
        // The exit is exact only if the compared state holds everything the
        // loop reads: whether each op is placed, its last start cycle (forced
        // placement continues from it while the op is unscheduled), its unit
        // while placed, and whether it was ever placed.  The stale unit of an
        // unscheduled op is not part of the state.
        let mut b = DdgBuilder::new(LatencyModel::unit());
        let op = b.op(OpKind::Add);
        let g = b.finish();
        let m = machine(6);
        let [f0, f1, ..] = *m.fu_ids_of_class(OpClass::Adder) else {
            panic!("six compute units include two adders");
        };
        let mut e = PlacementEngine::new_in(&g, &m, 4, &mut SchedScratch::default());
        e.save_checkpoint();
        e.place(op, 0, f0);
        e.unschedule(op);
        assert!(!e.at_checkpoint(), "ever placed");
        e.save_checkpoint();
        e.place(op, 0, f0);
        assert!(!e.at_checkpoint(), "placed");
        e.unschedule(op);
        assert!(e.at_checkpoint(), "the same state again");
        e.place(op, 1, f0);
        e.unschedule(op);
        assert!(!e.at_checkpoint(), "last start cycle");
        e.place(op, 0, f1);
        e.unschedule(op);
        assert!(e.at_checkpoint(), "an unscheduled op's stale unit");
        e.place(op, 0, f0);
        e.save_checkpoint();
        e.unschedule(op);
        e.place(op, 0, f1);
        assert!(!e.at_checkpoint(), "unit while placed");
    }

    #[test]
    fn exhausted_budget_fails_the_attempt() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.ops(OpKind::Add, 8);
        let g = b.finish();
        let m = machine(3);
        assert_eq!(fresh_attempt(&g, &m, 1, 2), None);
    }

    #[test]
    fn long_latency_window_does_not_overflow() {
        // A chain whose estart approaches u32::MAX: the window `estart + II`
        // overflows u32 but must neither wrap nor panic.  Latencies are per-op
        // in the model, so build the reach with a chain of huge latencies.
        let lat = LatencyModel { load: u32::MAX / 2, mul: u32::MAX / 2, ..Default::default() };
        let mut b = DdgBuilder::new(lat);
        let a = b.op(OpKind::Load);
        let m1 = b.op(OpKind::Mul);
        let tail = b.op(OpKind::Add);
        b.flow(a, m1);
        b.flow(m1, tail);
        let g = b.finish();
        let m = machine(6);
        let (start, _) = fresh_attempt(&g, &m, 8, 64).unwrap();
        assert_eq!(start[tail.index()] as u64, u32::MAX as u64 - 1);
    }
}
