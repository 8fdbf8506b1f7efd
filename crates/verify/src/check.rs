//! The flow-sensitive static verifier.
//!
//! [`verify`] proves, from (Ddg, Machine, Schedule) arithmetic alone, the full
//! invariant set the simulator checks by executing `O(cycles · N)` steps:
//!
//! * **the static schedule rules** — [`Schedule::violations`], reported
//!   verbatim: dependence distances (`start(dst) + II·distance ≥ start(src) +
//!   latency` per edge) and FU legality (every operation on an existing unit
//!   of its class, no two operations sharing an (FU, modulo-slot) MRT cell);
//! * **adjacency** — every value-carrying flow edge routes between
//!   communicating clusters;
//! * **steady-state storage** — per-pool peak occupancy via difference-array
//!   lifetime counting (`vliw_qrf::max_live`), partitioned into each cluster's
//!   private QRF and each directed link of [`Machine::link_table`] exactly as the
//!   simulator's domain model does, then compared against the machine's
//!   capacity budgets;
//! * **per-queue depths** — [`verify_with_allocation`] recounts every queue of
//!   a [`QueueAllocation`] and flags declared depths the lifetimes exceed;
//! * **copy-bus bounds** — copy operations per (cluster, modulo slot) against
//!   the cluster's copy units, plus the steady-state bus utilisation
//!   `copies / (copy_units · II)`.
//!
//! The equivalence with the simulator is exact at steady state: the sim
//! enqueues each value use at its producer's issue cycle and dequeues it at
//! the consumer's read (dequeues before enqueues within a cycle), which is
//! precisely the half-open per-use lifetime `[start(src), start(dst) +
//! II·distance)` that `max_live` counts — the `tests` below and the
//! repo-level differential harness pin that agreement corpus-wide.

use std::collections::HashMap;

use vliw_ddg::{Ddg, OpClass};
use vliw_machine::{ClusterId, Machine};
use vliw_qrf::{max_live_indexed, Lifetime, QueueAllocation};
use vliw_sched::{Schedule, Violation};

/// What the static verifier proved about one schedule.
///
/// Mirrors [`vliw_sim::SimRun`]: the same fault counters, the same peak tables
/// (here the *steady-state* watermark instead of an execution's observation),
/// so callers can swap one for the other.
#[derive(Debug, Clone, PartialEq)]
pub struct Verification {
    /// Every violation found, in deterministic check order (structural,
    /// dependence, FU, adjacency, copy bus, storage, queue depths).  The
    /// static checker reports each defect once — per edge, op, pool or queue —
    /// so the list is never iteration-amplified and needs no recording cap.
    pub violations: Vec<Violation>,
    /// Violations indicting the schedule or allocation structure
    /// ([`Violation::is_schedule_fault`]).
    pub schedule_faults: u64,
    /// Capacity violations: pool overflows and under-declared queue depths.
    pub capacity_faults: u64,
    /// Steady-state peak occupancy of each cluster's private QRF, indexed by
    /// cluster.
    pub peak_private_occupancy: Vec<usize>,
    /// Steady-state peak occupancy of each directed interconnect link, indexed
    /// by [`Machine::link_table`] (empty for single-cluster machines).
    pub peak_comm_occupancy: Vec<usize>,
    /// Static per-queue depth recount, indexed like the allocation's queues
    /// (empty when no allocation was supplied).
    pub peak_queue_occupancy: Vec<usize>,
    /// Steady-state copy-bus utilisation: `copy_ops / (copy_units · II)`
    /// (0 when the machine has no copy units).
    pub copy_bus_utilisation: f64,
}

impl Verification {
    fn empty() -> Self {
        Verification {
            violations: Vec::new(),
            schedule_faults: 0,
            capacity_faults: 0,
            peak_private_occupancy: Vec::new(),
            peak_comm_occupancy: Vec::new(),
            peak_queue_occupancy: Vec::new(),
            copy_bus_utilisation: 0.0,
        }
    }

    fn record(&mut self, v: Violation) {
        if v.is_schedule_fault() {
            self.schedule_faults += 1;
        } else {
            self.capacity_faults += 1;
        }
        self.violations.push(v);
    }

    /// Total violations of both classes.
    pub fn total_violations(&self) -> u64 {
        self.schedule_faults + self.capacity_faults
    }

    /// True if the schedule proves out without a single violation.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// True if the schedule keeps every promise it made (capacity faults, if
    /// any, are machine-sizing data) — the static spelling of
    /// [`vliw_sim::SimRun::schedule_is_sound`].
    pub fn schedule_is_sound(&self) -> bool {
        self.schedule_faults == 0
    }

    /// The largest private-QRF steady-state peak over all clusters.
    pub fn max_private_peak(&self) -> usize {
        self.peak_private_occupancy.iter().copied().max().unwrap_or(0)
    }

    /// The largest communication-queue steady-state peak over all links.
    pub fn max_comm_peak(&self) -> usize {
        self.peak_comm_occupancy.iter().copied().max().unwrap_or(0)
    }

    /// Renders the verdict as human-readable text: one line per violation
    /// (lint code first), or a one-line all-clear.
    pub fn render_text(&self) -> String {
        if self.is_clean() {
            return "clean: every invariant proved statically\n".to_string();
        }
        let mut out = format!(
            "{} violations ({} schedule, {} capacity)\n",
            self.total_violations(),
            self.schedule_faults,
            self.capacity_faults
        );
        for v in &self.violations {
            out.push_str(&format!("{v}\n"));
        }
        out
    }
}

/// Translates a [`QueueAllocation`] into the simulator's per-edge
/// [`vliw_sim::QueueMap`], so a dynamic run can be asked to track exactly the
/// queues the allocator (and [`verify_with_allocation`]) reason about.
pub fn queue_map_of(allocation: &QueueAllocation) -> vliw_sim::QueueMap {
    let total = allocation.queues().map(<[u32]>::len).sum::<usize>();
    let mut queue_of = vec![None; total];
    for (q, members) in allocation.queues().enumerate() {
        for &m in members {
            if let Some(slot) = queue_of.get_mut(m as usize) {
                *slot = Some(q as u32);
            }
        }
    }
    vliw_sim::QueueMap { queue_of, num_queues: allocation.num_queues() }
}

/// The dynamic counterpart of [`verify_with_allocation`]: simulates
/// `trip_count` iterations with per-queue tracking and returns everything the
/// run flagged — its recorded violations, then `V009-QUEUE-DEPTH` for every
/// queue whose observed peak exceeds the allocation's declared depth — or the
/// single violation the simulator refused the input with.
///
/// This is the "other side" the differential harness compares the static
/// verdict against.
pub fn dynamic_violations(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    allocation: &QueueAllocation,
    trip_count: u64,
) -> Vec<Violation> {
    let map = queue_map_of(allocation);
    let run = match vliw_sim::simulate_with_queue_map(ddg, machine, schedule, trip_count, &map) {
        Ok(run) => run,
        Err(v) => return vec![v],
    };
    let mut out = run.violations;
    let peaks = run.measurement.peak_queue_occupancy.iter();
    for (queue, (&required, &declared)) in peaks.zip(&allocation.queue_depths).enumerate() {
        if required > declared {
            out.push(Violation::QueueDepthMismatch { queue, required, declared });
        }
    }
    out
}

/// Statically verifies `schedule` against `ddg` on `machine`.
///
/// Checks everything except the per-queue depth cross-check (no allocation to
/// check against); see [`verify_with_allocation`].
pub fn verify(ddg: &Ddg, machine: &Machine, schedule: &Schedule) -> Verification {
    verify_inner(ddg, machine, schedule, None)
}

/// [`verify`] plus the allocation cross-check: recounts the steady-state depth
/// of every queue of `allocation` from the lifetimes it binned and flags
/// queues whose declared [`QueueAllocation::queue_depths`] entry the recount
/// exceeds.
pub fn verify_with_allocation(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    allocation: &QueueAllocation,
) -> Verification {
    verify_inner(ddg, machine, schedule, Some(allocation))
}

/// `vliw_qrf::use_lifetimes`, hardened for broken schedules: an inverted
/// lifetime (consumer scheduled before its producer — only possible under a
/// dependence violation, which the caller has already reported) is clamped to
/// zero length at the producer, so it occupies no storage and the `Lifetime`
/// invariant `end ≥ start` holds.
fn clamped_use_lifetimes(ddg: &Ddg, schedule: &Schedule) -> Vec<Lifetime> {
    let ii = u64::from(schedule.ii);
    let mut out = Vec::new();
    for e in ddg.edges() {
        if !e.kind.carries_value() {
            continue;
        }
        let start = u64::from(schedule.start[e.src.index()]);
        let end = u64::from(schedule.start[e.dst.index()]) + ii * u64::from(e.distance);
        out.push(Lifetime { producer: e.src, consumer: e.dst, start, end: end.max(start) });
    }
    out
}

fn verify_inner(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    allocation: Option<&QueueAllocation>,
) -> Verification {
    let _span = vliw_obs::span!("verify", ddg.num_ops());
    let mut out = Verification::empty();

    // The static schedule rules.  A wrong length or a zero II is their single
    // entry, and nothing below is well-defined then (the simulator refuses
    // such input outright).
    for v in schedule.violations(ddg, machine) {
        out.record(v);
    }
    if schedule.start.len() != ddg.num_ops() || schedule.ii == 0 {
        return out;
    }
    let ii = schedule.ii;
    // Ops on a nonexistent unit have no cluster; flows touching them are
    // skipped below (their `V004-FU-UNKNOWN` is already recorded).
    let fu_known = |i: usize| schedule.fu[i].index() < machine.num_fus();

    // Adjacency, once per value-carrying flow edge (the simulator's
    // `check_routability` pre-pass).
    let cluster_of = |i: usize| machine.fu(schedule.fu[i]).cluster;
    for e in ddg.edges() {
        if !e.kind.carries_value() {
            continue;
        }
        if !fu_known(e.src.index()) || !fu_known(e.dst.index()) {
            continue;
        }
        let (from, to) = (cluster_of(e.src.index()), cluster_of(e.dst.index()));
        if !machine.clusters_communicate(from, to) {
            out.record(Violation::NonAdjacent { src: e.src, dst: e.dst, from, to });
        }
    }

    // Copy-bus bounds: copy instances per (cluster, modulo slot) against the
    // cluster's copy units, and the steady-state utilisation of the whole bus.
    let mut copies_at: HashMap<(u32, u32), usize> = HashMap::new();
    let mut total_copies = 0usize;
    for op in ddg.ops() {
        if op.class() != OpClass::Copy || !fu_known(op.id.index()) {
            continue;
        }
        total_copies += 1;
        let cluster = cluster_of(op.id.index());
        let slot = schedule.start[op.id.index()] % ii;
        *copies_at.entry((cluster.0, slot)).or_insert(0) += 1;
    }
    let mut oversubscribed: Vec<(u32, u32, usize)> = copies_at
        .into_iter()
        .filter_map(|((cluster, slot), copies)| {
            let units = machine.cluster(ClusterId(cluster)).fus_of_class(OpClass::Copy);
            (copies > units).then_some((cluster, slot, copies))
        })
        .collect();
    oversubscribed.sort_unstable();
    for (cluster, slot, copies) in oversubscribed {
        let units = machine.cluster(ClusterId(cluster)).fus_of_class(OpClass::Copy);
        out.record(Violation::CopyBusOversubscribed {
            cluster: ClusterId(cluster),
            slot,
            copies,
            units,
        });
    }
    let copy_units = machine.num_fus_of_class(OpClass::Copy);
    out.copy_bus_utilisation = if copy_units == 0 || total_copies == 0 {
        0.0
    } else {
        total_copies as f64 / (copy_units as f64 * f64::from(ii))
    };

    // Steady-state storage: one per-use lifetime per value-carrying flow edge
    // (in `ddg.edges()` order, the `vliw_qrf::use_lifetimes` contract),
    // partitioned into the simulator's domains — the producer cluster's
    // private QRF for local flows, the directed link for cross-cluster flows
    // between communicating clusters — then MaxLive-counted per pool.
    // Unroutable flows are excluded, as nothing well-defined occupies storage
    // for them.
    let lifetimes = clamped_use_lifetimes(ddg, schedule);
    let num_clusters = machine.num_clusters();
    let mut private_members: Vec<Vec<u32>> = vec![Vec::new(); num_clusters];
    let links = machine.link_table();
    let mut link_members: Vec<Vec<u32>> = vec![Vec::new(); links.links().len()];
    let mut k = 0u32;
    for e in ddg.edges() {
        if !e.kind.carries_value() {
            continue;
        }
        let idx = k;
        k += 1;
        if !fu_known(e.src.index()) || !fu_known(e.dst.index()) {
            continue;
        }
        let (from, to) = (cluster_of(e.src.index()), cluster_of(e.dst.index()));
        if from == to {
            private_members[from.index()].push(idx);
        } else if let Some(l) = links.index_of(from, to) {
            link_members[l].push(idx);
        }
    }

    let mut diff: Vec<i64> = Vec::new();
    out.peak_private_occupancy = private_members
        .iter()
        .map(|members| max_live_indexed(&lifetimes, members, ii, &mut diff))
        .collect();
    out.peak_comm_occupancy = link_members
        .iter()
        .map(|members| max_live_indexed(&lifetimes, members, ii, &mut diff))
        .collect();

    for (c, &peak) in out.peak_private_occupancy.iter().enumerate() {
        let cfg = machine.cluster(ClusterId(c as u32));
        let capacity = cfg.private_queues * cfg.queue_capacity;
        if peak > capacity {
            out.violations.push(Violation::PrivateOverflow {
                cluster: ClusterId(c as u32),
                occupancy: peak,
                capacity,
                cycle: None,
            });
            out.capacity_faults += 1;
        }
    }
    let link_capacity =
        machine.ring().map(|r| r.queues_per_direction * r.queue_capacity).unwrap_or(0);
    for (l, &peak) in out.peak_comm_occupancy.iter().enumerate() {
        if peak > link_capacity {
            let (from, to) = links.links()[l];
            out.violations.push(Violation::CommOverflow {
                from,
                to,
                occupancy: peak,
                capacity: link_capacity,
                cycle: None,
            });
            out.capacity_faults += 1;
        }
    }

    // Per-queue depth cross-check against the allocator's declarations.
    if let Some(alloc) = allocation {
        let covered = alloc.queues().map(<[u32]>::len).sum::<usize>();
        let in_range = alloc.queues().flatten().all(|&m| (m as usize) < lifetimes.len());
        if covered != lifetimes.len() || !in_range {
            out.record(Violation::BadQueueMap {
                expected_edges: lifetimes.len(),
                actual_edges: covered,
            });
        } else {
            out.peak_queue_occupancy = (0..alloc.num_queues())
                .map(|q| max_live_indexed(&lifetimes, alloc.queue(q), ii, &mut diff))
                .collect();
            for (queue, (&required, &declared)) in
                out.peak_queue_occupancy.iter().zip(&alloc.queue_depths).enumerate()
            {
                if required > declared {
                    out.violations.push(Violation::QueueDepthMismatch {
                        queue,
                        required,
                        declared,
                    });
                    out.capacity_faults += 1;
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, DdgBuilder, LatencyModel, OpKind};
    use vliw_machine::{ClusterConfig, RingConfig, Topology};
    use vliw_qrf::{allocate_queues, insert_copies, use_lifetimes};
    use vliw_sched::{modulo_schedule, ImsOptions};
    use vliw_sim::simulate;

    fn lat() -> LatencyModel {
        LatencyModel::default()
    }

    #[test]
    fn clean_kernels_verify_clean_on_a_roomy_machine() {
        let machine = Machine::single_cluster(6, 2, 32, lat());
        for lp in kernels::all_kernels(lat()) {
            let rewritten = insert_copies(&lp.ddg, &lat());
            let r = modulo_schedule(&rewritten.ddg, &machine, ImsOptions::default()).unwrap();
            let alloc = {
                let lts = use_lifetimes(&rewritten.ddg, &r.schedule);
                allocate_queues(&lts, r.schedule.ii)
            };
            let v = verify_with_allocation(&rewritten.ddg, &machine, &r.schedule, &alloc);
            assert!(v.is_clean(), "{}: {}", lp.name, v.render_text());
            assert_eq!(v.peak_queue_occupancy, alloc.queue_depths, "{}", lp.name);
        }
    }

    #[test]
    fn static_peaks_match_the_simulators_steady_state_observation() {
        // The equivalence lemma the whole static-occupancy model rests on:
        // with enough iterations to reach steady state, the simulator's
        // per-cluster peak equals the MaxLive watermark the verifier computes.
        let machine = Machine::single_cluster(6, 2, 1024, lat());
        for lp in kernels::all_kernels(lat()) {
            let r = modulo_schedule(&lp.ddg, &machine, ImsOptions::default()).unwrap();
            let v = verify(&lp.ddg, &machine, &r.schedule);
            let run = simulate(&lp.ddg, &machine, &r.schedule, 1000).unwrap();
            assert_eq!(
                v.peak_private_occupancy, run.measurement.peak_private_occupancy,
                "{}",
                lp.name
            );
            assert_eq!(v.peak_comm_occupancy, run.measurement.peak_comm_occupancy, "{}", lp.name);
        }
    }

    #[test]
    fn dependence_violation_is_flagged_with_its_code() {
        let mut b = DdgBuilder::new(lat());
        let ld = b.op(OpKind::Load);
        let add = b.op(OpKind::Add);
        b.flow(ld, add);
        let g = b.finish();
        let machine = Machine::single_cluster(3, 1, 32, lat());
        let ls = machine.fus_of_class(OpClass::Memory).next().unwrap().id;
        let addfu = machine.fus_of_class(OpClass::Adder).next().unwrap().id;
        // Load latency is 2; the add at cycle 1 misses it.
        let s = Schedule::new(2, vec![0, 1], vec![ls, addfu]);
        let v = verify(&g, &machine, &s);
        assert!(!v.is_clean());
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].code(), "V001-DEP-DISTANCE");
        assert_eq!(v.schedule_faults, 1);
    }

    #[test]
    fn structural_gates_short_circuit() {
        let mut b = DdgBuilder::new(lat());
        b.op(OpKind::Add);
        let g = b.finish();
        let machine = Machine::single_cluster(3, 1, 32, lat());
        let addfu = machine.fus_of_class(OpClass::Adder).next().unwrap().id;
        let v = verify(&g, &machine, &Schedule { ii: 2, start: vec![], fu: vec![] });
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].code(), "V005-WRONG-LENGTH");
        let v = verify(&g, &machine, &Schedule { ii: 0, start: vec![0], fu: vec![addfu] });
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].code(), "V011-ZERO-II");
    }

    #[test]
    fn every_mrt_conflict_is_reported_not_just_the_first() {
        let mut b = DdgBuilder::new(lat());
        b.op(OpKind::Add);
        b.op(OpKind::Add);
        b.op(OpKind::Add);
        let g = b.finish();
        let machine = Machine::single_cluster(3, 1, 32, lat());
        let addfu = machine.fus_of_class(OpClass::Adder).next().unwrap().id;
        // All three on one adder at slot 0.
        let s = Schedule::new(2, vec![0, 2, 4], vec![addfu; 3]);
        let v = verify(&g, &machine, &s);
        let conflicts = v.violations.iter().filter(|v| v.code() == "V002-FU-CONFLICT").count();
        assert_eq!(conflicts, 2, "ops 1 and 2 both collide with op 0: {}", v.render_text());
    }

    #[test]
    fn shrunk_queue_depth_is_flagged() {
        let lp = kernels::dot_product(lat(), 100);
        let machine = Machine::single_cluster(6, 2, 32, lat());
        let r = modulo_schedule(&lp.ddg, &machine, ImsOptions::default()).unwrap();
        let lts = use_lifetimes(&lp.ddg, &r.schedule);
        let mut alloc = allocate_queues(&lts, r.schedule.ii);
        let q = alloc.queue_depths.iter().position(|&d| d >= 1).expect("some queue holds a value");
        alloc.queue_depths[q] -= 1;
        let v = verify_with_allocation(&lp.ddg, &machine, &r.schedule, &alloc);
        assert!(v.violations.iter().any(|v| v.code() == "V009-QUEUE-DEPTH"), "{}", v.render_text());
        assert!(v.schedule_is_sound(), "depth accounting is a capacity fault");
    }

    #[test]
    fn truncated_allocation_is_a_bad_queue_map() {
        let lp = kernels::dot_product(lat(), 100);
        let machine = Machine::single_cluster(6, 2, 32, lat());
        let r = modulo_schedule(&lp.ddg, &machine, ImsOptions::default()).unwrap();
        let empty = allocate_queues(&[], r.schedule.ii);
        let v = verify_with_allocation(&lp.ddg, &machine, &r.schedule, &empty);
        assert!(v.violations.iter().any(|v| v.code() == "V012-QUEUE-MAP"), "{}", v.render_text());
    }

    #[test]
    fn tiny_private_budget_is_a_capacity_fault_not_a_schedule_fault() {
        // 1 queue of capacity 8: wide_parallel needs more simultaneous values.
        let machine = Machine::single_cluster(6, 2, 1, lat());
        let lp = kernels::wide_parallel(lat(), 100);
        let r = modulo_schedule(&lp.ddg, &machine, ImsOptions::default()).unwrap();
        let v = verify(&lp.ddg, &machine, &r.schedule);
        if v.max_private_peak() > 8 {
            assert!(!v.is_clean());
            assert!(v.schedule_is_sound());
            assert!(v.violations.iter().all(|v| v.code() == "V006-PRIVATE-OVERFLOW"));
        }
    }

    /// `ld -> add` with the load on cluster `from` and the add on cluster
    /// `to`, at starts `[0, add_start]`, II 2.
    fn cross_cluster_pair(
        machine: &Machine,
        from: u32,
        to: u32,
        add_start: u32,
    ) -> (Ddg, Schedule, QueueAllocation) {
        let mut b = DdgBuilder::new(lat());
        let ld = b.op(OpKind::Load);
        let add = b.op(OpKind::Add);
        b.flow(ld, add);
        let g = b.finish();
        let ls = machine.fu_ids_of_class_in_cluster(ClusterId(from), OpClass::Memory)[0];
        let adder = machine.fu_ids_of_class_in_cluster(ClusterId(to), OpClass::Adder)[0];
        let s = Schedule::new(2, vec![0, add_start], vec![ls, adder]);
        let alloc = allocate_queues(&use_lifetimes(&g, &s), s.ii);
        (g, s, alloc)
    }

    #[test]
    fn link_table_matches_ring_topology() {
        // Comm peaks are indexed by `Machine::link_table`: on the 4-cluster ring,
        // (0, 1) then (0, 3) lead, so a value crossing 0 -> 3 lands at index 1.
        let four = Machine::paper_clustered(4, lat());
        let (g, s, _) = cross_cluster_pair(&four, 0, 3, 2);
        let v = verify(&g, &four, &s);
        assert!(v.is_clean(), "{}", v.render_text());
        assert_eq!(v.peak_comm_occupancy, [0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(four.link_table().links()[1], (ClusterId(0), ClusterId(3)));
        let single = Machine::single_cluster(6, 2, 32, lat());
        let (g, s, _) = cross_cluster_pair(&single, 0, 0, 2);
        assert!(verify(&g, &single, &s).peak_comm_occupancy.is_empty());
        let two = Machine::paper_clustered(2, lat());
        let (g, s, _) = cross_cluster_pair(&two, 0, 1, 2);
        assert_eq!(verify(&g, &two, &s).peak_comm_occupancy, [1, 0], "successor == predecessor");
    }

    #[test]
    fn a_value_over_a_non_ring_link_fills_that_links_budget() {
        // A 4-cluster crossbar whose links hold one value each: the 0 -> 2
        // diagonal is no ring link, yet the value crossing it occupies it.
        // Its lifetime [0, 6) overlaps itself three times at II 2.
        let ring = RingConfig { queues_per_direction: 1, queue_capacity: 1 };
        for topology in [Topology::Crossbar, Topology::Torus] {
            let clusters = vec![ClusterConfig::paper_basic(); 4];
            let m = Machine::new("tight", clusters, Some(ring), lat()).with_topology(topology);
            let (g, s, alloc) = cross_cluster_pair(&m, 0, 2, 6);
            let v = verify_with_allocation(&g, &m, &s, &alloc);
            assert_eq!(
                v.violations,
                [Violation::CommOverflow {
                    from: ClusterId(0),
                    to: ClusterId(2),
                    occupancy: 3,
                    capacity: 1,
                    cycle: None
                }],
                "{topology}: {}",
                v.render_text()
            );
            let dynamic = dynamic_violations(&g, &m, &s, &alloc, 1000);
            let codes: Vec<&str> = dynamic.iter().map(Violation::code).collect();
            assert_eq!(codes, ["V007-COMM-OVERFLOW"], "{topology}: {dynamic:?}");
            let run = simulate(&g, &m, &s, 1000).unwrap();
            assert_eq!(v.peak_comm_occupancy, run.measurement.peak_comm_occupancy, "{topology}");
        }
    }

    #[test]
    fn render_text_reports_clean_and_dirty() {
        let mut v = Verification::empty();
        assert!(v.render_text().contains("clean"));
        v.record(Violation::ZeroIi);
        let text = v.render_text();
        assert!(text.contains("V011-ZERO-II"), "{text}");
        assert!(text.contains("1 schedule"), "{text}");
    }

    #[test]
    fn copy_ops_report_bus_utilisation() {
        let machine = Machine::single_cluster(6, 2, 32, lat());
        for lp in kernels::all_kernels(lat()) {
            let rewritten = insert_copies(&lp.ddg, &lat());
            if rewritten.copy_ops.is_empty() {
                continue;
            }
            let r = modulo_schedule(&rewritten.ddg, &machine, ImsOptions::default()).unwrap();
            let v = verify(&rewritten.ddg, &machine, &r.schedule);
            assert!(v.copy_bus_utilisation > 0.0, "{}", lp.name);
            assert!(v.copy_bus_utilisation <= 1.0, "{}", lp.name);
        }
    }
}
