//! The cycle-stepping simulation engine.

use vliw_ddg::{Ddg, DepKind, OpClass, OpId};
use vliw_machine::{ClusterId, LinkTable, Machine};
use vliw_sched::{Schedule, Violation};

use crate::expand::{phase_of, sim_total_cycles, Phase};
use crate::report::{SimMeasurement, SimRun, MAX_RECORDED_VIOLATIONS};

/// Storage domain a queue-resident value instance lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Domain {
    /// The private QRF of one cluster.
    Private(u32),
    /// A directed interconnect link (index into [`Machine::link_table`]).
    Link(u32),
    /// No physical path exists (non-adjacent clusters); nothing to account.
    Unroutable,
}

/// Sentinel queue id for flow uses not tracked per queue.
const NO_QUEUE: u32 = u32::MAX;

/// One side of a flow edge as seen from an issuing instance.
#[derive(Debug, Clone, Copy)]
struct FlowUse {
    /// The *other* endpoint's flat issue cycle (producer start for incoming
    /// uses, consumer start for outgoing ones).
    other_start: u64,
    /// Iteration distance of the edge.
    distance: u64,
    /// Where the instance is stored.
    domain: Domain,
    /// Physical queue this flow was allocated to ([`NO_QUEUE`] when the run has
    /// no queue map or the edge is unmapped).
    queue: u32,
}

/// An assignment of value-carrying flow edges to physical queues, used to track
/// per-queue occupancy over time (the execution-observed counterpart of the
/// allocator's reported `queue_depths`).
///
/// `queue_of[k]` is the queue holding the `k`-th value-carrying flow edge of the
/// graph, in `ddg.edges()` order — the same order `vliw_qrf::use_lifetimes`
/// extracts per-use lifetimes, so indices into a
/// `vliw_qrf::QueueAllocation::queues` member list translate directly.  Queue
/// ids are dense in `0..num_queues`; `None` leaves an edge untracked (useful
/// when only one pool of a clustered machine is being cross-checked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueMap {
    /// Queue id per value-carrying flow edge.
    pub queue_of: Vec<Option<u32>>,
    /// Total number of queues (length of the reported peak table).
    pub num_queues: usize,
}

/// A dependence to check at issue time: the consumer side of any edge kind.
#[derive(Debug, Clone, Copy)]
struct PredDep {
    src: OpId,
    latency: u64,
    distance: u64,
}

/// Simulates `schedule` executing `trip_count` iterations of `ddg` on `machine`.
///
/// Returns a [`SimRun`] holding the measurements and every runtime violation
/// observed, or `Err` with the [`Violation`] that keeps the schedule from
/// driving an execution at all (wrong length, II of zero, nonexistent FU).  A
/// zero trip count or an empty graph simulates to an empty, clean run.
pub fn simulate(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    trip_count: u64,
) -> Result<SimRun, Violation> {
    simulate_inner(ddg, machine, schedule, trip_count, None)
}

/// Like [`simulate`], but additionally tracks the occupancy of each physical
/// queue of `queue_map` over time; the observed per-queue peaks are reported in
/// [`crate::SimMeasurement::peak_queue_occupancy`].
///
/// This is the dynamic side of the allocator-vs-simulator depth cross-check: at
/// steady state the peak of each queue must equal the `queue_depths` entry the
/// allocator derived for it from whole-wrap MaxLive counting.  A map that
/// does not describe the graph's flow edges is refused with
/// [`Violation::BadQueueMap`].
pub fn simulate_with_queue_map(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    trip_count: u64,
    queue_map: &QueueMap,
) -> Result<SimRun, Violation> {
    simulate_inner(ddg, machine, schedule, trip_count, Some(queue_map))
}

fn simulate_inner(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    trip_count: u64,
    queue_map: Option<&QueueMap>,
) -> Result<SimRun, Violation> {
    let _span = vliw_obs::span!("sim", trip_count);
    let n = ddg.num_ops();
    if schedule.start.len() != n {
        return Err(Violation::WrongLength { expected: n, actual: schedule.start.len() });
    }
    if schedule.ii == 0 {
        return Err(Violation::ZeroIi);
    }
    for op in ddg.ops() {
        let fu = schedule.fu_of(op.id);
        if fu.index() >= machine.num_fus() {
            return Err(Violation::UnknownFu { op: op.id, fu });
        }
    }
    if let Some(map) = queue_map {
        let flow_edges = ddg.edges().filter(|e| e.kind.carries_value()).count();
        let ids_in_range =
            map.queue_of.iter().flatten().all(|&q| (q as usize) < map.num_queues && q != NO_QUEUE);
        if map.queue_of.len() != flow_edges || !ids_in_range {
            return Err(Violation::BadQueueMap {
                expected_edges: flow_edges,
                actual_edges: map.queue_of.len(),
            });
        }
    }
    Engine::new(ddg, machine, schedule, trip_count, queue_map).run()
}

struct Engine<'a> {
    ddg: &'a Ddg,
    machine: &'a Machine,
    schedule: &'a Schedule,
    trip_count: u64,
    ii: u64,
    total_cycles: u64,
    /// Operation indices issuing in each modulo slot.
    slot_ops: Vec<Vec<u32>>,
    /// Flat issue cycle of each operation, widened once.
    starts: Vec<u64>,
    /// Cluster index of each operation (via its assigned FU).
    cluster_of: Vec<u32>,
    /// Consumer-side dependences per operation (all edge kinds).
    preds: Vec<Vec<PredDep>>,
    /// Incoming flow uses per operation (dequeued at the consumer's read).
    flow_in: Vec<Vec<FlowUse>>,
    /// Outgoing flow uses per operation (enqueued at the producer's write).
    flow_out: Vec<Vec<FlowUse>>,
    /// The machine's directed links.
    links: LinkTable,
    /// Issue record ring buffer: stamp (`iteration + 1`, 0 = empty) and cycle
    /// per (iteration mod window, op).
    window: usize,
    rec_stamp: Vec<u64>,
    rec_cycle: Vec<u64>,
    /// Per-FU last issue cycle and issuer, for double-booking detection.
    fu_cycle: Vec<u64>,
    fu_op: Vec<u32>,
    /// Queue occupancy state (signed: a violating schedule can dequeue early).
    private_occ: Vec<i64>,
    link_occ: Vec<i64>,
    private_peak: Vec<usize>,
    link_peak: Vec<usize>,
    /// Per-physical-queue occupancy and peaks, tracked only when a
    /// [`QueueMap`] was supplied (both empty otherwise).
    queue_occ: Vec<i64>,
    queue_peak: Vec<usize>,
    private_capacity: Vec<usize>,
    link_capacity: usize,
    private_overflowed: Vec<bool>,
    link_overflowed: Vec<bool>,
    /// Violation accumulator.
    violations: Vec<Violation>,
    schedule_faults: u64,
    capacity_faults: u64,
}

impl<'a> Engine<'a> {
    fn new(
        ddg: &'a Ddg,
        machine: &'a Machine,
        schedule: &'a Schedule,
        trip_count: u64,
        queue_map: Option<&QueueMap>,
    ) -> Self {
        let n = ddg.num_ops();
        let ii = u64::from(schedule.ii);
        let links = machine.link_table();

        let starts: Vec<u64> = schedule.start.iter().map(|&s| u64::from(s)).collect();
        let mut slot_ops = vec![Vec::new(); schedule.ii as usize];
        for (i, &s) in starts.iter().enumerate() {
            slot_ops[(s % ii) as usize].push(i as u32);
        }
        let cluster_of: Vec<u32> =
            (0..n).map(|i| machine.fu(schedule.fu[i]).cluster.index() as u32).collect();

        let mut preds = vec![Vec::new(); n];
        let mut flow_in = vec![Vec::new(); n];
        let mut flow_out = vec![Vec::new(); n];
        let mut max_dist = 0u64;
        // Index over value-carrying flow edges, in `ddg.edges()` order — the
        // ordering contract of [`QueueMap`] (and of `vliw_qrf::use_lifetimes`).
        let mut flow_idx = 0usize;
        for e in ddg.edges() {
            let dist = u64::from(e.distance);
            max_dist = max_dist.max(dist);
            preds[e.dst.index()].push(PredDep {
                src: e.src,
                latency: u64::from(e.latency),
                distance: dist,
            });
            // `carries_value()` (== Flow today) keeps the `flow_idx` ordering
            // aligned with `vliw_qrf::use_lifetimes` by construction.
            if !e.kind.carries_value() {
                continue;
            }
            let queue = match queue_map {
                Some(map) => map.queue_of[flow_idx].unwrap_or(NO_QUEUE),
                None => NO_QUEUE,
            };
            flow_idx += 1;
            let from = ClusterId(cluster_of[e.src.index()]);
            let to = ClusterId(cluster_of[e.dst.index()]);
            let domain = if from == to {
                Domain::Private(from.0)
            } else {
                links.index_of(from, to).map_or(Domain::Unroutable, |l| Domain::Link(l as u32))
            };
            flow_in[e.dst.index()].push(FlowUse {
                other_start: starts[e.src.index()],
                distance: dist,
                domain,
                queue,
            });
            flow_out[e.src.index()].push(FlowUse {
                other_start: starts[e.dst.index()],
                distance: dist,
                domain,
                queue,
            });
        }

        let sc = u64::from(schedule.stage_count());
        let window = (sc + max_dist + 2) as usize;
        let num_clusters = machine.num_clusters();
        let private_capacity: Vec<usize> = machine
            .cluster_ids()
            .map(|c| {
                let cfg = machine.cluster(c);
                cfg.private_queues * cfg.queue_capacity
            })
            .collect();
        let link_capacity =
            machine.ring().map(|r| r.queues_per_direction * r.queue_capacity).unwrap_or(0);

        Engine {
            ddg,
            machine,
            schedule,
            trip_count,
            ii,
            total_cycles: sim_total_cycles(schedule, trip_count),
            slot_ops,
            starts,
            cluster_of,
            preds,
            flow_in,
            flow_out,
            link_peak: vec![0; links.links().len()],
            link_occ: vec![0; links.links().len()],
            link_overflowed: vec![false; links.links().len()],
            queue_occ: vec![0; queue_map.map_or(0, |m| m.num_queues)],
            queue_peak: vec![0; queue_map.map_or(0, |m| m.num_queues)],
            links,
            window,
            rec_stamp: vec![0; window * n.max(1)],
            rec_cycle: vec![0; window * n.max(1)],
            fu_cycle: vec![u64::MAX; machine.num_fus()],
            fu_op: vec![0; machine.num_fus()],
            private_occ: vec![0; num_clusters],
            private_peak: vec![0; num_clusters],
            private_capacity,
            link_capacity,
            private_overflowed: vec![false; num_clusters],
            violations: Vec::new(),
            schedule_faults: 0,
            capacity_faults: 0,
        }
    }

    fn record(&mut self, v: Violation) {
        if v.is_schedule_fault() {
            self.schedule_faults += 1;
        } else {
            self.capacity_faults += 1;
        }
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Structural pre-pass: flow edges between non-adjacent clusters have no
    /// physical path, reported once per edge rather than once per iteration.
    fn check_routability(&mut self) {
        let mut unroutable = Vec::new();
        for e in self.ddg.edges() {
            if e.kind != DepKind::Flow {
                continue;
            }
            let from = ClusterId(self.cluster_of[e.src.index()]);
            let to = ClusterId(self.cluster_of[e.dst.index()]);
            if !self.machine.clusters_communicate(from, to) {
                unroutable.push(Violation::NonAdjacent { src: e.src, dst: e.dst, from, to });
            }
        }
        for v in unroutable {
            self.record(v);
        }
    }

    fn run(mut self) -> Result<SimRun, Violation> {
        let n = self.ddg.num_ops();
        if n == 0 || self.trip_count == 0 {
            return Ok(self.finish(0, 0, 0, 0, 0));
        }
        self.check_routability();

        let mut issued = 0u64;
        let mut copy_issued = 0u64;
        let mut phase_issues = [0u64; 3];
        // Reused per cycle: the instances `(op, iteration)` issuing this cycle.
        let mut issuing: Vec<(u32, u64)> = Vec::new();

        for cycle in 0..self.total_cycles {
            let slot = (cycle % self.ii) as usize;
            issuing.clear();
            for si in 0..self.slot_ops[slot].len() {
                let i = self.slot_ops[slot][si];
                let start = self.starts[i as usize];
                if cycle >= start {
                    let k = (cycle - start) / self.ii;
                    if k < self.trip_count {
                        issuing.push((i, k));
                    }
                }
            }
            if issuing.is_empty() {
                continue;
            }

            let phase = match phase_of(self.schedule, self.trip_count, cycle) {
                Phase::Prologue => 0,
                Phase::Kernel => 1,
                Phase::Epilogue => 2,
            };
            // 1. Issue: record the observation, book the FU, count.
            for &(i, k) in &issuing {
                let slot = (k as usize % self.window) * n + i as usize;
                self.rec_stamp[slot] = k + 1;
                self.rec_cycle[slot] = cycle;
                issued += 1;
                phase_issues[phase] += 1;

                let op = OpId(i);
                let fu = self.schedule.fu[i as usize];
                let unit = self.machine.fu(fu);
                if k == 0 && unit.class != self.ddg.op(op).class() {
                    self.record(Violation::WrongFuClass { op, fu });
                }
                if unit.class == OpClass::Copy {
                    copy_issued += 1;
                }
                if self.fu_cycle[fu.index()] == cycle {
                    let first = OpId(self.fu_op[fu.index()]);
                    self.record(Violation::FuConflict {
                        first,
                        second: op,
                        fu,
                        slot: None,
                        cycle: Some(cycle),
                    });
                } else {
                    self.fu_cycle[fu.index()] = cycle;
                    self.fu_op[fu.index()] = i;
                }
            }
            // 2. Operand readiness, against the observed issue record.
            for &(i, k) in &issuing {
                for pi in 0..self.preds[i as usize].len() {
                    let dep = self.preds[i as usize][pi];
                    if k < dep.distance {
                        continue;
                    }
                    let kp = k - dep.distance;
                    let slot = (kp as usize % self.window) * n + dep.src.index();
                    let ready_at = if self.rec_stamp[slot] == kp + 1 {
                        Some(self.rec_cycle[slot] + dep.latency)
                    } else {
                        None
                    };
                    if ready_at.is_none_or(|r| r > cycle) {
                        self.record(Violation::DepDistance {
                            src: dep.src,
                            dst: OpId(i),
                            iteration: Some(k),
                            cycle: Some(cycle),
                            ready_at,
                        });
                    }
                }
            }
            // 3. Queue traffic: destructive reads free their slot before the
            //    cycle's writes claim theirs.
            for &(i, k) in &issuing {
                for ui in 0..self.flow_in[i as usize].len() {
                    let usage = self.flow_in[i as usize][ui];
                    if k < usage.distance {
                        continue;
                    }
                    // Zero-length instances (write and read in the same cycle)
                    // never occupy storage; skip them on both sides.
                    let write_cycle = usage.other_start + (k - usage.distance) * self.ii;
                    if write_cycle == cycle {
                        continue;
                    }
                    self.adjust_occupancy(usage.domain, -1);
                    if usage.queue != NO_QUEUE {
                        self.queue_occ[usage.queue as usize] -= 1;
                    }
                }
            }
            for &(i, k) in &issuing {
                for ui in 0..self.flow_out[i as usize].len() {
                    let usage = self.flow_out[i as usize][ui];
                    let kc = k + usage.distance;
                    // Instances whose consumer iteration never executes are
                    // architecturally dead: the epilogue discards them.
                    if kc >= self.trip_count {
                        continue;
                    }
                    let read_cycle = usage.other_start + kc * self.ii;
                    if read_cycle == cycle {
                        continue;
                    }
                    self.adjust_occupancy(usage.domain, 1);
                    if usage.queue != NO_QUEUE {
                        // Per-queue occupancy only ever rises at an enqueue (the
                        // cycle's dequeues ran first), so sampling the peak here
                        // is exact — no per-cycle scan of the queue table.
                        let q = usage.queue as usize;
                        self.queue_occ[q] += 1;
                        let occ = self.queue_occ[q].max(0) as usize;
                        self.queue_peak[q] = self.queue_peak[q].max(occ);
                    }
                }
            }
            self.sample_occupancy(cycle);
        }

        Ok(self.finish(issued, copy_issued, phase_issues[0], phase_issues[1], phase_issues[2]))
    }

    fn adjust_occupancy(&mut self, domain: Domain, delta: i64) {
        match domain {
            Domain::Private(c) => self.private_occ[c as usize] += delta,
            Domain::Link(l) => self.link_occ[l as usize] += delta,
            Domain::Unroutable => {}
        }
    }

    /// Updates the peak trackers and capacity checks after a cycle's events.
    fn sample_occupancy(&mut self, cycle: u64) {
        for c in 0..self.private_occ.len() {
            let occ = self.private_occ[c].max(0) as usize;
            self.private_peak[c] = self.private_peak[c].max(occ);
            if occ > self.private_capacity[c] && !self.private_overflowed[c] {
                self.private_overflowed[c] = true;
                self.record(Violation::PrivateOverflow {
                    cluster: ClusterId(c as u32),
                    occupancy: occ,
                    capacity: self.private_capacity[c],
                    cycle: Some(cycle),
                });
            }
        }
        for l in 0..self.link_occ.len() {
            let occ = self.link_occ[l].max(0) as usize;
            self.link_peak[l] = self.link_peak[l].max(occ);
            if occ > self.link_capacity && !self.link_overflowed[l] {
                self.link_overflowed[l] = true;
                let (from, to) = self.links.links()[l];
                self.record(Violation::CommOverflow {
                    from,
                    to,
                    occupancy: occ,
                    capacity: self.link_capacity,
                    cycle: Some(cycle),
                });
            }
        }
    }

    fn finish(
        self,
        issued: u64,
        copy_issued: u64,
        prologue: u64,
        kernel: u64,
        epilogue: u64,
    ) -> SimRun {
        let total_cycles = if issued == 0 { 0 } else { self.total_cycles };
        let copy_units = self.machine.num_fus_of_class(OpClass::Copy) as u64;
        let copy_slots = copy_units * total_cycles;
        let measurement = SimMeasurement {
            trip_count: self.trip_count,
            total_cycles,
            issued_ops: issued,
            prologue_issues: prologue,
            kernel_issues: kernel,
            epilogue_issues: epilogue,
            copy_ops_issued: copy_issued,
            dynamic_ipc: if total_cycles == 0 { 0.0 } else { issued as f64 / total_cycles as f64 },
            peak_private_occupancy: self.private_peak,
            peak_comm_occupancy: self.link_peak,
            peak_queue_occupancy: self.queue_peak,
            copy_bus_utilisation: if copy_slots == 0 {
                0.0
            } else {
                copy_issued as f64 / copy_slots as f64
            },
        };
        SimRun {
            measurement,
            violations: self.violations,
            schedule_faults: self.schedule_faults,
            capacity_faults: self.capacity_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, DdgBuilder, LatencyModel, OpKind};
    use vliw_machine::{ClusterConfig, FuId, Machine, RingConfig};
    use vliw_sched::{modulo_schedule, ImsOptions};

    fn simple_graph() -> Ddg {
        let mut b = DdgBuilder::new(LatencyModel::default());
        let ld = b.op(OpKind::Load);
        let add = b.op(OpKind::Add);
        b.flow(ld, add);
        b.finish()
    }

    fn machine() -> Machine {
        Machine::single_cluster(3, 1, 32, LatencyModel::default())
    }

    fn fu_of(m: &Machine, class: OpClass, nth: usize) -> FuId {
        m.fus_of_class(class).nth(nth).unwrap().id
    }

    #[test]
    fn valid_schedule_simulates_cleanly() {
        let g = simple_graph();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        let s = Schedule::new(2, vec![0, 2], vec![ls, add]);
        assert!(s.validate(&g, &m).is_ok());
        let run = simulate(&g, &m, &s, 10).unwrap();
        assert!(run.is_clean(), "violations: {:?}", run.violations);
        assert_eq!(run.measurement.total_cycles, s.total_cycles(10));
        assert_eq!(run.measurement.issued_ops, 20);
        assert_eq!(
            run.measurement.prologue_issues
                + run.measurement.kernel_issues
                + run.measurement.epilogue_issues,
            20
        );
        assert!(run.measurement.dynamic_ipc > 0.0);
    }

    #[test]
    fn dependence_violation_is_observed_at_runtime() {
        let g = simple_graph();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        // Load has latency 2, so the add cannot start one cycle later.
        let s = Schedule::new(2, vec![0, 1], vec![ls, add]);
        assert!(s.validate(&g, &m).is_err());
        let run = simulate(&g, &m, &s, 5).unwrap();
        assert!(!run.is_clean());
        // One violation per iteration: the same dependence misses every time.
        assert_eq!(run.schedule_faults, 5);
        assert!(matches!(
            run.violations[0],
            Violation::DepDistance {
                src: OpId(0),
                dst: OpId(1),
                iteration: Some(0),
                cycle: Some(1),
                ready_at: Some(2)
            }
        ));
    }

    #[test]
    fn consumer_scheduled_before_producer_reports_unready_operand() {
        let g = simple_graph();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        let s = Schedule::new(4, vec![2, 0], vec![ls, add]);
        let run = simulate(&g, &m, &s, 2).unwrap();
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DepDistance { ready_at: None, cycle: Some(_), .. })));
    }

    #[test]
    fn fu_double_booking_is_observed() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.op(OpKind::Load);
        b.op(OpKind::Load);
        let g = b.finish();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let s = Schedule::new(2, vec![0, 2], vec![ls, ls]);
        let run = simulate(&g, &m, &s, 4).unwrap();
        assert!(!run.is_clean());
        assert!(matches!(
            run.violations[0],
            Violation::FuConflict {
                first: OpId(0),
                second: OpId(1),
                slot: None,
                cycle: Some(2),
                ..
            }
        ));
        // At different modulo slots the same unit is fine.
        let s = Schedule::new(2, vec![0, 1], vec![ls, ls]);
        assert!(simulate(&g, &m, &s, 4).unwrap().is_clean());
    }

    #[test]
    fn wrong_class_is_observed_once() {
        let g = simple_graph();
        let m = machine();
        let add = fu_of(&m, OpClass::Adder, 0);
        let s = Schedule::new(2, vec![0, 2], vec![add, add]);
        let run = simulate(&g, &m, &s, 10).unwrap();
        let class_faults =
            run.violations.iter().filter(|v| matches!(v, Violation::WrongFuClass { .. })).count();
        assert_eq!(class_faults, 1, "a static property is reported once, not per iteration");
    }

    #[test]
    fn setup_errors_are_not_violations() {
        // Input that describes no execution is refused with `Err`, never
        // recorded among a run's observations.
        let g = simple_graph();
        let m = machine();
        let s = Schedule::new(2, vec![0], vec![FuId(0)]);
        assert_eq!(simulate(&g, &m, &s, 1), Err(Violation::WrongLength { expected: 2, actual: 1 }));
        let s = Schedule::new(0, vec![0, 2], vec![FuId(0), FuId(1)]);
        assert_eq!(simulate(&g, &m, &s, 1).map_err(|v| v.code()), Err("V011-ZERO-II"));
        let s = Schedule::new(2, vec![0, 2], vec![FuId(95), FuId(96)]);
        assert_eq!(
            simulate(&g, &m, &s, 1),
            Err(Violation::UnknownFu { op: OpId(0), fu: FuId(95) })
        );
    }

    #[test]
    fn zero_trip_count_spans_no_cycles() {
        let g = simple_graph();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        let s = Schedule::new(2, vec![0, 2], vec![ls, add]);
        let run = simulate(&g, &m, &s, 0).unwrap();
        assert!(run.is_clean());
        assert_eq!(run.measurement.total_cycles, 0);
        assert_eq!(run.measurement.issued_ops, 0);
        assert_eq!(run.measurement.dynamic_ipc, 0.0);
    }

    #[test]
    fn private_queue_overflow_is_detected() {
        // A machine whose cluster can hold exactly one value: two overlapping
        // lifetimes overflow it.
        let cluster = ClusterConfig {
            fu_classes: vec![vliw_ddg::OpClass::Memory, vliw_ddg::OpClass::Adder],
            copy_units: 0,
            private_queues: 1,
            queue_capacity: 1,
        };
        let m = Machine::new("tiny", vec![cluster], None, LatencyModel::default());
        let mut b = DdgBuilder::new(LatencyModel::default());
        let ld = b.op(OpKind::Load);
        let a1 = b.op(OpKind::Add);
        let a2 = b.op(OpKind::Add);
        b.flow(ld, a1);
        b.flow(a1, a2);
        let g = b.finish();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        // ld's value lives [0, 4): with II 2 two instances of that lifetime
        // overlap each other, exceeding the single slot.
        let s = Schedule::new(2, vec![0, 4, 5], vec![ls, add, add]);
        assert!(s.validate(&g, &m).is_ok(), "statically fine — queues are not validated");
        let run = simulate(&g, &m, &s, 10).unwrap();
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, Violation::PrivateOverflow { cycle: Some(_), .. })));
        assert!(run.measurement.max_private_peak() > 1);
    }

    #[test]
    fn non_adjacent_flow_is_detected_once_per_edge() {
        let m = Machine::paper_clustered(4, LatencyModel::default());
        let g = simple_graph();
        // Producer in cluster 0, consumer in cluster 2: across the ring.
        let ls0 = m.fu_ids_of_class_in_cluster(ClusterId(0), OpClass::Memory)[0];
        let add2 = m.fu_ids_of_class_in_cluster(ClusterId(2), OpClass::Adder)[0];
        let s = Schedule::new(2, vec![0, 2], vec![ls0, add2]);
        let run = simulate(&g, &m, &s, 20).unwrap();
        let adjacency_faults =
            run.violations.iter().filter(|v| matches!(v, Violation::NonAdjacent { .. })).count();
        assert_eq!(adjacency_faults, 1);
    }

    #[test]
    fn cross_cluster_flow_occupies_the_ring_link() {
        let m = Machine::paper_clustered(4, LatencyModel::default());
        let g = simple_graph();
        let ls0 = m.fu_ids_of_class_in_cluster(ClusterId(0), OpClass::Memory)[0];
        let add1 = m.fu_ids_of_class_in_cluster(ClusterId(1), OpClass::Adder)[0];
        let s = Schedule::new(2, vec![0, 2], vec![ls0, add1]);
        let run = simulate(&g, &m, &s, 20).unwrap();
        assert!(run.is_clean(), "violations: {:?}", run.violations);
        assert!(run.measurement.max_comm_peak() >= 1, "the value crosses 0 -> 1");
        assert_eq!(run.measurement.max_private_peak(), 0, "nothing stays local");
    }

    #[test]
    fn comm_queue_overflow_is_detected() {
        // A two-cluster ring whose links hold exactly one value.
        let ring = RingConfig { queues_per_direction: 1, queue_capacity: 1 };
        let clusters = vec![ClusterConfig::paper_basic(), ClusterConfig::paper_basic()];
        let m = Machine::new("tiny-ring", clusters, Some(ring), LatencyModel::default());
        let mut b = DdgBuilder::new(LatencyModel::default());
        let l1 = b.op(OpKind::Load);
        let a1 = b.op(OpKind::Add);
        b.flow(l1, a1);
        let g = b.finish();
        let ls0 = m.fu_ids_of_class_in_cluster(ClusterId(0), OpClass::Memory)[0];
        let add1 = m.fu_ids_of_class_in_cluster(ClusterId(1), OpClass::Adder)[0];
        // The lifetime spans [0, 6) at II 2: three instances overlap, the link
        // holds one.
        let s = Schedule::new(2, vec![0, 6], vec![ls0, add1]);
        let run = simulate(&g, &m, &s, 10).unwrap();
        assert!(run
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CommOverflow { cycle: Some(_), .. })));
    }

    #[test]
    fn violation_recording_is_capped_but_counting_is_not() {
        let g = simple_graph();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        let s = Schedule::new(2, vec![0, 1], vec![ls, add]);
        let run = simulate(&g, &m, &s, 500).unwrap();
        assert_eq!(run.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(run.total_violations(), 500);
        assert_eq!(run.schedule_faults, 500);
    }

    #[test]
    fn scheduled_kernels_are_clean_and_match_the_closed_forms() {
        let lat = LatencyModel::default();
        let m = Machine::single_cluster(6, 2, 32, lat);
        for lp in kernels::all_kernels(lat) {
            let r = modulo_schedule(&lp.ddg, &m, ImsOptions::default()).unwrap();
            for n in [1u64, 2, 3, 10, 100] {
                let run = simulate(&lp.ddg, &m, &r.schedule, n).unwrap();
                assert!(run.is_clean(), "{} N={n}: {:?}", lp.name, run.violations);
                assert_eq!(
                    run.measurement.total_cycles,
                    r.schedule.total_cycles(n),
                    "{} N={n}",
                    lp.name
                );
                assert_eq!(run.measurement.issued_ops, lp.ddg.num_ops() as u64 * n);
            }
        }
    }

    #[test]
    fn loop_carried_dependences_are_checked_across_iterations() {
        // acc -> acc with latency 3 at distance 1 needs II >= 3; at II 2 the
        // static validator and the dynamic verifier must both reject.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let acc = b.op(OpKind::Add);
        b.edge_with_latency(acc, acc, vliw_ddg::DepKind::Flow, 3, 1);
        let g = b.finish();
        let m = machine();
        let add = fu_of(&m, OpClass::Adder, 0);
        let bad = Schedule::new(2, vec![0], vec![add]);
        assert!(bad.validate(&g, &m).is_err());
        let run = simulate(&g, &m, &bad, 5).unwrap();
        // Iterations 1..5 each read a value produced one cycle too late.
        assert_eq!(run.schedule_faults, 4);
        let good = Schedule::new(3, vec![0], vec![add]);
        assert!(good.validate(&g, &m).is_ok());
        assert!(simulate(&g, &m, &good, 5).unwrap().is_clean());
    }

    #[test]
    fn peak_occupancy_reaches_max_live_at_steady_state() {
        use vliw_qrf::{max_live, use_lifetimes};
        let lat = LatencyModel::default();
        let m = Machine::single_cluster(6, 2, 1024, lat);
        for lp in kernels::all_kernels(lat) {
            let r = modulo_schedule(&lp.ddg, &m, ImsOptions::default()).unwrap();
            let lts = use_lifetimes(&lp.ddg, &r.schedule);
            let expected = max_live(&lts, r.schedule.ii);
            let run = simulate(&lp.ddg, &m, &r.schedule, 1000).unwrap();
            assert_eq!(
                run.measurement.max_private_peak(),
                expected,
                "{}: simulated peak must equal MaxLive at steady state",
                lp.name
            );
        }
    }

    #[test]
    fn per_queue_peaks_match_the_allocators_depths() {
        // The allocator-vs-simulator depth cross-check: the allocator derives
        // each queue's depth from whole-wrap MaxLive counting over its members;
        // the simulator observes enqueue-on-write / destructive-dequeue-on-read
        // occupancy over time.  At steady state they must agree per queue,
        // including lifetimes that wrap the II several times.
        use vliw_qrf::{allocate_queues, use_lifetimes};
        let lat = LatencyModel::default();
        let m = Machine::single_cluster(6, 2, 1024, lat);
        for lp in kernels::all_kernels(lat) {
            let r = modulo_schedule(&lp.ddg, &m, ImsOptions::default()).unwrap();
            let lts = use_lifetimes(&lp.ddg, &r.schedule);
            let alloc = allocate_queues(&lts, r.schedule.ii);
            let mut queue_of = vec![None; lts.len()];
            for (q, members) in alloc.queues().enumerate() {
                for &k in members {
                    queue_of[k as usize] = Some(q as u32);
                }
            }
            let map = QueueMap { queue_of, num_queues: alloc.num_queues() };
            let run = simulate_with_queue_map(&lp.ddg, &m, &r.schedule, 1000, &map).unwrap();
            assert!(run.is_clean(), "{}: {:?}", lp.name, run.violations);
            assert_eq!(
                run.measurement.peak_queue_occupancy, alloc.queue_depths,
                "{}: observed per-queue peaks diverge from the allocator's depths",
                lp.name
            );
        }
    }

    #[test]
    fn queue_map_must_cover_every_flow_edge() {
        let g = simple_graph();
        let m = machine();
        let ls = fu_of(&m, OpClass::Memory, 0);
        let add = fu_of(&m, OpClass::Adder, 0);
        let s = Schedule::new(2, vec![0, 2], vec![ls, add]);
        // One flow edge, but an empty map.
        let map = QueueMap { queue_of: vec![], num_queues: 0 };
        assert!(matches!(
            simulate_with_queue_map(&g, &m, &s, 5, &map),
            Err(Violation::BadQueueMap { expected_edges: 1, actual_edges: 0 })
        ));
        // Right length, out-of-range id.
        let map = QueueMap { queue_of: vec![Some(3)], num_queues: 1 };
        assert!(matches!(
            simulate_with_queue_map(&g, &m, &s, 5, &map),
            Err(Violation::BadQueueMap { .. })
        ));
        // Unmapped edges are allowed and leave the peak table untouched.
        let map = QueueMap { queue_of: vec![None], num_queues: 2 };
        let run = simulate_with_queue_map(&g, &m, &s, 5, &map).unwrap();
        assert_eq!(run.measurement.peak_queue_occupancy, vec![0, 0]);
        // A plain run reports no per-queue table at all.
        let run = simulate(&g, &m, &s, 5).unwrap();
        assert!(run.measurement.peak_queue_occupancy.is_empty());
    }

    #[test]
    fn copy_bus_utilisation_counts_copy_traffic() {
        use vliw_qrf::insert_copies;
        let lat = LatencyModel::default();
        let m = Machine::single_cluster(6, 2, 1024, lat);
        let lp = kernels::wide_parallel(lat, 100);
        let body = insert_copies(&lp.ddg, &lat);
        assert!(body.num_copies() > 0);
        let r = modulo_schedule(&body.ddg, &m, ImsOptions::default()).unwrap();
        let run = simulate(&body.ddg, &m, &r.schedule, 50).unwrap();
        assert!(run.is_clean(), "violations: {:?}", run.violations);
        assert_eq!(run.measurement.copy_ops_issued, body.num_copies() as u64 * 50);
        assert!(run.measurement.copy_bus_utilisation > 0.0);
        assert!(run.measurement.copy_bus_utilisation <= 1.0);
    }

    #[test]
    fn simulated_ipc_equals_the_closed_form() {
        use vliw_ddg::kernels;
        let lat = LatencyModel::default();
        let m = Machine::single_cluster(6, 2, 32, lat);
        let lp = kernels::daxpy(lat, 1000);
        let r = modulo_schedule(&lp.ddg, &m, ImsOptions::default()).unwrap();
        for n in [1u64, 7, 100] {
            let run = simulate(&lp.ddg, &m, &r.schedule, n).unwrap();
            let ops = lp.ddg.num_ops() as u64 * n;
            let cycles = r.schedule.total_cycles(n);
            assert_eq!(run.measurement.dynamic_ipc, ops as f64 / cycles as f64);
        }
    }
}
