//! Modulo-schedule representation and validation.

use std::collections::hash_map::{Entry, HashMap};

use vliw_ddg::{Ddg, OpId};
use vliw_machine::{ClusterId, FuId, Machine};

use crate::violation::Violation;

/// A complete modulo schedule of one loop body on one machine.
///
/// `start[i]` is the absolute issue cycle of operation `i` in the *flat* schedule of
/// a single iteration (it may exceed the II); the steady-state kernel issues
/// operation `i` at slot `start[i] mod II` of every II-cycle window, `start[i] / II`
/// stages after the iteration entered the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Initiation interval in cycles.
    pub ii: u32,
    /// Per-operation issue cycle (indexed by [`OpId::index`]).
    pub start: Vec<u32>,
    /// Per-operation functional-unit assignment.
    pub fu: Vec<FuId>,
}

impl Schedule {
    /// Creates a schedule from its components.
    pub fn new(ii: u32, start: Vec<u32>, fu: Vec<FuId>) -> Self {
        assert_eq!(start.len(), fu.len());
        Schedule { ii, start, fu }
    }

    /// Issue cycle of `op`.
    #[inline]
    pub fn start_of(&self, op: OpId) -> u32 {
        self.start[op.index()]
    }

    /// Functional unit executing `op`.
    #[inline]
    pub fn fu_of(&self, op: OpId) -> FuId {
        self.fu[op.index()]
    }

    /// Modulo slot (`cycle mod II`) of `op` in the kernel.  A zero II (which
    /// [`Schedule::violations`] reports as `V011-ZERO-II`) has no kernel: the
    /// slot is then the cycle itself and the stage 0, so
    /// `stage · II + slot = cycle` still holds.
    #[inline]
    pub fn slot_of(&self, op: OpId) -> u32 {
        let cycle = self.start[op.index()];
        cycle.checked_rem(self.ii).unwrap_or(cycle)
    }

    /// Pipeline stage (`cycle / II`) of `op`; 0 at a zero II.
    #[inline]
    pub fn stage_of(&self, op: OpId) -> u32 {
        self.start[op.index()].checked_div(self.ii).unwrap_or(0)
    }

    /// Number of operations in the schedule.
    pub fn num_ops(&self) -> usize {
        self.start.len()
    }

    /// Stage count: the number of kernel stages (and hence the number of iterations
    /// simultaneously in flight at steady state).
    ///
    /// Defined as `⌊max start / II⌋ + 1` (1 at a zero II, where every stage is
    /// 0).  A higher stage count means a longer prologue and epilogue
    /// (Section 2 of the paper).
    pub fn stage_count(&self) -> u32 {
        match self.start.iter().max() {
            Some(&max) => max.checked_div(self.ii).unwrap_or(0) + 1,
            None => 0,
        }
    }

    /// The cluster executing `op` under `machine`.
    pub fn cluster_of(&self, machine: &Machine, op: OpId) -> ClusterId {
        machine.fu(self.fu_of(op)).cluster
    }

    /// Total number of cycles needed to run `trip_count` iterations of the loop:
    /// `(SC − 1 + N) · II`, i.e. prologue + kernel + epilogue (0 at a zero II).
    pub fn total_cycles(&self, trip_count: u64) -> u64 {
        if self.start.is_empty() || trip_count == 0 {
            return 0;
        }
        (self.stage_count() as u64 - 1 + trip_count) * self.ii as u64
    }

    /// Every violation of the static schedule rules, in check order: a length
    /// mismatch or a zero II (either is the single entry, as nothing else is
    /// well-defined then), then each dependence whose distance
    /// `start(dst) + II·distance ≥ start(src) + latency` fails (per edge, in
    /// id order), then per operation in id order a nonexistent unit, a unit
    /// of the wrong class and a modulo-slot conflict on its unit.
    ///
    /// The verifier reports this list verbatim; [`Schedule::validate`] keeps
    /// its first entry.
    pub fn violations(&self, ddg: &Ddg, machine: &Machine) -> Vec<Violation> {
        let n = ddg.num_ops();
        if self.start.len() != n {
            return vec![Violation::WrongLength { expected: n, actual: self.start.len() }];
        }
        if self.ii == 0 {
            return vec![Violation::ZeroIi];
        }
        let mut out = Vec::new();
        let ii = i64::from(self.ii);
        // i64 keeps a u32 start plus u32·u32 products far inside the window.
        for e in ddg.edges() {
            let lhs = i64::from(self.start[e.dst.index()]) + ii * i64::from(e.distance);
            let rhs = i64::from(self.start[e.src.index()]) + i64::from(e.latency);
            if lhs < rhs {
                out.push(Violation::DepDistance {
                    src: e.src,
                    dst: e.dst,
                    iteration: None,
                    cycle: None,
                    ready_at: None,
                });
            }
        }
        // The modulo reservation table: the first op to claim each
        // (slot, unit) cell keeps it, every later claimant conflicts.
        let mut mrt: HashMap<(u32, FuId), OpId> = HashMap::new();
        for op in ddg.ops() {
            let fu = self.fu[op.id.index()];
            if fu.index() >= machine.num_fus() {
                out.push(Violation::UnknownFu { op: op.id, fu });
                continue;
            }
            if machine.fu(fu).class != op.class() {
                out.push(Violation::WrongFuClass { op: op.id, fu });
            }
            let slot = self.start[op.id.index()] % self.ii;
            match mrt.entry((slot, fu)) {
                Entry::Occupied(first) => out.push(Violation::FuConflict {
                    first: *first.get(),
                    second: op.id,
                    fu,
                    slot: Some(slot),
                    cycle: None,
                }),
                Entry::Vacant(cell) => {
                    cell.insert(op.id);
                }
            }
        }
        out
    }

    /// Checks that the schedule respects every dependence of `ddg` and never
    /// oversubscribes a functional unit of `machine`, returning the first of
    /// [`Schedule::violations`].
    pub fn validate(&self, ddg: &Ddg, machine: &Machine) -> Result<(), Violation> {
        match self.violations(ddg, machine).into_iter().next() {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{DdgBuilder, LatencyModel, OpKind};
    use vliw_machine::Machine;

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

    #[test]
    fn valid_schedule_passes() {
        let g = simple_graph();
        let m = machine();
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let s = Schedule::new(2, vec![0, 2], vec![ls, add]);
        assert!(s.validate(&g, &m).is_ok());
        assert_eq!(s.stage_count(), 2);
        assert_eq!(s.slot_of(OpId(1)), 0);
        assert_eq!(s.stage_of(OpId(1)), 1);
    }

    #[test]
    fn dependence_violation_detected() {
        let g = simple_graph();
        let m = machine();
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        // Load has latency 2, so the add cannot start at cycle 1.
        let s = Schedule::new(2, vec![0, 1], vec![ls, add]);
        assert_eq!(
            s.validate(&g, &m),
            Err(Violation::DepDistance {
                src: OpId(0),
                dst: OpId(1),
                iteration: None,
                cycle: None,
                ready_at: None
            })
        );
    }

    #[test]
    fn resource_conflict_detected() {
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.op(OpKind::Load);
        b.op(OpKind::Load);
        let g = b.finish();
        let m = Machine::single_cluster(3, 1, 32, LatencyModel::default());
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let s = Schedule::new(2, vec![0, 2], vec![ls, ls]);
        assert!(matches!(
            s.validate(&g, &m),
            Err(Violation::FuConflict { first: OpId(0), second: OpId(1), slot: Some(0), .. })
        ));
        // At different modulo slots the same unit is fine.
        let s = Schedule::new(2, vec![0, 1], vec![ls, ls]);
        assert!(s.validate(&g, &m).is_ok());
    }

    #[test]
    fn wrong_class_detected() {
        let g = simple_graph();
        let m = machine();
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let s = Schedule::new(2, vec![0, 2], vec![add, add]);
        assert!(matches!(s.validate(&g, &m), Err(Violation::WrongFuClass { .. })));
    }

    #[test]
    fn wrong_length_detected() {
        let g = simple_graph();
        let m = machine();
        let s = Schedule::new(2, vec![0], vec![FuId(0)]);
        assert_eq!(s.validate(&g, &m), Err(Violation::WrongLength { expected: 2, actual: 1 }));
    }

    #[test]
    fn unknown_fu_detected() {
        let g = simple_graph();
        let m = machine();
        let s = Schedule::new(2, vec![0, 2], vec![FuId(95), FuId(96)]);
        assert!(matches!(s.validate(&g, &m), Err(Violation::UnknownFu { .. })));
    }

    #[test]
    fn loop_carried_dependences_relax_with_ii() {
        // acc -> acc latency 1 distance 1: any start works as long as II >= 1.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let acc = b.op(OpKind::Add);
        b.flow_carried(acc, acc, 1);
        let g = b.finish();
        let m = machine();
        let addfu = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let s = Schedule::new(1, vec![0], vec![addfu]);
        assert!(s.validate(&g, &m).is_ok());
    }

    #[test]
    fn total_cycles_accounts_for_prologue_and_epilogue() {
        let _g = simple_graph();
        let m = machine();
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let s = Schedule::new(2, vec![0, 2], vec![ls, add]);
        // SC = 2, so N iterations take (2 - 1 + N) * 2 cycles.
        assert_eq!(s.total_cycles(1), 4);
        assert_eq!(s.total_cycles(10), 22);
        assert_eq!(s.total_cycles(0), 0);
    }

    #[test]
    fn violation_messages_are_informative() {
        let g = simple_graph();
        let m = machine();
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let v = Schedule::new(2, vec![0, 1], vec![ls, add]).validate(&g, &m).unwrap_err();
        assert_eq!(v.to_string(), "[V001-DEP-DISTANCE] dependence op0 -> op1 violated");
        let v = Schedule::new(2, vec![0, 2], vec![add, add]).validate(&g, &m).unwrap_err();
        assert!(v.to_string().contains("op0") && v.to_string().contains("wrong class"), "{v}");
    }

    #[test]
    fn zero_ii_is_a_violation_not_a_panic() {
        let g = simple_graph();
        let m = machine();
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let s = Schedule { ii: 0, start: vec![0, 2], fu: vec![ls, add] };
        assert_eq!(s.validate(&g, &m), Err(Violation::ZeroIi));
        assert_eq!(s.violations(&g, &m), vec![Violation::ZeroIi]);
        // The cycle arithmetic is defined too: one stage, each slot its cycle.
        assert_eq!(s.stage_count(), 1);
        assert_eq!((s.slot_of(OpId(1)), s.stage_of(OpId(1))), (2, 0));
        assert_eq!(s.total_cycles(100), 0);
    }

    #[test]
    fn violations_lists_every_defect_in_check_order() {
        // Three adds on one adder at slot 0, the middle one also on the wrong
        // class; the first add feeds the last one a cycle too early.
        let mut b = DdgBuilder::new(LatencyModel::default());
        let a0 = b.op(OpKind::Add);
        b.op(OpKind::Add);
        let a2 = b.op(OpKind::Add);
        b.edge_with_latency(a0, a2, vliw_ddg::DepKind::Flow, 5, 0);
        let g = b.finish();
        let m = machine();
        let ls = m.fus_of_class(vliw_ddg::OpClass::Memory).next().unwrap().id;
        let add = m.fus_of_class(vliw_ddg::OpClass::Adder).next().unwrap().id;
        let s = Schedule::new(2, vec![0, 2, 4], vec![add, ls, add]);
        let codes: Vec<&str> = s.violations(&g, &m).iter().map(Violation::code).collect();
        assert_eq!(codes, ["V001-DEP-DISTANCE", "V003-FU-CLASS", "V002-FU-CONFLICT"]);
        // The conflict names the op that claimed the cell first.
        assert!(matches!(
            s.violations(&g, &m)[2],
            Violation::FuConflict { first: OpId(0), second: OpId(2), slot: Some(0), .. }
        ));
        assert_eq!(s.validate(&g, &m), Err(s.violations(&g, &m)[0].clone()));
    }
}
