//! The one defect vocabulary of the stack.
//!
//! The static schedule check ([`crate::Schedule::violations`]), the
//! cycle-accurate simulator (`vliw-sim`) and the flow-sensitive verifier
//! (`vliw-verify`) all report what they find as a [`Violation`]: one enum with
//! a **stable lint code** per defect class (`V001-DEP-DISTANCE`, …) and
//! whatever provenance the finder has.  The static checks name ops, modulo
//! slots and queues; the simulator adds the cycle and iteration at which it
//! caught the defect in the act.  Differential tests compare lint codes.

use std::fmt;

use vliw_ddg::OpId;
use vliw_machine::{ClusterId, FuId};

/// A defect in a schedule or queue allocation, found statically or dynamically.
///
/// Optional `cycle` / `iteration` fields carry the simulator's provenance and
/// stay `None` when the defect was proved analytically (the static checks
/// indict the *schedule*, which has no cycles, only modulo slots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A dependence edge is not honoured:
    /// `start(dst) + II·distance < start(src) + latency`.
    DepDistance {
        /// Producer.
        src: OpId,
        /// Consumer.
        dst: OpId,
        /// Consumer iteration at which the simulator observed the miss.
        iteration: Option<u64>,
        /// Cycle at which the simulator observed the miss.
        cycle: Option<u64>,
        /// Cycle at which the operand becomes ready, when the simulator knows
        /// (`None` if the producing instance had not issued at all).
        ready_at: Option<u64>,
    },
    /// Two operations occupy one functional unit at the same time (the same
    /// modulo slot statically, the same cycle dynamically).
    FuConflict {
        /// Operation scheduled (or issued) first.
        first: OpId,
        /// Operation that collided with it.
        second: OpId,
        /// Double-booked unit.
        fu: FuId,
        /// Shared modulo slot (static provenance).
        slot: Option<u32>,
        /// Cycle of the collision (dynamic provenance).
        cycle: Option<u64>,
    },
    /// An operation is assigned to a functional unit of the wrong class.
    WrongFuClass {
        /// Operation.
        op: OpId,
        /// Assigned unit.
        fu: FuId,
    },
    /// An operation is assigned to a functional unit that does not exist.
    UnknownFu {
        /// Operation.
        op: OpId,
        /// Assigned unit.
        fu: FuId,
    },
    /// The schedule does not cover every operation of the graph.
    WrongLength {
        /// Number of operations in the graph.
        expected: usize,
        /// Number of operations in the schedule.
        actual: usize,
    },
    /// A cluster's private QRF needs more values than its queues can store.
    PrivateOverflow {
        /// Overflowing cluster.
        cluster: ClusterId,
        /// Peak (static) or first-overflowing (dynamic) occupancy in values.
        occupancy: usize,
        /// Capacity in values (`private_queues · queue_capacity`).
        capacity: usize,
        /// Cycle at which the simulator first saw the overflow.
        cycle: Option<u64>,
    },
    /// A directed link's communication queues need more values than they can
    /// store.
    CommOverflow {
        /// Producing cluster of the directed link.
        from: ClusterId,
        /// Consuming cluster of the directed link.
        to: ClusterId,
        /// Peak (static) or first-overflowing (dynamic) occupancy in values.
        occupancy: usize,
        /// Capacity in values (`queues_per_direction · queue_capacity`).
        capacity: usize,
        /// Cycle at which the simulator first saw the overflow.
        cycle: Option<u64>,
    },
    /// A value flows between clusters that are not adjacent on the machine's
    /// interconnect, so it has no communication path (Section 4 of the paper).
    NonAdjacent {
        /// Producing operation.
        src: OpId,
        /// Consuming operation.
        dst: OpId,
        /// Producer's cluster.
        from: ClusterId,
        /// Consumer's cluster.
        to: ClusterId,
    },
    /// A queue needs more depth than its allocation declared (the allocation's
    /// `queue_depths` under-promise).
    QueueDepthMismatch {
        /// Queue id within the allocation.
        queue: usize,
        /// Depth the lifetimes actually require (static recount or observed
        /// dynamic peak).
        required: usize,
        /// Depth the allocation declared.
        declared: usize,
    },
    /// A modulo slot issues more copy operations in one cluster than the
    /// cluster has copy units — the copy bus cannot sustain the schedule.
    CopyBusOversubscribed {
        /// Oversubscribed cluster.
        cluster: ClusterId,
        /// Modulo slot of the oversubscription.
        slot: u32,
        /// Copy operations issuing in that slot.
        copies: usize,
        /// Copy units available.
        units: usize,
    },
    /// The schedule's initiation interval is zero; nothing can be checked.
    ZeroIi,
    /// The queue allocation (or the simulator's queue map) does not describe
    /// this graph's value-carrying flow edges (wrong count or an index out of
    /// range).
    BadQueueMap {
        /// Value-carrying flow edges in the graph.
        expected_edges: usize,
        /// Edges covered by the allocation or map.
        actual_edges: usize,
    },
}

impl Violation {
    /// The stable lint code of this violation class — the vocabulary the
    /// static checks, the simulator and the differential tests share.
    pub fn code(&self) -> &'static str {
        match self {
            Violation::DepDistance { .. } => "V001-DEP-DISTANCE",
            Violation::FuConflict { .. } => "V002-FU-CONFLICT",
            Violation::WrongFuClass { .. } => "V003-FU-CLASS",
            Violation::UnknownFu { .. } => "V004-FU-UNKNOWN",
            Violation::WrongLength { .. } => "V005-WRONG-LENGTH",
            Violation::PrivateOverflow { .. } => "V006-PRIVATE-OVERFLOW",
            Violation::CommOverflow { .. } => "V007-COMM-OVERFLOW",
            Violation::NonAdjacent { .. } => "V008-NON-ADJACENT",
            Violation::QueueDepthMismatch { .. } => "V009-QUEUE-DEPTH",
            Violation::CopyBusOversubscribed { .. } => "V010-COPY-BUS",
            Violation::ZeroIi => "V011-ZERO-II",
            Violation::BadQueueMap { .. } => "V012-QUEUE-MAP",
        }
    }

    /// True if the violation indicts the **schedule** (or the allocation's
    /// structure): a missed dependence, a double-booked, wrong-class or
    /// nonexistent unit, a value placed on clusters with no communication
    /// path.  A schedule from either scheduler must never produce one.
    ///
    /// The overflow and queue-depth classes are **capacity faults** instead:
    /// the schedule keeps every promise it made, but the loop's values outgrow
    /// the machine's storage — the population Fig. 7's "fits the cluster
    /// budget" fraction measures, machine-sizing data rather than a bug.
    pub fn is_schedule_fault(&self) -> bool {
        !matches!(
            self,
            Violation::PrivateOverflow { .. }
                | Violation::CommOverflow { .. }
                | Violation::QueueDepthMismatch { .. }
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            Violation::DepDistance { src, dst, iteration, cycle, ready_at } => {
                match (iteration, cycle) {
                    (Some(k), Some(c)) => match ready_at {
                        Some(ready) => write!(
                            f,
                            "{dst} (iteration {k}) issued at cycle {c} but its operand \
                             from {src} is only ready at cycle {ready}"
                        ),
                        None => write!(
                            f,
                            "{dst} (iteration {k}) issued at cycle {c} before its \
                             producer {src} issued at all"
                        ),
                    },
                    _ => write!(f, "dependence {src} -> {dst} violated"),
                }
            }
            Violation::FuConflict { first, second, fu, slot, cycle } => match (slot, cycle) {
                (_, Some(c)) => {
                    write!(f, "{first} and {second} both issued on {fu} at cycle {c}")
                }
                (Some(s), None) => {
                    write!(f, "operations {first} and {second} both use {fu} at modulo slot {s}")
                }
                (None, None) => write!(f, "operations {first} and {second} both use {fu}"),
            },
            Violation::WrongFuClass { op, fu } => {
                write!(f, "operation {op} assigned to {fu} of the wrong class")
            }
            Violation::UnknownFu { op, fu } => {
                write!(f, "operation {op} assigned to nonexistent {fu}")
            }
            Violation::WrongLength { expected, actual } => {
                write!(f, "schedule covers {actual} operations, graph has {expected}")
            }
            Violation::PrivateOverflow { cluster, occupancy, capacity, cycle } => match cycle {
                Some(c) => write!(
                    f,
                    "{cluster} QRF held {occupancy} values at cycle {c}, capacity is {capacity}"
                ),
                None => write!(
                    f,
                    "{cluster} QRF needs {occupancy} values at steady state, \
                     capacity is {capacity}"
                ),
            },
            Violation::CommOverflow { from, to, occupancy, capacity, cycle } => match cycle {
                Some(c) => write!(
                    f,
                    "link {from} -> {to} held {occupancy} values at cycle {c}, \
                     capacity is {capacity}"
                ),
                None => write!(
                    f,
                    "link {from} -> {to} needs {occupancy} values at steady state, \
                     capacity is {capacity}"
                ),
            },
            Violation::NonAdjacent { src, dst, from, to } => {
                write!(f, "value {src} -> {dst} flows between non-adjacent clusters {from} -> {to}")
            }
            Violation::QueueDepthMismatch { queue, required, declared } => {
                write!(
                    f,
                    "queue {queue} needs depth {required} but the allocation \
                     declared {declared}"
                )
            }
            Violation::CopyBusOversubscribed { cluster, slot, copies, units } => {
                write!(
                    f,
                    "{cluster} issues {copies} copy operations at modulo slot {slot} \
                     but has only {units} copy units"
                )
            }
            Violation::ZeroIi => write!(f, "a schedule with II = 0 cannot be checked"),
            Violation::BadQueueMap { expected_edges, actual_edges } => {
                write!(
                    f,
                    "allocation covers {actual_edges} lifetimes, graph has \
                     {expected_edges} value-carrying flow edges"
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_violation() -> Vec<Violation> {
        vec![
            Violation::DepDistance {
                src: OpId(0),
                dst: OpId(1),
                iteration: Some(3),
                cycle: Some(7),
                ready_at: Some(9),
            },
            Violation::DepDistance {
                src: OpId(0),
                dst: OpId(1),
                iteration: Some(3),
                cycle: Some(7),
                ready_at: None,
            },
            Violation::DepDistance {
                src: OpId(0),
                dst: OpId(1),
                iteration: None,
                cycle: None,
                ready_at: None,
            },
            Violation::FuConflict {
                first: OpId(0),
                second: OpId(1),
                fu: FuId(2),
                slot: Some(3),
                cycle: None,
            },
            Violation::FuConflict {
                first: OpId(0),
                second: OpId(1),
                fu: FuId(2),
                slot: None,
                cycle: Some(4),
            },
            Violation::WrongFuClass { op: OpId(5), fu: FuId(0) },
            Violation::UnknownFu { op: OpId(5), fu: FuId(95) },
            Violation::WrongLength { expected: 4, actual: 3 },
            Violation::PrivateOverflow {
                cluster: ClusterId(1),
                occupancy: 65,
                capacity: 64,
                cycle: None,
            },
            Violation::PrivateOverflow {
                cluster: ClusterId(1),
                occupancy: 65,
                capacity: 64,
                cycle: Some(2),
            },
            Violation::CommOverflow {
                from: ClusterId(0),
                to: ClusterId(1),
                occupancy: 65,
                capacity: 64,
                cycle: Some(2),
            },
            Violation::NonAdjacent {
                src: OpId(0),
                dst: OpId(1),
                from: ClusterId(0),
                to: ClusterId(2),
            },
            Violation::QueueDepthMismatch { queue: 3, required: 5, declared: 4 },
            Violation::CopyBusOversubscribed {
                cluster: ClusterId(0),
                slot: 2,
                copies: 3,
                units: 1,
            },
            Violation::ZeroIi,
            Violation::BadQueueMap { expected_edges: 7, actual_edges: 5 },
        ]
    }

    #[test]
    fn codes_are_stable_and_unique_per_class() {
        let mut codes: Vec<&str> = every_violation().iter().map(|v| v.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        // The spellings of one variant share its code.
        assert_eq!(codes.len(), 12, "12 distinct lint codes");
        assert!(codes.iter().all(|c| c.starts_with('V')));
    }

    #[test]
    fn display_leads_with_the_code_and_names_the_actors() {
        for v in every_violation() {
            let s = v.to_string();
            assert!(s.starts_with(&format!("[{}] ", v.code())), "{s}");
        }
        // The static spellings name modulo slots, never cycles.
        let dep = every_violation()[2].to_string();
        assert_eq!(dep, "[V001-DEP-DISTANCE] dependence op0 -> op1 violated");
        let conflict = every_violation()[3].to_string();
        assert!(conflict.contains("fu2") && conflict.contains("slot 3"), "{conflict}");
        assert!(every_violation()[1].to_string().contains("before"));
        assert!(every_violation()[11].to_string().contains("non-adjacent"));
    }

    #[test]
    fn display_messages_carry_the_actors() {
        // The simulator's spellings: cycle and iteration provenance.
        let v = Violation::DepDistance {
            src: OpId(0),
            dst: OpId(1),
            iteration: Some(3),
            cycle: Some(7),
            ready_at: Some(9),
        };
        assert_eq!(
            v.to_string(),
            "[V001-DEP-DISTANCE] op1 (iteration 3) issued at cycle 7 but its operand from op0 \
             is only ready at cycle 9"
        );
        let v = Violation::FuConflict {
            first: OpId(0),
            second: OpId(1),
            fu: FuId(2),
            slot: None,
            cycle: Some(4),
        };
        assert!(v.to_string().contains("fu2") && v.to_string().contains("cycle 4"), "{v}");
        let v = Violation::PrivateOverflow {
            cluster: ClusterId(1),
            occupancy: 65,
            capacity: 64,
            cycle: Some(2),
        };
        assert!(v.to_string().contains("cluster1") && v.to_string().contains("65"), "{v}");
        let v = Violation::CommOverflow {
            from: ClusterId(0),
            to: ClusterId(1),
            occupancy: 65,
            capacity: 64,
            cycle: None,
        };
        assert!(v.to_string().contains("cluster0 -> cluster1"), "{v}");
        assert!(v.to_string().contains("steady state"), "{v}");
    }

    #[test]
    fn sim_violations_convert_with_their_codes_and_provenance() {
        // The simulator's spellings: the code of the class, with the cycle and
        // iteration kept beside it rather than folded into the static form.
        let dynamic = Violation::DepDistance {
            src: OpId(0),
            dst: OpId(1),
            iteration: Some(3),
            cycle: Some(7),
            ready_at: Some(9),
        };
        let analytic = Violation::DepDistance {
            src: OpId(0),
            dst: OpId(1),
            iteration: None,
            cycle: None,
            ready_at: None,
        };
        assert_eq!(dynamic.code(), "V001-DEP-DISTANCE");
        assert_eq!(dynamic.code(), analytic.code());
        assert_ne!(dynamic, analytic);
        assert!(matches!(dynamic, Violation::DepDistance { cycle: Some(7), .. }));
        let v = Violation::FuConflict {
            first: OpId(0),
            second: OpId(1),
            fu: FuId(2),
            slot: None,
            cycle: Some(4),
        };
        assert_eq!(v.code(), "V002-FU-CONFLICT");
        assert!(v.is_schedule_fault());
        let v = Violation::PrivateOverflow {
            cluster: ClusterId(1),
            occupancy: 65,
            capacity: 64,
            cycle: Some(2),
        };
        assert_eq!(v.code(), "V006-PRIVATE-OVERFLOW");
        assert!(!v.is_schedule_fault());
        let v = Violation::NonAdjacent {
            src: OpId(0),
            dst: OpId(1),
            from: ClusterId(0),
            to: ClusterId(2),
        };
        assert_eq!(v.code(), "V008-NON-ADJACENT");
        assert!(v.is_schedule_fault());
    }

    #[test]
    fn setup_errors_convert_with_their_codes() {
        // `simulate` refuses malformed input with `Err(Violation)`; boxed as a
        // `dyn Error` the refusal still leads with its code.
        let cases = [
            (Violation::WrongLength { expected: 2, actual: 1 }, "V005-WRONG-LENGTH"),
            (Violation::ZeroIi, "V011-ZERO-II"),
            (Violation::UnknownFu { op: OpId(0), fu: FuId(9) }, "V004-FU-UNKNOWN"),
            (Violation::BadQueueMap { expected_edges: 1, actual_edges: 0 }, "V012-QUEUE-MAP"),
        ];
        for (v, code) in cases {
            assert_eq!(v.code(), code);
            let boxed: Box<dyn std::error::Error> = v.into();
            assert!(boxed.to_string().starts_with(&format!("[{code}] ")), "{boxed}");
        }
    }

    #[test]
    fn only_storage_classes_are_capacity_faults() {
        for v in every_violation() {
            let capacity = matches!(
                v.code(),
                "V006-PRIVATE-OVERFLOW" | "V007-COMM-OVERFLOW" | "V009-QUEUE-DEPTH"
            );
            assert_eq!(v.is_schedule_fault(), !capacity, "{v}");
        }
    }
}
