//! The unified violation taxonomy shared by the static verifier and the
//! simulator.
//!
//! [`vliw_sched::ScheduleViolation`] (static validation) and
//! [`vliw_sim::SimViolation`] (dynamic observation) describe the same defects
//! from two vantage points.  [`Violation`] merges both vocabularies into one
//! enum with a **stable lint code** per defect class (`V001-DEP-DISTANCE`, …),
//! a [`Severity`], and whatever provenance each side can offer: the static
//! checker names ops, modulo slots and queues; the simulator adds the cycle and
//! iteration at which it caught the defect in the act.  `From` conversions lift
//! every legacy violation (and [`vliw_sim::SimSetupError`]) into the shared
//! form, so differential tests compare lint codes instead of matching two
//! unrelated enums structurally.

use std::fmt;
use std::io;

use serde::{de, json, Deserialize, Serialize, Value};
use vliw_ddg::OpId;
use vliw_machine::{ClusterId, FuId};
use vliw_sched::ScheduleViolation;
use vliw_sim::{SimRun, SimSetupError, SimViolation};

/// How bad a violation is.
///
/// Schedule defects are always [`Severity::Error`]: the generated code is
/// wrong.  The queue-overflow classes are [`Severity::Warning`]: the schedule
/// keeps every promise it made, but the loop's values exceed the machine's
/// storage — machine-sizing data (Fig. 7), not a compiler bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// The schedule or allocation is wrong.
    Error,
    /// The schedule is sound but does not fit the machine's storage.
    Warning,
}

/// A defect in a schedule or queue allocation, found statically or dynamically.
///
/// Optional `cycle` / `iteration` fields carry the simulator's provenance and
/// stay `None` when the defect was proved analytically (the static verifier
/// indicts the *schedule*, which has no cycles, only modulo slots).
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
        /// Cycle at which the operand becomes ready, when the simulator knows.
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
    /// A ring link's communication queues need more values than they can store.
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
    /// A value flows between clusters that are not adjacent on the ring, for
    /// which the machine has no communication path.
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
    /// A queue needs more depth than its allocation declared
    /// ([`vliw_qrf::QueueAllocation::queue_depths`] under-promises).
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
    /// The queue allocation does not describe this graph's value-carrying flow
    /// edges (wrong lifetime count or an index out of range).
    BadQueueMap {
        /// Value-carrying flow edges in the graph.
        expected_edges: usize,
        /// Lifetimes covered by the allocation.
        actual_edges: usize,
    },
}

impl Violation {
    /// The stable lint code of this violation class — the vocabulary the
    /// static verifier, the simulator and the differential tests share.
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

    /// Severity of this violation class (see [`Severity`]).
    pub fn severity(&self) -> Severity {
        match self {
            Violation::PrivateOverflow { .. } | Violation::CommOverflow { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// True if the violation indicts the **schedule** (or the allocation's
    /// structure) rather than the machine's storage sizing — the unified
    /// spelling of [`SimViolation::is_schedule_fault`].  The overflow and
    /// queue-depth classes are **capacity faults**: the schedule keeps its
    /// promises but the values outgrow the storage budget.
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
                    "ring link {from} -> {to} held {occupancy} values at cycle {c}, \
                     capacity is {capacity}"
                ),
                None => write!(
                    f,
                    "ring link {from} -> {to} needs {occupancy} values at steady state, \
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
            Violation::ZeroIi => write!(f, "cannot verify a schedule with II = 0"),
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

impl From<ScheduleViolation> for Violation {
    fn from(v: ScheduleViolation) -> Self {
        match v {
            ScheduleViolation::WrongLength { expected, actual } => {
                Violation::WrongLength { expected, actual }
            }
            ScheduleViolation::DependenceViolated { src, dst } => {
                Violation::DepDistance { src, dst, iteration: None, cycle: None, ready_at: None }
            }
            ScheduleViolation::ResourceConflict { a, b, fu, slot } => {
                Violation::FuConflict { first: a, second: b, fu, slot: Some(slot), cycle: None }
            }
            ScheduleViolation::WrongFuClass { op, fu } => Violation::WrongFuClass { op, fu },
            ScheduleViolation::UnknownFu { op, fu } => Violation::UnknownFu { op, fu },
        }
    }
}

impl From<SimViolation> for Violation {
    fn from(v: SimViolation) -> Self {
        match v {
            SimViolation::OperandNotReady { src, dst, iteration, cycle, ready_at } => {
                Violation::DepDistance {
                    src,
                    dst,
                    iteration: Some(iteration),
                    cycle: Some(cycle),
                    ready_at,
                }
            }
            SimViolation::FuConflict { fu, cycle, first, second } => {
                Violation::FuConflict { first, second, fu, slot: None, cycle: Some(cycle) }
            }
            SimViolation::WrongFuClass { op, fu } => Violation::WrongFuClass { op, fu },
            SimViolation::PrivateQueueOverflow { cluster, cycle, occupancy, capacity } => {
                Violation::PrivateOverflow { cluster, occupancy, capacity, cycle: Some(cycle) }
            }
            SimViolation::CommQueueOverflow { from, to, cycle, occupancy, capacity } => {
                Violation::CommOverflow { from, to, occupancy, capacity, cycle: Some(cycle) }
            }
            SimViolation::NonAdjacentCommunication { src, dst, from, to } => {
                Violation::NonAdjacent { src, dst, from, to }
            }
        }
    }
}

impl From<SimSetupError> for Violation {
    fn from(e: SimSetupError) -> Self {
        match e {
            SimSetupError::WrongLength { expected, actual } => {
                Violation::WrongLength { expected, actual }
            }
            SimSetupError::ZeroIi => Violation::ZeroIi,
            SimSetupError::UnknownFu { op, fu } => Violation::UnknownFu { op, fu },
            SimSetupError::BadQueueMap { expected_edges, actual_edges } => {
                Violation::BadQueueMap { expected_edges, actual_edges }
            }
        }
    }
}

/// Lifts a dynamic run's findings into the unified taxonomy.
///
/// The recorded [`SimViolation`]s convert directly; when `declared_depths` is
/// supplied (the allocator's [`vliw_qrf::QueueAllocation::queue_depths`] for
/// the [`vliw_sim::QueueMap`] the run was given), any physical queue whose
/// observed peak exceeds its declared depth additionally reports
/// `V009-QUEUE-DEPTH` — the dynamic counterpart of the static verifier's
/// per-queue cross-check.
pub fn violations_of_run(run: &SimRun, declared_depths: Option<&[usize]>) -> Vec<Violation> {
    let mut out: Vec<Violation> = run.violations.iter().cloned().map(Violation::from).collect();
    if let Some(depths) = declared_depths {
        for (queue, (&peak, &declared)) in
            run.measurement.peak_queue_occupancy.iter().zip(depths).enumerate()
        {
            if peak > declared {
                out.push(Violation::QueueDepthMismatch { queue, required: peak, declared });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Wire form.  The vendored serde derive only covers named-field structs and
// C-like enums, so the tagged union is serialized by hand:
// `{"code": "V001-DEP-DISTANCE", "severity": "Error", ...fields}`.  The lint
// code doubles as the wire tag; `severity` is informational (recomputed from
// the variant on the way back in).
// ---------------------------------------------------------------------------

impl Serialize for Violation {
    fn write_json(&self, w: &mut json::Writer<'_>) -> io::Result<()> {
        w.object(|o| {
            o.field("code", self.code())?;
            o.field("severity", &self.severity())?;
            match self {
                Violation::DepDistance { src, dst, iteration, cycle, ready_at } => {
                    o.field("src", &src.0)?;
                    o.field("dst", &dst.0)?;
                    o.field("iteration", iteration)?;
                    o.field("cycle", cycle)?;
                    o.field("ready_at", ready_at)
                }
                Violation::FuConflict { first, second, fu, slot, cycle } => {
                    o.field("first", &first.0)?;
                    o.field("second", &second.0)?;
                    o.field("fu", &fu.0)?;
                    o.field("slot", slot)?;
                    o.field("cycle", cycle)
                }
                Violation::WrongFuClass { op, fu } | Violation::UnknownFu { op, fu } => {
                    o.field("op", &op.0)?;
                    o.field("fu", &fu.0)
                }
                Violation::WrongLength { expected, actual } => {
                    o.field("expected", expected)?;
                    o.field("actual", actual)
                }
                Violation::PrivateOverflow { cluster, occupancy, capacity, cycle } => {
                    o.field("cluster", &cluster.0)?;
                    o.field("occupancy", occupancy)?;
                    o.field("capacity", capacity)?;
                    o.field("cycle", cycle)
                }
                Violation::CommOverflow { from, to, occupancy, capacity, cycle } => {
                    o.field("from", &from.0)?;
                    o.field("to", &to.0)?;
                    o.field("occupancy", occupancy)?;
                    o.field("capacity", capacity)?;
                    o.field("cycle", cycle)
                }
                Violation::NonAdjacent { src, dst, from, to } => {
                    o.field("src", &src.0)?;
                    o.field("dst", &dst.0)?;
                    o.field("from", &from.0)?;
                    o.field("to", &to.0)
                }
                Violation::QueueDepthMismatch { queue, required, declared } => {
                    o.field("queue", queue)?;
                    o.field("required", required)?;
                    o.field("declared", declared)
                }
                Violation::CopyBusOversubscribed { cluster, slot, copies, units } => {
                    o.field("cluster", &cluster.0)?;
                    o.field("slot", slot)?;
                    o.field("copies", copies)?;
                    o.field("units", units)
                }
                Violation::ZeroIi => Ok(()),
                Violation::BadQueueMap { expected_edges, actual_edges } => {
                    o.field("expected_edges", expected_edges)?;
                    o.field("actual_edges", actual_edges)
                }
            }
        })
    }
}

fn op_field(entries: &[(String, Value)], name: &str) -> Result<OpId, de::Error> {
    de::field::<u64>(entries, name).map(|x| OpId(x as u32))
}

fn fu_field(entries: &[(String, Value)], name: &str) -> Result<FuId, de::Error> {
    de::field::<u64>(entries, name).map(|x| FuId(x as u32))
}

fn cluster_field(entries: &[(String, Value)], name: &str) -> Result<ClusterId, de::Error> {
    de::field::<u64>(entries, name).map(|x| ClusterId(x as u32))
}

fn usize_field(entries: &[(String, Value)], name: &str) -> Result<usize, de::Error> {
    de::field::<u64>(entries, name).map(|x| x as usize)
}

impl Deserialize for Violation {
    fn deserialize(v: &Value) -> Result<Self, de::Error> {
        let entries = v.as_object().ok_or_else(|| de::Error::unexpected("object", v))?;
        let code: String = de::field(entries, "code")?;
        match code.as_str() {
            "V001-DEP-DISTANCE" => Ok(Violation::DepDistance {
                src: op_field(entries, "src")?,
                dst: op_field(entries, "dst")?,
                iteration: de::field(entries, "iteration")?,
                cycle: de::field(entries, "cycle")?,
                ready_at: de::field(entries, "ready_at")?,
            }),
            "V002-FU-CONFLICT" => Ok(Violation::FuConflict {
                first: op_field(entries, "first")?,
                second: op_field(entries, "second")?,
                fu: fu_field(entries, "fu")?,
                slot: de::field::<Option<u64>>(entries, "slot")?.map(|x| x as u32),
                cycle: de::field(entries, "cycle")?,
            }),
            "V003-FU-CLASS" => Ok(Violation::WrongFuClass {
                op: op_field(entries, "op")?,
                fu: fu_field(entries, "fu")?,
            }),
            "V004-FU-UNKNOWN" => Ok(Violation::UnknownFu {
                op: op_field(entries, "op")?,
                fu: fu_field(entries, "fu")?,
            }),
            "V005-WRONG-LENGTH" => Ok(Violation::WrongLength {
                expected: usize_field(entries, "expected")?,
                actual: usize_field(entries, "actual")?,
            }),
            "V006-PRIVATE-OVERFLOW" => Ok(Violation::PrivateOverflow {
                cluster: cluster_field(entries, "cluster")?,
                occupancy: usize_field(entries, "occupancy")?,
                capacity: usize_field(entries, "capacity")?,
                cycle: de::field(entries, "cycle")?,
            }),
            "V007-COMM-OVERFLOW" => Ok(Violation::CommOverflow {
                from: cluster_field(entries, "from")?,
                to: cluster_field(entries, "to")?,
                occupancy: usize_field(entries, "occupancy")?,
                capacity: usize_field(entries, "capacity")?,
                cycle: de::field(entries, "cycle")?,
            }),
            "V008-NON-ADJACENT" => Ok(Violation::NonAdjacent {
                src: op_field(entries, "src")?,
                dst: op_field(entries, "dst")?,
                from: cluster_field(entries, "from")?,
                to: cluster_field(entries, "to")?,
            }),
            "V009-QUEUE-DEPTH" => Ok(Violation::QueueDepthMismatch {
                queue: usize_field(entries, "queue")?,
                required: usize_field(entries, "required")?,
                declared: usize_field(entries, "declared")?,
            }),
            "V010-COPY-BUS" => Ok(Violation::CopyBusOversubscribed {
                cluster: cluster_field(entries, "cluster")?,
                slot: de::field::<u64>(entries, "slot")? as u32,
                copies: usize_field(entries, "copies")?,
                units: usize_field(entries, "units")?,
            }),
            "V011-ZERO-II" => Ok(Violation::ZeroIi),
            "V012-QUEUE-MAP" => Ok(Violation::BadQueueMap {
                expected_edges: usize_field(entries, "expected_edges")?,
                actual_edges: usize_field(entries, "actual_edges")?,
            }),
            other => Err(de::Error::custom(format!("unknown lint code `{other}`"))),
        }
    }
}

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
        codes.dedup();
        // The two DepDistance and two FuConflict spellings share their codes.
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 12, "12 distinct lint codes");
        assert!(unique.iter().all(|c| c.starts_with('V')));
    }

    #[test]
    fn display_leads_with_the_code_and_names_the_actors() {
        let v = Violation::DepDistance {
            src: OpId(0),
            dst: OpId(1),
            iteration: None,
            cycle: None,
            ready_at: None,
        };
        let s = v.to_string();
        assert!(s.starts_with("[V001-DEP-DISTANCE]"), "{s}");
        assert!(s.contains("op0") && s.contains("op1"), "{s}");
        for v in every_violation() {
            let s = v.to_string();
            assert!(s.starts_with(&format!("[{}]", v.code())), "{s}");
        }
    }

    #[test]
    fn schedule_violations_convert_with_their_codes() {
        let cases: Vec<(ScheduleViolation, &str)> = vec![
            (ScheduleViolation::WrongLength { expected: 2, actual: 1 }, "V005-WRONG-LENGTH"),
            (
                ScheduleViolation::DependenceViolated { src: OpId(0), dst: OpId(1) },
                "V001-DEP-DISTANCE",
            ),
            (
                ScheduleViolation::ResourceConflict {
                    a: OpId(0),
                    b: OpId(1),
                    fu: FuId(2),
                    slot: 3,
                },
                "V002-FU-CONFLICT",
            ),
            (ScheduleViolation::WrongFuClass { op: OpId(0), fu: FuId(1) }, "V003-FU-CLASS"),
            (ScheduleViolation::UnknownFu { op: OpId(0), fu: FuId(9) }, "V004-FU-UNKNOWN"),
        ];
        for (v, code) in cases {
            assert_eq!(Violation::from(v).code(), code);
        }
    }

    #[test]
    fn sim_violations_convert_with_their_codes_and_provenance() {
        let v = Violation::from(SimViolation::OperandNotReady {
            src: OpId(0),
            dst: OpId(1),
            iteration: 3,
            cycle: 7,
            ready_at: Some(9),
        });
        assert_eq!(v.code(), "V001-DEP-DISTANCE");
        assert!(matches!(v, Violation::DepDistance { cycle: Some(7), .. }));
        let v = Violation::from(SimViolation::FuConflict {
            fu: FuId(2),
            cycle: 4,
            first: OpId(0),
            second: OpId(1),
        });
        assert_eq!(v.code(), "V002-FU-CONFLICT");
        let v = Violation::from(SimViolation::PrivateQueueOverflow {
            cluster: ClusterId(1),
            cycle: 2,
            occupancy: 65,
            capacity: 64,
        });
        assert_eq!(v.code(), "V006-PRIVATE-OVERFLOW");
        assert_eq!(v.severity(), Severity::Warning);
        assert!(!v.is_schedule_fault());
        let v = Violation::from(SimViolation::NonAdjacentCommunication {
            src: OpId(0),
            dst: OpId(1),
            from: ClusterId(0),
            to: ClusterId(2),
        });
        assert_eq!(v.code(), "V008-NON-ADJACENT");
        assert!(v.is_schedule_fault());
    }

    #[test]
    fn setup_errors_convert_with_their_codes() {
        assert_eq!(
            Violation::from(SimSetupError::WrongLength { expected: 2, actual: 1 }).code(),
            "V005-WRONG-LENGTH"
        );
        assert_eq!(Violation::from(SimSetupError::ZeroIi).code(), "V011-ZERO-II");
        assert_eq!(
            Violation::from(SimSetupError::UnknownFu { op: OpId(0), fu: FuId(9) }).code(),
            "V004-FU-UNKNOWN"
        );
        assert_eq!(
            Violation::from(SimSetupError::BadQueueMap { expected_edges: 1, actual_edges: 0 })
                .code(),
            "V012-QUEUE-MAP"
        );
    }

    #[test]
    fn violations_round_trip_through_the_wire_form() {
        for v in every_violation() {
            let json = serde_json::to_string(&v).unwrap();
            let back: Violation = serde_json::from_str(&json).unwrap();
            assert_eq!(back, v, "{json}");
            assert!(json.contains(&format!("\"code\":\"{}\"", v.code())), "{json}");
        }
    }

    #[test]
    fn the_wire_form_is_pinned_per_variant() {
        // Written by the encoder that built a `Value` tree first; no golden
        // baseline holds a violation (the 32-loop corpus verifies clean).
        let expected = [
            r#"{"code":"V001-DEP-DISTANCE","severity":"Error","src":0,"dst":1,"iteration":3,"cycle":7,"ready_at":9}"#,
            r#"{"code":"V001-DEP-DISTANCE","severity":"Error","src":0,"dst":1,"iteration":null,"cycle":null,"ready_at":null}"#,
            r#"{"code":"V002-FU-CONFLICT","severity":"Error","first":0,"second":1,"fu":2,"slot":3,"cycle":null}"#,
            r#"{"code":"V002-FU-CONFLICT","severity":"Error","first":0,"second":1,"fu":2,"slot":null,"cycle":4}"#,
            r#"{"code":"V003-FU-CLASS","severity":"Error","op":5,"fu":0}"#,
            r#"{"code":"V004-FU-UNKNOWN","severity":"Error","op":5,"fu":95}"#,
            r#"{"code":"V005-WRONG-LENGTH","severity":"Error","expected":4,"actual":3}"#,
            r#"{"code":"V006-PRIVATE-OVERFLOW","severity":"Warning","cluster":1,"occupancy":65,"capacity":64,"cycle":null}"#,
            r#"{"code":"V007-COMM-OVERFLOW","severity":"Warning","from":0,"to":1,"occupancy":65,"capacity":64,"cycle":2}"#,
            r#"{"code":"V008-NON-ADJACENT","severity":"Error","src":0,"dst":1,"from":0,"to":2}"#,
            r#"{"code":"V009-QUEUE-DEPTH","severity":"Error","queue":3,"required":5,"declared":4}"#,
            r#"{"code":"V010-COPY-BUS","severity":"Error","cluster":0,"slot":2,"copies":3,"units":1}"#,
            r#"{"code":"V011-ZERO-II","severity":"Error"}"#,
            r#"{"code":"V012-QUEUE-MAP","severity":"Error","expected_edges":7,"actual_edges":5}"#,
        ];
        let wire: Vec<String> =
            every_violation().iter().map(|v| serde_json::to_string(v).unwrap()).collect();
        assert_eq!(wire, expected);
        let v = Violation::DepDistance {
            src: OpId(3),
            dst: OpId(7),
            iteration: Some(2),
            cycle: None,
            ready_at: Some(u64::MAX),
        };
        assert_eq!(
            serde_json::to_string_pretty(&v).unwrap(),
            "{\n  \"code\": \"V001-DEP-DISTANCE\",\n  \"severity\": \"Error\",\n  \"src\": 3,\
             \n  \"dst\": 7,\n  \"iteration\": 2,\n  \"cycle\": null,\
             \n  \"ready_at\": 18446744073709551615\n}"
        );
    }

    #[test]
    fn unknown_codes_are_rejected() {
        assert!(serde_json::from_str::<Violation>("{\"code\": \"V099-MADE-UP\"}").is_err());
        assert!(serde_json::from_str::<Violation>("{\"severity\": \"Error\"}").is_err());
        assert!(serde_json::from_str::<Violation>("[3]").is_err());
    }

    #[test]
    fn severity_splits_schedule_from_capacity() {
        for v in every_violation() {
            if matches!(v, Violation::QueueDepthMismatch { .. }) {
                // Allocation under-promising is an accounting error even though
                // it counts as a capacity fault.
                assert_eq!(v.severity(), Severity::Error);
                assert!(!v.is_schedule_fault());
            } else {
                assert_eq!(v.severity() == Severity::Warning, !v.is_schedule_fault());
            }
        }
    }
}
