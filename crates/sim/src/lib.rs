//! Cycle-accurate simulation of modulo-scheduled loop kernels.
//!
//! The rest of the workspace *derives* the paper's headline numbers: dynamic IPC
//! comes from the closed form `ops·N / ((SC−1+N)·II)` and schedules are checked
//! statically ([`vliw_sched::Schedule::validate`]).  This crate *executes* them.
//! [`simulate`] expands a [`vliw_sched::Schedule`] into its prologue /
//! steady-state kernel / epilogue issue slots for a finite trip count ([`expand`])
//! and steps the result cycle by cycle on the [`vliw_machine::Machine`] model:
//!
//! * **per-FU issue** — every functional unit accepts at most one operation per
//!   cycle, and only operations of its class;
//! * **latency-accurate operand readiness** — a consumer may only issue once the
//!   producing instance's result is `latency` cycles old, checked against the
//!   *observed* issue record, not the schedule's promise;
//! * **queue register file occupancy** — every value use is enqueued in its
//!   producer cluster's QRF (or, for cross-cluster flows, in the communication
//!   queues of its directed link, one pool per entry of
//!   [`vliw_machine::Machine::link_table`]) at the producer's issue cycle and
//!   destructively dequeued at its consumer's read, with occupancy
//!   capacity-checked against the [`vliw_machine::ClusterConfig`] /
//!   [`vliw_machine::RingConfig`] budgets;
//! * **explicit ring copy traffic** — the copy operations inserted by
//!   `vliw_qrf::copyins` execute on the dedicated copy units and their bus
//!   utilisation is measured.
//!
//! The simulator is simultaneously a **dynamic verifier** — any runtime
//! dependence violation, FU double-booking, class mismatch, queue overflow or
//! non-adjacent value flow is recorded as a [`vliw_sched::Violation`] (the
//! vocabulary the static check and the verifier share) carrying the cycle and
//! iteration that caught it — and a **measurement engine** ([`SimMeasurement`]):
//! exact total cycles, simulated dynamic IPC, per-phase issue counts, peak
//! queue occupancy per cluster and per ring link, and copy-bus utilisation.
//!
//! ```
//! use vliw_ddg::{kernels, LatencyModel};
//! use vliw_machine::Machine;
//! use vliw_sched::{modulo_schedule, ImsOptions};
//! use vliw_sim::simulate;
//!
//! let lp = kernels::dot_product(LatencyModel::default(), 1000);
//! let machine = Machine::single_cluster(6, 2, 32, LatencyModel::default());
//! let r = modulo_schedule(&lp.ddg, &machine, ImsOptions::default()).unwrap();
//! let run = simulate(&lp.ddg, &machine, &r.schedule, 100).unwrap();
//! assert!(run.is_clean(), "a statically valid schedule executes cleanly");
//! assert_eq!(run.measurement.total_cycles, r.schedule.total_cycles(100));
//! ```

pub mod engine;
pub mod expand;
pub mod report;

pub use engine::{simulate, simulate_with_queue_map, QueueMap};
pub use expand::{issues_at, phase_of, sim_total_cycles, Phase};
pub use report::{SimMeasurement, SimRun, MAX_RECORDED_VIOLATIONS};
