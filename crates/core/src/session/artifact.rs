//! Per-loop artifacts: the closed metric set the drivers consume.
//!
//! A full [`Compilation`] drags a [`vliw_ddg::Ddg`], a schedule and a queue
//! allocation along — structures that exist to be *recomputed*, not shipped.
//! Every experiment driver, however, consumes only a small closed set of
//! numbers per loop (II, stage count, IPC, queue maxima, communication
//! maxima), and the quantities derived from the schedule — total cycles,
//! dynamic IPC at a trip count, machine feasibility — all have closed forms
//! over those numbers.  [`LoopSummary`] captures exactly that set, which makes
//! it (a) serde-serializable for the persistent store and the wire, and
//! (b) sufficient for a warm daemon to answer every figure request with zero
//! cold compiles.  [`SimSummary`] is persisted the same way; [`VerifySummary`]
//! only lives in the session's memo.
//!
//! Consumers that genuinely need the full artifact (the cross-check tests
//! replaying a schedule through the simulator, the kernel benches) use the
//! session's `*_full` APIs instead, which memoise the unserialized
//! [`Compilation`] in process as before.

use serde::{Deserialize, Serialize};
use vliw_analysis::IpcReport;
use vliw_machine::Machine;
use vliw_partition::CommStats;
use vliw_sim::{SimMeasurement, SimRun};
use vliw_verify::Verification;

use crate::pipeline::Compilation;

/// The serializable summary of one compiled loop: everything the experiment
/// drivers read, nothing the pipeline would have to re-derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopSummary {
    /// Name of the source loop.
    pub loop_name: String,
    /// Unroll factor applied (1 = not unrolled).
    pub unroll_factor: u32,
    /// Number of copy operations inserted.
    pub num_copies: usize,
    /// Operations in the scheduled body (after unrolling and copy insertion).
    pub body_ops: usize,
    /// Initiation interval of the schedule.
    pub ii: u32,
    /// Resource-constrained lower bound.
    pub res_mii: u32,
    /// Recurrence-constrained lower bound.
    pub rec_mii: u32,
    /// `max(ResMII, RecMII)`.
    pub mii: u32,
    /// Stage count of the schedule.
    pub stage_count: u32,
    /// Static and dynamic issue rates of the compilation.
    pub ipc: IpcReport,
    /// Number of queues of the machine-wide allocation (Fig. 3's quantity).
    pub queues_required: usize,
    /// Largest queue depth of the machine-wide allocation.
    pub max_queue_depth: usize,
    /// Registers needed by a conventional register file (MaxLive baseline).
    pub registers_required: usize,
    /// Communication statistics; present only for clustered machines.
    pub comm: Option<CommStats>,
}

impl LoopSummary {
    /// The initiation interval (method form, mirroring [`Compilation::ii`]).
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Number of queues required (mirroring [`Compilation::queues_required`]).
    pub fn queues_required(&self) -> usize {
        self.queues_required
    }

    /// True if the scheduler achieved the MII lower bound.
    pub fn achieved_mii(&self) -> bool {
        self.ii == self.mii.max(1)
    }

    /// Exact cycle count of executing the schedule for `trip_count` body
    /// iterations — the closed form of [`vliw_sched::Schedule::total_cycles`]:
    /// `(SC − 1 + N) · II`, 0 for an empty schedule or zero iterations.
    pub fn total_cycles(&self, trip_count: u64) -> u64 {
        if self.body_ops == 0 || trip_count == 0 {
            return 0;
        }
        (u64::from(self.stage_count) - 1 + trip_count) * u64::from(self.ii)
    }

    /// Dynamic issue rate over `trip_count` body iterations — the closed form
    /// of [`vliw_analysis::dynamic_ipc`] over this summary's body size.
    pub fn dynamic_ipc_at(&self, trip_count: u64) -> f64 {
        if trip_count == 0 {
            return 0.0;
        }
        let total_ops = self.body_ops as u64 * trip_count;
        total_ops as f64 / self.total_cycles(trip_count) as f64
    }

    /// Pool-split storage feasibility on `machine` — the same dispatch as
    /// [`Compilation::fits_machine`], evaluated over the summarised maxima.
    pub fn fits_machine(&self, machine: &Machine) -> bool {
        match &self.comm {
            Some(comm) => comm.fits_pools(machine),
            None => {
                let cfg = machine.cluster(vliw_machine::ClusterId(0));
                self.queues_required <= cfg.private_queues
                    && self.max_queue_depth <= cfg.queue_capacity
            }
        }
    }
}

impl Compilation {
    /// Extracts the serializable summary of this compilation.
    pub fn summarize(&self) -> LoopSummary {
        LoopSummary {
            loop_name: self.loop_name.clone(),
            unroll_factor: self.unroll_factor,
            num_copies: self.num_copies,
            body_ops: self.transformed.num_ops(),
            ii: self.ii(),
            res_mii: self.res_mii,
            rec_mii: self.rec_mii,
            mii: self.mii,
            stage_count: self.stage_count,
            ipc: self.ipc,
            queues_required: self.queues.num_queues(),
            max_queue_depth: self.queues.max_queue_depth(),
            registers_required: self.registers_required,
            comm: self.comm.clone(),
        }
    }
}

/// The serializable summary of one simulation run: the full measurement plus
/// the fault totals.  The recorded [`vliw_verify::Violation`] details stay on
/// the in-process [`SimRun`] (they are a debugging aid, not a metric); the
/// summary keeps their count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// What the run measured.
    pub measurement: SimMeasurement,
    /// Total schedule faults observed.
    pub schedule_faults: u64,
    /// Total capacity faults observed.
    pub capacity_faults: u64,
    /// Number of violations recorded in detail by the run.
    pub recorded_violations: usize,
}

impl SimSummary {
    /// Total violations of both classes.
    pub fn total_violations(&self) -> u64 {
        self.schedule_faults + self.capacity_faults
    }

    /// True if the run completed without a single violation of any class.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// True if the schedule kept every promise it made (capacity overflows are
    /// a machine-sizing property, not a schedule fault).
    pub fn schedule_is_sound(&self) -> bool {
        self.schedule_faults == 0
    }
}

impl From<&SimRun> for SimSummary {
    fn from(run: &SimRun) -> Self {
        SimSummary {
            measurement: run.measurement.clone(),
            schedule_faults: run.schedule_faults,
            capacity_faults: run.capacity_faults,
            recorded_violations: run.violations.len(),
        }
    }
}

/// The summary of one static verification: the verdict counters and the
/// steady-state maxima the sweep classifiers read.  The session memoises it
/// in process per (sweep point, loop); unlike [`SimSummary`] it is neither
/// persisted nor sent on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifySummary {
    /// Violations indicting the schedule or allocation structure.
    pub schedule_faults: u64,
    /// Pool overflows and under-declared queue depths.
    pub capacity_faults: u64,
    /// Largest private-QRF steady-state peak over all clusters.
    pub max_private_peak: usize,
    /// Largest ring-link steady-state peak over all directed links.
    pub max_comm_peak: usize,
    /// Steady-state copy-bus utilisation.
    pub copy_bus_utilisation: f64,
}

impl VerifySummary {
    /// Total violations of both classes.
    pub fn total_violations(&self) -> u64 {
        self.schedule_faults + self.capacity_faults
    }

    /// True if every invariant proved out.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// True if the schedule keeps every promise it made (mirrors
    /// [`SimSummary::schedule_is_sound`]).
    pub fn schedule_is_sound(&self) -> bool {
        self.schedule_faults == 0
    }
}

impl From<&Verification> for VerifySummary {
    fn from(v: &Verification) -> Self {
        VerifySummary {
            schedule_faults: v.schedule_faults,
            capacity_faults: v.capacity_faults,
            max_private_peak: v.max_private_peak(),
            max_comm_peak: v.max_comm_peak(),
            copy_bus_utilisation: v.copy_bus_utilisation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Compiler, CompilerConfig};
    use vliw_analysis::dynamic_ipc;
    use vliw_ddg::{kernels, LatencyModel};

    fn lat() -> LatencyModel {
        LatencyModel::default()
    }

    #[test]
    fn summary_closed_forms_match_the_full_compilation() {
        for machine in [Machine::paper_single(6), Machine::paper_clustered(4, lat())] {
            let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
            for lp in kernels::all_kernels(lat()) {
                let c = compiler.compile(&lp).unwrap();
                let s = c.summarize();
                assert_eq!(s.ii(), c.ii());
                assert_eq!(s.queues_required(), c.queues_required());
                assert_eq!(s.achieved_mii(), c.achieved_mii());
                assert_eq!(s.body_ops, c.transformed.num_ops());
                for n in [0u64, 1, 10, 100, 1000] {
                    assert_eq!(s.total_cycles(n), c.schedule.total_cycles(n), "{} N={n}", lp.name);
                    let formula = dynamic_ipc(c.transformed.num_ops(), &c.schedule, n);
                    assert_eq!(s.dynamic_ipc_at(n), formula, "{} N={n}", lp.name);
                }
                assert_eq!(s.fits_machine(&machine), c.fits_machine(&machine), "{}", lp.name);
            }
        }
    }

    #[test]
    fn summary_round_trips_through_serde_losslessly() {
        let machine = Machine::paper_clustered(4, lat());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
        let lp = kernels::dot_product(lat(), 1000);
        let s = compiler.compile(&lp).unwrap().summarize();
        let v = s.serialize();
        let back = LoopSummary::deserialize(&v).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn sim_summary_mirrors_the_run_verdicts() {
        let machine = Machine::paper_single(6);
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        let lp = kernels::dot_product(lat(), 100);
        let c = compiler.compile(&lp).unwrap();
        let run = vliw_sim::simulate(&c.transformed, &machine, &c.schedule, 50).unwrap();
        let s = SimSummary::from(&run);
        assert_eq!(s.is_clean(), run.is_clean());
        assert_eq!(s.schedule_is_sound(), run.schedule_is_sound());
        assert_eq!(s.total_violations(), run.total_violations());
        assert_eq!(s.measurement, run.measurement);
        let back = SimSummary::deserialize(&s.serialize()).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn verify_summary_mirrors_the_verification() {
        let machine = Machine::paper_single(6);
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        let lp = kernels::dot_product(lat(), 100);
        let c = compiler.compile(&lp).unwrap();
        let v =
            vliw_verify::verify_with_allocation(&c.transformed, &machine, &c.schedule, &c.queues);
        let s = VerifySummary::from(&v);
        assert_eq!(s.is_clean(), v.is_clean());
        assert_eq!(s.schedule_is_sound(), v.schedule_is_sound());
        assert_eq!(s.total_violations(), v.total_violations());
        assert_eq!(s.max_private_peak, v.max_private_peak());
        assert_eq!(s.max_comm_peak, v.max_comm_peak());
        assert!(s.is_clean(), "paper machines verify clean");
    }
}
