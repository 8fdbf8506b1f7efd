//! Measurements and the overall result of one simulation run.

use serde::{Deserialize, Serialize};
use vliw_sched::Violation;

/// Cap on the number of [`Violation`]s recorded in detail per run; the total
/// count keeps accumulating past it.  A broken schedule violates the same
/// dependence once per iteration, so an uncapped list would be thousands of
/// copies of the same few defects.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// What one simulation run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimMeasurement {
    /// Number of iterations executed.
    pub trip_count: u64,
    /// Exact number of cycles the execution spanned (through the end of the II
    /// window containing the last issue).
    pub total_cycles: u64,
    /// Total operation instances issued (`ops · trip_count`).
    pub issued_ops: u64,
    /// Instances issued while the pipeline was filling.
    pub prologue_issues: u64,
    /// Instances issued at steady state.
    pub kernel_issues: u64,
    /// Instances issued while the pipeline drained.
    pub epilogue_issues: u64,
    /// Copy-operation instances issued (the inter-queue replication traffic).
    pub copy_ops_issued: u64,
    /// Observed dynamic issue rate: `issued_ops / total_cycles`.
    pub dynamic_ipc: f64,
    /// Peak number of values simultaneously resident in each cluster's private
    /// QRF, indexed by cluster.
    pub peak_private_occupancy: Vec<usize>,
    /// Peak number of values simultaneously resident on each directed
    /// interconnect link, indexed by `Machine::link_table` (empty for
    /// single-cluster machines).
    pub peak_comm_occupancy: Vec<usize>,
    /// Peak number of values simultaneously resident in each *physical* queue,
    /// indexed by the queue ids of the [`crate::engine::QueueMap`] the run was
    /// given; empty when the run had no queue map.  The execution-observed
    /// counterpart of the allocator's reported `queue_depths`.
    pub peak_queue_occupancy: Vec<usize>,
    /// Fraction of copy-unit issue slots actually used
    /// (`copy_ops_issued / (copy_units · total_cycles)`); 0 when the machine
    /// has no copy units or the execution spans no cycles.
    pub copy_bus_utilisation: f64,
}

impl SimMeasurement {
    /// The largest private-QRF peak occupancy over all clusters.
    pub fn max_private_peak(&self) -> usize {
        self.peak_private_occupancy.iter().copied().max().unwrap_or(0)
    }

    /// The largest communication-queue peak occupancy over all directed links.
    pub fn max_comm_peak(&self) -> usize {
        self.peak_comm_occupancy.iter().copied().max().unwrap_or(0)
    }
}

/// The result of simulating one schedule for one trip count: measurements plus
/// every violation the dynamic verifier observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// What the run measured.
    pub measurement: SimMeasurement,
    /// The first [`MAX_RECORDED_VIOLATIONS`] violations, in observation order
    /// (cycle, then issue order within the cycle).
    pub violations: Vec<Violation>,
    /// Total schedule faults observed (dependence, FU, class, adjacency — see
    /// [`Violation::is_schedule_fault`]), including ones past the recording
    /// cap.
    pub schedule_faults: u64,
    /// Total capacity faults observed (private-QRF or ring-queue overflow),
    /// including ones past the recording cap.
    pub capacity_faults: u64,
}

impl SimRun {
    /// Total violations of both classes.
    pub fn total_violations(&self) -> u64 {
        self.schedule_faults + self.capacity_faults
    }

    /// True if the run completed without a single violation of any class.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// True if the schedule kept every promise it made — the dynamic
    /// counterpart of [`vliw_sched::Schedule::validate`] returning `Ok`.  The
    /// loop's values may still exceed the machine's queue budget
    /// (`capacity_faults > 0`), which is a property of the machine sizing, not
    /// of the schedule.
    pub fn schedule_is_sound(&self) -> bool {
        self.schedule_faults == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_over_empty_tables_are_zero() {
        let m = SimMeasurement {
            trip_count: 0,
            total_cycles: 0,
            issued_ops: 0,
            prologue_issues: 0,
            kernel_issues: 0,
            epilogue_issues: 0,
            copy_ops_issued: 0,
            dynamic_ipc: 0.0,
            peak_private_occupancy: vec![],
            peak_comm_occupancy: vec![],
            peak_queue_occupancy: vec![],
            copy_bus_utilisation: 0.0,
        };
        assert_eq!(m.max_private_peak(), 0);
        assert_eq!(m.max_comm_peak(), 0);
        let run =
            SimRun { measurement: m, violations: vec![], schedule_faults: 0, capacity_faults: 0 };
        assert!(run.is_clean());
        assert!(run.schedule_is_sound());
        assert_eq!(run.total_violations(), 0);
    }
}
