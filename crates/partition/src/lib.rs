//! Partitioned modulo scheduling for clustered VLIW machines — the primary
//! contribution of *Partitioned Schedules for Clustered VLIW Architectures*
//! (Fernandes, Llosa & Topham, IPPS 1998).
//!
//! The partitioner extends iterative modulo scheduling with per-operation cluster
//! assignment under the machine's ring-communication constraint (values may only move
//! between adjacent clusters), backtracking out of communication conflicts and
//! escalating the II when the placement budget runs out.  It is `vliw-sched`'s
//! II search run over two windows — the ring window, then a single-cluster
//! collapse — and returns the same `ScheduleResult` plain IMS does.  The
//! communication analysis ([`comm_stats`]) then reports how many private and
//! ring queues the schedule needs, reproducing the cluster-sizing data behind
//! Fig. 7; the pipeline runs it beside its machine-wide queue allocation, so
//! the partitioner itself allocates no storage.
//!
//! ```
//! use vliw_ddg::{kernels, LatencyModel};
//! use vliw_machine::Machine;
//! use vliw_partition::{comm_stats, partition_schedule, PartitionOptions};
//!
//! let lp = kernels::daxpy(LatencyModel::default(), 500);
//! let machine = Machine::paper_clustered(4, LatencyModel::default());
//! let result = partition_schedule(&lp.ddg, &machine, PartitionOptions::default()).unwrap();
//! assert!(result.schedule.validate(&lp.ddg, &machine).is_ok());
//! assert!(comm_stats(&lp.ddg, &machine, &result.schedule).fits_pools(&machine));
//! ```

pub mod comm;
pub mod scheduler;

pub use comm::{comm_stats, CommStats};
pub use scheduler::{partition_schedule, PartitionOptions};

// Re-export the shared error type so downstream users need a single import.
pub use vliw_sched::SchedError;

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, LatencyModel};
    use vliw_machine::Machine;

    #[test]
    fn doc_example_runs() {
        let lp = kernels::daxpy(LatencyModel::default(), 500);
        let machine = Machine::paper_clustered(4, LatencyModel::default());
        let result = partition_schedule(&lp.ddg, &machine, PartitionOptions::default()).unwrap();
        assert!(result.schedule.validate(&lp.ddg, &machine).is_ok());
        assert!(comm_stats(&lp.ddg, &machine, &result.schedule).fits_pools(&machine));
    }
}
