//! Iterative modulo scheduling for (clustered) VLIW machines.
//!
//! This crate implements the software-pipelining substrate of the IPPS 1998 paper:
//! Rau's **Iterative Modulo Scheduling** (IMS) on top of a modulo reservation table,
//! plus the MII lower bounds (ResMII/RecMII), the height-based priority function,
//! and the static schedule check ([`Schedule::violations`]).  Its defects, and
//! every defect the simulator and the verifier find, are [`Violation`]s: one
//! vocabulary of stable lint codes for the whole stack.
//!
//! Both schedulers are one II search ([`IiSearch`]) over one placement engine
//! ([`core`]) and return one [`ScheduleResult`].  The engine runs the placement
//! loop (ready queue, window search, forced placement, eviction,
//! dependence-violation unscheduling) under a [`ClusterPolicy`]; the search
//! checks the body, computes its bounds and tries each II of a window, counting
//! attempts across windows.  Plain IMS searches one window under the
//! any-cluster policy.  The clustered *partitioning* extension lives in the
//! `vliw-partition` crate, which searches a ring window under its ring/affinity
//! policy and then, if that fails, a single-cluster collapse window.
//!
//! ```
//! use vliw_ddg::{kernels, LatencyModel};
//! use vliw_machine::Machine;
//! use vliw_sched::{modulo_schedule, ImsOptions};
//!
//! let lp = kernels::dot_product(LatencyModel::default(), 1000);
//! let machine = Machine::single_cluster(6, 2, 32, LatencyModel::default());
//! let result = modulo_schedule(&lp.ddg, &machine, ImsOptions::default()).unwrap();
//! assert!(result.schedule.validate(&lp.ddg, &machine).is_ok());
//! assert!(result.schedule.ii >= result.mii);
//! ```

pub mod core;
pub mod ims;
pub mod mii;
pub mod mrt;
pub mod priority;
pub mod schedule;
pub mod violation;

pub use core::{AnyClusterPolicy, ClusterPolicy, Eligibility, PlacementEngine};
pub use ims::{modulo_schedule, IiSearch, ImsOptions, ScheduleResult};
pub use mii::{has_positive_cycle, mii, rec_mii, res_mii, resource_bound};
pub use mrt::Mrt;
pub use priority::{height_r, height_r_into, priority_order};
pub use schedule::Schedule;
pub use violation::Violation;

use std::fmt;

use vliw_ddg::{DdgError, OpClass};

/// Errors reported by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The loop body is empty.
    EmptyGraph,
    /// The dependence graph is structurally invalid.
    InvalidGraph(DdgError),
    /// The graph contains operations of a class the machine has no unit for.
    NoFunctionalUnit {
        /// The missing class.
        class: OpClass,
    },
    /// No schedule was found before the II search limit.
    IiLimitReached {
        /// The largest II tried.
        limit: u32,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::EmptyGraph => write!(f, "cannot schedule an empty loop body"),
            SchedError::InvalidGraph(e) => write!(f, "invalid dependence graph: {e}"),
            SchedError::NoFunctionalUnit { class } => {
                write!(f, "the machine has no functional unit of class {class}")
            }
            SchedError::IiLimitReached { limit } => {
                write!(f, "no schedule found up to II = {limit}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_mention_the_cause() {
        assert!(SchedError::EmptyGraph.to_string().contains("empty"));
        assert!(SchedError::NoFunctionalUnit { class: OpClass::Copy }.to_string().contains("COPY"));
        assert!(SchedError::IiLimitReached { limit: 9 }.to_string().contains('9'));
        assert!(SchedError::InvalidGraph(DdgError::IntraIterationCycle)
            .to_string()
            .contains("cycle"));
    }
}
