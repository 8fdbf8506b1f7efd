//! Machine model for the clustered VLIW architecture of Fernandes, Llosa & Topham
//! (IPPS 1998).
//!
//! The model describes:
//!
//! * **Functional units** grouped into **clusters** — the paper's basic cluster has
//!   one load/store unit, one adder, one multiplier and a dedicated copy unit
//!   (Fig. 5a);
//! * **Queue register files (QRFs)** — each cluster owns a small private QRF
//!   (8 queues in the paper's final configuration, Fig. 7);
//! * the **bidirectional ring** of communication queues connecting adjacent clusters
//!   (Fig. 5b), through which all inter-cluster data transfers flow;
//! * per-opcode **latencies** (re-exported from `vliw-ddg`).
//!
//! The model is analytical: it provides the resource counts and adjacency relations
//! the scheduler, the queue allocator and the partitioner need, matching the
//! schedule-level abstraction at which the paper evaluates the architecture.
//!
//! ```
//! use vliw_machine::Machine;
//! use vliw_ddg::LatencyModel;
//!
//! let clustered = Machine::paper_clustered(4, LatencyModel::default());
//! assert_eq!(clustered.num_compute_fus(), 12);
//! let baseline = Machine::paper_single_cluster_equivalent(4, LatencyModel::default());
//! assert_eq!(baseline.num_compute_fus(), 12);
//! ```

pub mod cluster;
pub mod fu;
// The module is named after the crate's central type on purpose; renaming
// either side would only add stutter at every use site.
#[allow(clippy::module_inception)]
pub mod machine;
pub mod space;
pub mod topology;

pub use cluster::{ClusterConfig, RingConfig};
pub use fu::{ClusterId, Fu, FuId};
pub use machine::{copy_units_for, LinkTable, Machine};
pub use space::{FuMix, MachineConfig, MachineSpace, SweepGrid, VALUE_BITS};
pub use topology::{torus_rows, NeighbourMasks, Topology};

// Re-export the latency model so downstream crates need not depend on vliw-ddg just
// to configure a machine.
pub use vliw_ddg::LatencyModel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_machines() {
        let clustered = Machine::paper_clustered(4, LatencyModel::default());
        assert_eq!(clustered.num_compute_fus(), 12);
        let baseline = Machine::paper_single_cluster_equivalent(4, LatencyModel::default());
        assert_eq!(baseline.num_compute_fus(), 12);
    }
}
