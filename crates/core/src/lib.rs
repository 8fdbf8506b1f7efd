//! `vliw-core` — the top-level library of the reproduction of *Partitioned Schedules
//! for Clustered VLIW Architectures* (Fernandes, Llosa & Topham, IPPS/SPDP 1998).
//!
//! The crate wires the substrates together and exposes:
//!
//! * the [`Compiler`] pipeline (unroll → copy insertion → modulo scheduling /
//!   partitioning → queue allocation → analysis) — see [`pipeline`];
//! * the [`session`] layer — a shared, concurrency-safe compilation session
//!   (corpus generated once, memoized per-(configuration, loop) artifacts, a
//!   work-stealing sweep executor) that every experiment driver runs through;
//! * the [`experiments`] drivers that regenerate every table and figure of the
//!   paper's evaluation on a synthetic Perfect-Club-like corpus;
//! * re-exports of all substrate crates under one roof, so applications only need a
//!   single dependency.
//!
//! # Quickstart
//!
//! ```
//! use vliw_core::pipeline::{Compiler, CompilerConfig};
//! use vliw_core::{kernels, LatencyModel, Machine};
//!
//! // A 4-cluster machine (12 compute FUs) with queue register files.
//! let machine = Machine::paper_clustered(4, LatencyModel::default());
//! let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
//!
//! let lp = kernels::dot_product(LatencyModel::default(), 1000);
//! let out = compiler.compile(&lp).unwrap();
//! println!("II = {}, stages = {}, queues = {}",
//!          out.ii(), out.stage_count, out.queues_required());
//! assert!(out.ii() >= out.mii);
//! ```

pub mod error;
pub mod experiments;
pub mod pipeline;
pub mod protocol;
pub mod session;

pub use error::VliwError;
pub use pipeline::{Compilation, Compiler, CompilerConfig};
pub use session::{
    compile_stream, CompilationKey, LoopSummary, Session, SessionBuilder, SessionCompiler,
    SessionStats, SimSummary, StreamConfig, StreamReport, VerifySummary,
};

// Re-export the substrate crates so downstream users (examples, benches, tests) can
// reach everything through `vliw_core::...`.
pub use vliw_analysis as analysis;
pub use vliw_bounds as bounds;
pub use vliw_ddg as ddg;
pub use vliw_loopgen as loopgen;
pub use vliw_machine as machine;
pub use vliw_obs as obs;
pub use vliw_partition as partition;
pub use vliw_qrf as qrf;
pub use vliw_sched as sched;
pub use vliw_sim as sim;
pub use vliw_unroll as unroll;
pub use vliw_verify as verify;

// Frequently used items, re-exported flat for convenience.
pub use vliw_ddg::{kernels, Ddg, DdgBuilder, LatencyModel, Loop, OpClass, OpId, OpKind};
pub use vliw_loopgen::{generate_corpus, CorpusConfig};
pub use vliw_machine::{
    copy_units_for, ClusterConfig, ClusterId, FuId, FuMix, Machine, MachineConfig, MachineSpace,
    RingConfig, SweepGrid, Topology,
};
pub use vliw_partition::{partition_schedule, CommStats, PartitionOptions};
pub use vliw_qrf::{allocate_queues, insert_copies, q_compatible, use_lifetimes, QueueAllocation};
pub use vliw_sched::{modulo_schedule, ImsOptions, SchedError, Schedule, ScheduleResult};
pub use vliw_sim::{simulate, SimMeasurement, SimRun};
pub use vliw_unroll::{ii_speedup, select_unroll_factor, unroll_ddg};
// `vliw_verify::verify` itself stays behind the module path (`verify::verify`)
// to avoid shadowing the module re-export above; the types come out flat.
pub use vliw_verify::{Fault, Verification, Violation, ALL_FAULTS};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_compiles_and_validates() {
        let machine = Machine::paper_clustered(4, LatencyModel::default());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        let lp = kernels::dot_product(LatencyModel::default(), 1000);
        let out = compiler.compile(&lp).unwrap();
        assert!(out.schedule.validate(&out.transformed, &machine).is_ok());
        assert!(out.ii() >= out.mii);
    }
}
