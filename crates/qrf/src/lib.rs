//! Queue-register-file (QRF) register allocation for modulo-scheduled loops.
//!
//! This crate implements the storage-allocation side of the IPPS 1998 paper:
//!
//! * extraction of value **lifetimes** from a modulo schedule ([`lifetime`]);
//! * the **Q-Compatibility test** (Theorem 1.1) deciding when two lifetimes can share
//!   a hardware queue, plus a brute-force FIFO oracle used to validate it
//!   ([`qcompat`]);
//! * greedy **queue allocation** and queue-depth accounting ([`alloc`]);
//! * the **copy-insertion** pass that rewrites the dependence graph so every value
//!   has a single (destructive) reader ([`copyins`]);
//! * the conventional-register-file **MaxLive** baseline ([`rf`]).
//!
//! ```
//! use vliw_ddg::{kernels, LatencyModel};
//! use vliw_machine::Machine;
//! use vliw_sched::{modulo_schedule, ImsOptions};
//! use vliw_qrf::{insert_copies, use_lifetimes, allocate_queues};
//!
//! let lat = LatencyModel::default();
//! let lp = kernels::wide_parallel(lat, 100);
//! let machine = Machine::single_cluster(6, 2, 32, lat);
//!
//! // Rewrite multi-consumer values through copy operations, then schedule and
//! // allocate queues.
//! let rewritten = insert_copies(&lp.ddg, &lat);
//! let sched = modulo_schedule(&rewritten.ddg, &machine, ImsOptions::default()).unwrap();
//! let lts = use_lifetimes(&rewritten.ddg, &sched.schedule);
//! let queues = allocate_queues(&lts, sched.schedule.ii);
//! assert!(queues.num_queues() >= 1);
//! ```

pub mod alloc;
pub mod copyins;
pub mod interfere;
pub mod lifetime;
pub mod qcompat;
pub mod rf;

pub use alloc::{allocate_queues, queues_required, QueueAllocation};
pub use copyins::{copies_needed, insert_copies, CopyInsertion};
pub use interfere::InterferenceSigs;
pub use lifetime::{max_live, max_live_indexed, use_lifetimes, value_lifetimes, Lifetime};
pub use qcompat::{
    compatible_with_all, fifo_compatible, q_compatible, q_compatible_interval, q_compatible_reduced,
};
pub use rf::conventional_registers_required;

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, LatencyModel};
    use vliw_machine::Machine;
    use vliw_sched::{modulo_schedule, ImsOptions};

    #[test]
    fn end_to_end_queue_allocation_of_all_kernels() {
        let lat = LatencyModel::default();
        let machine = Machine::single_cluster(6, 2, 32, lat);
        for l in kernels::all_kernels(lat) {
            let rewritten = insert_copies(&l.ddg, &lat);
            let sched = modulo_schedule(&rewritten.ddg, &machine, ImsOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", l.name));
            let lts = use_lifetimes(&rewritten.ddg, &sched.schedule);
            let queues = allocate_queues(&lts, sched.schedule.ii);
            assert!(queues.num_queues() >= 1, "{}", l.name);
            assert!(queues.num_queues() <= 32, "{} needs too many queues", l.name);
        }
    }
}
