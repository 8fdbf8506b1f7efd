//! Hand-built loop, end to end, with every intermediate artefact printed.
//!
//! ```text
//! cargo run --release --example dot_product
//! ```
//!
//! Unlike `quickstart`, which uses the high-level pipeline, this example drives the
//! substrate crates directly: it builds the dependence graph of
//! `y[i] = y[i] + alpha * x[i]` by hand, computes the MII bounds, runs iterative
//! modulo scheduling on a single-cluster machine and the partitioning scheduler on a
//! clustered machine, inserts copy operations, allocates queues with the
//! Q-compatibility test and compares against the conventional-register-file
//! baseline.  It is intended as a guided tour of the library's layers.

use vliw_core::analysis::{dynamic_ipc, static_ipc};
use vliw_core::ddg::{DdgBuilder, OpKind};
use vliw_core::partition::comm_stats;
use vliw_core::qrf::{
    allocate_queues, conventional_registers_required, insert_copies, use_lifetimes,
};
use vliw_core::sched::{modulo_schedule, rec_mii, res_mii, ImsOptions};
use vliw_core::{partition_schedule, LatencyModel, Machine, PartitionOptions};

fn main() {
    let lat = LatencyModel::default();

    // ---- 1. Build the DAXPY dependence graph by hand. --------------------------
    let mut b = DdgBuilder::new(lat);
    let load_x = b.op(OpKind::Load);
    let load_y = b.op(OpKind::Load);
    let mul = b.op(OpKind::Mul); // alpha * x[i]
    let add = b.op(OpKind::Add); // y[i] + alpha * x[i]
    let store = b.op(OpKind::Store); // y[i] = ...
    b.flow(load_x, mul);
    b.flow(load_y, add);
    b.flow(mul, add);
    b.flow(add, store);
    b.memory(load_y, store, 0);
    let lp = b.finish_loop("daxpy_by_hand", 10_000);
    println!("graph:\n{}", vliw_core::ddg::dot::to_dot(&lp.ddg, &lp.name));

    // ---- 2. Lower bounds and a single-cluster schedule. -------------------------
    let single = Machine::single_cluster(6, 2, 32, lat);
    println!("ResMII = {}, RecMII = {}", res_mii(&lp.ddg, &single).unwrap(), rec_mii(&lp.ddg));
    let ims = modulo_schedule(&lp.ddg, &single, ImsOptions::default()).unwrap();
    println!(
        "single cluster (6 FUs): II = {}, stage count = {}, static IPC = {:.2}, dynamic IPC = {:.2}",
        ims.schedule.ii,
        ims.schedule.stage_count(),
        static_ipc(lp.ops_per_iteration(), &ims.schedule),
        dynamic_ipc(lp.ops_per_iteration(), &ims.schedule, lp.trip_count),
    );
    println!(
        "conventional register file needs {} registers",
        conventional_registers_required(&lp.ddg, &ims.schedule)
    );

    // ---- 3. Copy insertion and queue allocation (QRF machine). ------------------
    let rewritten = insert_copies(&lp.ddg, &lat);
    println!(
        "copy insertion: {} copies added ({} ops total)",
        rewritten.num_copies(),
        rewritten.ddg.num_ops()
    );
    let ims_q = modulo_schedule(&rewritten.ddg, &single, ImsOptions::default()).unwrap();
    let lifetimes = use_lifetimes(&rewritten.ddg, &ims_q.schedule);
    let queues = allocate_queues(&lifetimes, ims_q.schedule.ii);
    println!(
        "queue register file: {} lifetimes in {} queues (max depth {}) at II {}",
        lifetimes.len(),
        queues.num_queues(),
        queues.max_queue_depth(),
        ims_q.schedule.ii
    );

    // ---- 4. Partitioned schedule on the clustered machine. ----------------------
    let clustered = Machine::paper_clustered(4, lat);
    let part = partition_schedule(&rewritten.ddg, &clustered, PartitionOptions::default()).unwrap();
    let comm = comm_stats(&rewritten.ddg, &clustered, &part.schedule);
    println!(
        "clustered (4 x 3 FUs): II = {} (single-cluster II was {}), {} values cross clusters, \
         fits the Fig. 7 cluster: {}",
        part.schedule.ii,
        ims_q.schedule.ii,
        comm.cross_cluster_values,
        comm.fits_pools(&clustered)
    );
    for op in rewritten.ddg.ops() {
        println!(
            "  {:>6} -> cycle {:>2}, {}",
            op.to_string(),
            part.schedule.start_of(op.id),
            part.schedule.cluster_of(&clustered, op.id)
        );
    }
}
