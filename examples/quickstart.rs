//! Quickstart: compile one loop for a clustered VLIW machine and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example builds the paper's 4-cluster machine (12 compute FUs organised as
//! four clusters of L/S + ADD + MUL + copy unit, each with a private queue register
//! file, connected by a bidirectional ring of queues), compiles the classic
//! dot-product kernel with the full pipeline (unrolling, copy insertion, partitioned
//! modulo scheduling, queue allocation) and prints the key schedule metrics.

use vliw_core::{kernels, LatencyModel, Machine};
use vliw_core::{Compiler, CompilerConfig};

fn main() {
    let latencies = LatencyModel::default();

    // The paper's clustered machine: 4 clusters x (1 L/S + 1 ADD + 1 MUL + copy).
    let machine = Machine::paper_clustered(4, latencies);
    println!(
        "machine: {} ({} compute FUs in {} clusters, {} private queues per cluster, \
         {} communication queues per ring direction)",
        machine.name(),
        machine.num_compute_fus(),
        machine.num_clusters(),
        machine.cluster(vliw_core::ClusterId(0)).private_queues,
        machine.comm_queues_per_direction(),
    );

    // s = s + a[i] * b[i], executed 1000 times.
    let lp = kernels::dot_product(latencies, 1000);
    println!("loop: {} ({} operations per iteration)", lp.name, lp.ops_per_iteration());

    let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
    let out = compiler.compile(&lp).expect("the dot product is schedulable");

    println!();
    println!("unroll factor        : {}", out.unroll_factor);
    println!("copy ops inserted    : {}", out.num_copies);
    println!("scheduled operations : {}", out.transformed.num_ops());
    println!("ResMII / RecMII / MII: {} / {} / {}", out.res_mii, out.rec_mii, out.mii);
    println!("initiation interval  : {} (MII achieved: {})", out.ii(), out.achieved_mii());
    println!("stage count          : {}", out.stage_count);
    println!("static IPC           : {:.2}", out.ipc.static_ipc);
    println!("dynamic IPC          : {:.2}", out.ipc.dynamic_ipc);
    println!("queues required      : {}", out.queues_required());
    println!("conventional RF regs : {}", out.registers_required);
    if let Some(comm) = &out.comm {
        println!(
            "inter-cluster values : {} ({} stay local)",
            comm.cross_cluster_values, comm.local_values
        );
        println!("fits Fig. 7 cluster  : {}", comm.fits_pools(&compiler.config().machine));
    }

    // Per-operation placement.
    println!("\nkernel placement (operation -> cycle, stage, cluster):");
    for op in out.transformed.ops() {
        let cycle = out.schedule.start_of(op.id);
        println!(
            "  {:>5}  {:>4}  slot {:>2}  stage {}  {}",
            op.to_string(),
            cycle,
            out.schedule.slot_of(op.id),
            out.schedule.stage_of(op.id),
            out.schedule.cluster_of(&compiler.config().machine, op.id),
        );
    }
}
