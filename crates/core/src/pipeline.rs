//! The high-level compilation pipeline.
//!
//! [`Compiler`] ties the substrates together in the order the paper applies them:
//!
//! 1. **loop unrolling** (optional) to expose enough parallelism for wide machines;
//! 2. **copy insertion** (optional) so every value has a single destructive reader,
//!    as required by a queue register file;
//! 3. **scheduling** — plain iterative modulo scheduling for single-cluster
//!    machines, the partitioning scheduler for clustered machines;
//! 4. **storage allocation** — queue allocation (QRF), the per-pool
//!    communication statistics of a clustered machine and the conventional-RF
//!    MaxLive baseline;
//! 5. **analysis** — II, stage count and static/dynamic IPC.

use vliw_analysis::IpcReport;
use vliw_ddg::{Ddg, Loop};
use vliw_machine::Machine;
use vliw_partition::{comm_stats, partition_schedule, CommStats, PartitionOptions};
use vliw_qrf::{
    allocate_queues, conventional_registers_required, insert_copies, use_lifetimes, QueueAllocation,
};
use vliw_sched::{modulo_schedule, ImsOptions, SchedError, Schedule};
use vliw_unroll::{select_unroll_factor, unroll_ddg, DEFAULT_MAX_FACTOR};

/// Configuration of the compilation pipeline.
#[derive(Debug, Clone)]
pub struct CompilerConfig {
    /// Target machine.
    pub machine: Machine,
    /// Insert copy operations so that every value has at most one reader (required
    /// for queue register files, Section 2).
    pub use_copies: bool,
    /// Apply loop unrolling before scheduling (Section 3).
    pub unroll: bool,
    /// Cap on the unroll factor.
    pub max_unroll: u32,
    /// Scheduler options for single-cluster machines.
    pub sched: ImsOptions,
    /// Scheduler options for clustered machines.
    pub partition: PartitionOptions,
}

impl CompilerConfig {
    /// A configuration with the paper's defaults for the given machine: copies on,
    /// unrolling on (factor ≤ 4).
    pub fn paper_defaults(machine: Machine) -> Self {
        CompilerConfig {
            machine,
            use_copies: true,
            unroll: true,
            max_unroll: DEFAULT_MAX_FACTOR,
            sched: ImsOptions::default(),
            partition: PartitionOptions::default(),
        }
    }

    /// Same as [`CompilerConfig::paper_defaults`] but without copy insertion (the
    /// "basic configuration" of Section 2, where multi-consumer values would need
    /// simultaneous writes).
    pub fn without_copies(machine: Machine) -> Self {
        CompilerConfig { use_copies: false, ..CompilerConfig::paper_defaults(machine) }
    }

    /// Disables unrolling, keeping everything else.
    pub fn no_unroll(mut self) -> Self {
        self.unroll = false;
        self
    }
}

/// The result of compiling one loop.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// Name of the source loop.
    pub loop_name: String,
    /// Unroll factor applied (1 = not unrolled).
    pub unroll_factor: u32,
    /// Number of copy operations inserted.
    pub num_copies: usize,
    /// The dependence graph that was actually scheduled (after unrolling and copy
    /// insertion).
    pub transformed: Ddg,
    /// The modulo schedule of the transformed body.
    pub schedule: Schedule,
    /// Lower bounds at which the body was scheduled.
    pub res_mii: u32,
    /// Recurrence-constrained lower bound.
    pub rec_mii: u32,
    /// `max(ResMII, RecMII)`.
    pub mii: u32,
    /// Stage count of the schedule.
    pub stage_count: u32,
    /// Static and dynamic issue rates (operations of the *transformed* body,
    /// normalised per body iteration; dynamic accounts for prologue/epilogue over
    /// the loop's trip count).
    pub ipc: IpcReport,
    /// Queue allocation of the scheduled body (per-use lifetimes over the whole
    /// machine); `None` only if the body produced no values.
    pub queues: QueueAllocation,
    /// Registers needed by a conventional register file (MaxLive baseline).
    pub registers_required: usize,
    /// Communication statistics; present only for clustered machines.
    pub comm: Option<CommStats>,
}

impl Compilation {
    /// The initiation interval of the schedule.
    pub fn ii(&self) -> u32 {
        self.schedule.ii
    }

    /// Number of queues required by the schedule (Fig. 3's quantity).
    pub fn queues_required(&self) -> usize {
        self.queues.num_queues()
    }

    /// True if the scheduler achieved the MII lower bound.
    pub fn achieved_mii(&self) -> bool {
        self.schedule.ii == self.mii.max(1)
    }

    /// Pool-split storage feasibility of this compilation on `machine` — the
    /// corrected Fig. 7 sizing predicate the design-space sweep consumes.
    ///
    /// On a single-cluster machine the machine-wide allocation *is* the private
    /// pool, so the flat [`QueueAllocation::fits`] check applies.  On a
    /// clustered machine local and cross-cluster lifetimes live in different
    /// hardware pools (private GPQs vs ring queues), so feasibility comes from
    /// the per-pool allocations of [`CommStats::fits_pools`] instead; the flat
    /// allocation would charge communication values against the private budget.
    pub fn fits_machine(&self, machine: &Machine) -> bool {
        match &self.comm {
            Some(comm) => comm.fits_pools(machine),
            None => {
                let cfg = machine.cluster(vliw_machine::ClusterId(0));
                self.queues.fits(cfg.private_queues, cfg.queue_capacity)
            }
        }
    }
}

/// The compilation pipeline for one machine configuration.
#[derive(Debug, Clone)]
pub struct Compiler {
    config: CompilerConfig,
}

impl Compiler {
    /// Creates a compiler from a configuration.
    pub fn new(config: CompilerConfig) -> Self {
        Compiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles one loop end to end.
    ///
    /// Every stage is its layer's plain entry point; each keeps its reusable
    /// buffers thread-local, so a session worker amortises them across every
    /// loop it compiles.
    pub fn compile(&self, lp: &Loop) -> Result<Compilation, SchedError> {
        let machine = &self.config.machine;
        let latencies = *machine.latencies();

        // 1 + 2. Unrolling and copy insertion.
        let (unrolled, unroll_factor) = if self.config.unroll {
            let _span = vliw_obs::span!("unroll", lp.ddg.num_ops());
            let factor = select_unroll_factor(&lp.ddg, machine, self.config.max_unroll);
            (Some(unroll_ddg(&lp.ddg, factor).ddg), factor)
        } else {
            (None, 1)
        };
        let base = unrolled.as_ref().unwrap_or(&lp.ddg);
        let (body, num_copies) = if self.config.use_copies {
            let _span = vliw_obs::span!("ddg/copies", base.num_ops());
            let ins = insert_copies(base, &latencies);
            let n = ins.num_copies();
            (ins.ddg, n)
        } else {
            (unrolled.unwrap_or_else(|| lp.ddg.clone()), 0)
        };

        // 3. Scheduling.
        let r = if machine.is_clustered() {
            partition_schedule(&body, machine, self.config.partition)?
        } else {
            modulo_schedule(&body, machine, self.config.sched)?
        };
        let schedule = r.schedule;

        // 4. Storage allocation: the machine-wide queues, the per-pool
        // communication statistics of a clustered machine, and the
        // conventional-RF baseline.
        let queues = allocate_queues(&use_lifetimes(&body, &schedule), schedule.ii);
        let comm = machine.is_clustered().then(|| comm_stats(&body, machine, &schedule));
        let registers_required = conventional_registers_required(&body, &schedule);

        // 5. Analysis.
        let stage_count = schedule.stage_count();
        // IPC is computed over the scheduled body: `unroll_factor` original
        // iterations plus any copy overhead per body iteration.
        let body_ops = body.num_ops();
        let body_iterations = lp.trip_count.div_ceil(unroll_factor.max(1) as u64).max(1);
        let ipc = IpcReport {
            static_ipc: vliw_analysis::static_ipc(body_ops, &schedule),
            dynamic_ipc: vliw_analysis::dynamic_ipc(body_ops, &schedule, body_iterations),
        };

        Ok(Compilation {
            loop_name: lp.name.clone(),
            unroll_factor,
            num_copies,
            transformed: body,
            schedule,
            res_mii: r.res_mii,
            rec_mii: r.rec_mii,
            mii: r.mii,
            stage_count,
            ipc,
            queues,
            registers_required,
            comm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, LatencyModel};

    fn lat() -> LatencyModel {
        LatencyModel::default()
    }

    #[test]
    fn pipeline_compiles_kernels_on_single_cluster() {
        let machine = Machine::single_cluster(6, 2, 32, lat());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        for lp in kernels::all_kernels(lat()) {
            let c = compiler.compile(&lp).unwrap_or_else(|e| panic!("{}: {e}", lp.name));
            assert!(c.schedule.validate(&c.transformed, &machine).is_ok());
            assert!(c.ii() >= c.mii);
            assert!(c.stage_count >= 1);
            assert!(c.ipc.static_ipc > 0.0);
            assert!(c.queues_required() >= 1);
            assert!(c.comm.is_none());
        }
    }

    #[test]
    fn pipeline_compiles_kernels_on_clustered_machine() {
        let machine = Machine::paper_clustered(4, lat());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        for lp in kernels::all_kernels(lat()) {
            let c = compiler.compile(&lp).unwrap();
            assert!(c.schedule.validate(&c.transformed, &machine).is_ok());
            let comm = c.comm.expect("clustered machines report communication stats");
            assert_eq!(
                comm.cross_cluster_values + comm.local_values,
                c.transformed.edges().filter(|e| e.kind == vliw_ddg::DepKind::Flow).count()
            );
        }
    }

    #[test]
    fn fits_machine_dispatches_per_pool() {
        let lp = kernels::wide_parallel(lat(), 100);
        // Single cluster: the flat allocation is the private pool; one queue of
        // storage cannot hold a wide kernel, ample storage can.
        let tight = Machine::single_cluster(6, 2, 1, lat());
        let c = Compiler::new(CompilerConfig::paper_defaults(tight.clone())).compile(&lp).unwrap();
        assert!(c.queues_required() > 1);
        assert!(!c.fits_machine(&tight));
        let ample = Machine::single_cluster(6, 2, 1024, lat());
        let c = Compiler::new(CompilerConfig::paper_defaults(ample.clone())).compile(&lp).unwrap();
        assert!(c.fits_machine(&ample));
        // Clustered: the verdict is the pool-split one, never the flat check.
        let clustered = Machine::paper_clustered(4, lat());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(clustered.clone()));
        for lp in kernels::all_kernels(lat()) {
            let c = compiler.compile(&lp).unwrap();
            let comm = c.comm.as_ref().expect("clustered");
            assert_eq!(c.fits_machine(&clustered), comm.fits_pools(&clustered), "{}", lp.name);
        }
    }

    #[test]
    fn copies_only_inserted_when_requested() {
        let machine = Machine::single_cluster(6, 2, 32, lat());
        let with = Compiler::new(CompilerConfig::paper_defaults(machine.clone()));
        let without = Compiler::new(CompilerConfig::without_copies(machine));
        let lp = kernels::wide_parallel(lat(), 100);
        let a = with.compile(&lp).unwrap();
        let b = without.compile(&lp).unwrap();
        assert!(a.num_copies > 0);
        assert_eq!(b.num_copies, 0);
        assert!(a.transformed.num_ops() > b.transformed.num_ops());
    }

    #[test]
    fn no_unroll_keeps_body_size() {
        let machine = Machine::single_cluster(12, 4, 32, lat());
        let cfg = CompilerConfig::without_copies(machine).no_unroll();
        let compiler = Compiler::new(cfg);
        let lp = kernels::daxpy(lat(), 100);
        let c = compiler.compile(&lp).unwrap();
        assert_eq!(c.unroll_factor, 1);
        assert_eq!(c.transformed.num_ops(), lp.ddg.num_ops());
    }

    #[test]
    fn conventional_rf_needs_no_more_registers_than_machine_width_times_latency() {
        let machine = Machine::single_cluster(6, 2, 32, lat());
        let compiler = Compiler::new(CompilerConfig::paper_defaults(machine));
        let lp = kernels::dot_product(lat(), 1000);
        let c = compiler.compile(&lp).unwrap();
        assert!(c.registers_required >= 1);
        assert!(c.registers_required < 200);
    }
}
