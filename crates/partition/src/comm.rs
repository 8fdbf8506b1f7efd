//! Inter-cluster communication analysis.
//!
//! After partitioning, every flow dependence whose producer and consumer live in
//! different (adjacent) clusters must travel through one of the ring's communication
//! queues.  This module measures how many values cross clusters, how many
//! communication queues each directed link needs (using the same Q-compatibility
//! binning as the private QRFs), and how many private queues each cluster needs —
//! the numbers behind the paper's Fig. 7 cluster sizing (8 private + 8 + 8
//! communication queues).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use vliw_ddg::{Ddg, DepKind};
use vliw_machine::{ClusterId, Machine};
use vliw_qrf::{allocate_queues, Lifetime};
use vliw_sched::Schedule;

/// Communication statistics of a partitioned schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of flow dependences whose endpoints are in different clusters.
    pub cross_cluster_values: usize,
    /// Number of flow dependences that stay inside one cluster.
    pub local_values: usize,
    /// The largest number of communication queues needed on any directed link
    /// between adjacent clusters.
    pub max_comm_queues_per_link: usize,
    /// The largest queue depth needed by any communication queue.
    pub max_comm_queue_depth: usize,
    /// The largest number of private queues needed by any cluster.
    pub max_private_queues_per_cluster: usize,
    /// The largest queue depth needed by any private queue.
    pub max_private_queue_depth: usize,
}

impl CommStats {
    /// Pool-split feasibility of the schedule on `machine` — the corrected
    /// Fig. 7 sizing predicate.
    ///
    /// Fig. 7's cluster owns three distinct storage pools: the private GPQs
    /// (sized by [`vliw_machine::ClusterConfig`]'s `private_queues` ×
    /// `queue_capacity`) and the ring-input / ring-output communication queues.
    /// In the link-based model the ring-output queues of a cluster *are* the
    /// ring-input queues of its neighbour — one directed link, sized by
    /// [`vliw_machine::RingConfig`]'s `queues_per_direction` ×
    /// `queue_capacity` — so the check is per cluster for the private pool and
    /// per directed link for the communication pools, each against its own
    /// depth budget.  A flat `(num_queues, capacity)` check over the
    /// machine-wide allocation gets both directions wrong: it charges
    /// communication lifetimes against the private budget (spuriously
    /// infeasible loops) and lets local pressure in one cluster borrow another
    /// cluster's queues (spuriously feasible loops).
    ///
    /// `CommStats` records machine-wide *maxima* per pool kind, so the check
    /// compares the worst cluster's demand against every cluster's budget —
    /// exact for the homogeneous machines every constructor in this workspace
    /// builds, conservative (never spuriously feasible, possibly spuriously
    /// infeasible) for a hand-built machine with differently-sized clusters.
    pub fn fits_pools(&self, machine: &Machine) -> bool {
        let private_ok = machine.cluster_ids().all(|c| {
            let cfg = machine.cluster(c);
            self.max_private_queues_per_cluster <= cfg.private_queues
                && self.max_private_queue_depth <= cfg.queue_capacity
        });
        let comm_ok = match machine.ring() {
            Some(r) => {
                self.max_comm_queues_per_link <= r.queues_per_direction
                    && self.max_comm_queue_depth <= r.queue_capacity
            }
            // A machine without a ring can route no cross-cluster value at all.
            None => self.cross_cluster_values == 0,
        };
        private_ok && comm_ok
    }

    /// Fraction of values that cross clusters (0 when the loop has no values).
    pub fn cross_fraction(&self) -> f64 {
        let total = self.cross_cluster_values + self.local_values;
        if total == 0 {
            0.0
        } else {
            self.cross_cluster_values as f64 / total as f64
        }
    }
}

/// Computes the communication statistics of `schedule` for `ddg` on `machine`.
pub fn comm_stats(ddg: &Ddg, machine: &Machine, schedule: &Schedule) -> CommStats {
    let ii = schedule.ii;
    let mut per_link: HashMap<(ClusterId, ClusterId), Vec<Lifetime>> = HashMap::new();
    let mut per_cluster: HashMap<ClusterId, Vec<Lifetime>> = HashMap::new();
    let mut cross = 0usize;
    let mut local = 0usize;

    for e in ddg.edges() {
        if e.kind != DepKind::Flow {
            continue;
        }
        let lt = Lifetime {
            producer: e.src,
            consumer: e.dst,
            start: u64::from(schedule.start_of(e.src)),
            end: u64::from(schedule.start_of(e.dst)) + u64::from(ii) * u64::from(e.distance),
        };
        let cs = schedule.cluster_of(machine, e.src);
        let cd = schedule.cluster_of(machine, e.dst);
        if cs == cd {
            local += 1;
            per_cluster.entry(cs).or_default().push(lt);
        } else {
            cross += 1;
            per_link.entry((cs, cd)).or_default().push(lt);
        }
    }

    let mut max_comm_queues = 0;
    let mut max_comm_depth = 0;
    for lts in per_link.values() {
        let alloc = allocate_queues(lts, ii);
        max_comm_queues = max_comm_queues.max(alloc.num_queues());
        max_comm_depth = max_comm_depth.max(alloc.max_queue_depth());
    }
    let mut max_private_queues = 0;
    let mut max_private_depth = 0;
    for lts in per_cluster.values() {
        let alloc = allocate_queues(lts, ii);
        max_private_queues = max_private_queues.max(alloc.num_queues());
        max_private_depth = max_private_depth.max(alloc.max_queue_depth());
    }

    CommStats {
        cross_cluster_values: cross,
        local_values: local,
        max_comm_queues_per_link: max_comm_queues,
        max_comm_queue_depth: max_comm_depth,
        max_private_queues_per_cluster: max_private_queues,
        max_private_queue_depth: max_private_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{partition_schedule, PartitionOptions};
    use vliw_ddg::{kernels, LatencyModel};
    use vliw_machine::LatencyModel as MachineLatency;
    use vliw_machine::{ClusterConfig, RingConfig};
    use vliw_qrf::insert_copies;

    #[test]
    fn stats_cover_every_flow_edge() {
        let m = Machine::paper_clustered(4, MachineLatency::default());
        for l in kernels::all_kernels(LatencyModel::default()) {
            let r = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
            let comm = comm_stats(&l.ddg, &m, &r.schedule);
            let flow_edges = l.ddg.edges().filter(|e| e.kind == DepKind::Flow).count();
            assert_eq!(comm.cross_cluster_values + comm.local_values, flow_edges, "{}", l.name);
        }
    }

    #[test]
    fn single_cluster_machine_has_no_cross_traffic() {
        let m = Machine::paper_clustered(1, MachineLatency::default());
        let l = kernels::daxpy(LatencyModel::default(), 100);
        let r = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
        let comm = comm_stats(&l.ddg, &m, &r.schedule);
        assert_eq!(comm.cross_cluster_values, 0);
        assert_eq!(comm.max_comm_queues_per_link, 0);
        assert!((comm.cross_fraction() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn kernel_fits_the_paper_cluster_budget() {
        // The paper concludes 8 private + 8 comm queues per direction suffice; these
        // small kernels must fit comfortably.
        let lat = LatencyModel::default();
        let m = Machine::paper_clustered(4, MachineLatency::default());
        for l in kernels::all_kernels(lat) {
            let rewritten = insert_copies(&l.ddg, &lat);
            let r = partition_schedule(&rewritten.ddg, &m, PartitionOptions::default()).unwrap();
            let comm = comm_stats(&rewritten.ddg, &m, &r.schedule);
            assert!(comm.fits_pools(&m), "{} does not fit the Fig. 7 cluster: {comm:?}", l.name);
        }
    }

    #[test]
    fn cross_fraction_is_bounded() {
        let m = Machine::paper_clustered(6, MachineLatency::default());
        let l = kernels::wide_parallel(LatencyModel::default(), 100);
        let r = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
        let f = comm_stats(&l.ddg, &m, &r.schedule).cross_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn pool_split_fixes_the_flat_fits_verdict() {
        use vliw_ddg::{DdgBuilder, OpKind};
        use vliw_machine::ClusterId;
        use vliw_qrf::{allocate_queues, use_lifetimes};
        use vliw_sched::Schedule;

        // Two independent producer/consumer pairs whose lifetimes are mutually
        // Q-incompatible (same write slot mod II), so a flat machine-wide
        // allocation needs two queues no matter where the values live.
        let mut b = DdgBuilder::new(vliw_ddg::LatencyModel::unit());
        let l1 = b.op(OpKind::Load);
        let a1 = b.op(OpKind::Add);
        let l2 = b.op(OpKind::Load);
        let a2 = b.op(OpKind::Add);
        b.flow(l1, a1);
        b.flow(l2, a2);
        let g = b.finish();

        let cluster = |queues: usize| ClusterConfig {
            fu_classes: vec![vliw_ddg::OpClass::Memory, vliw_ddg::OpClass::Adder],
            copy_units: 0,
            private_queues: queues,
            queue_capacity: 8,
        };

        // Flip 1 — flat says "does not fit", pools say "fits": one value stays
        // in cluster 0, the other crosses to cluster 1.  Each pool holds one
        // lifetime, but the flat allocation charges both against the single
        // private queue.
        let m = Machine::new(
            "tight-private",
            vec![cluster(1), cluster(1)],
            Some(RingConfig { queues_per_direction: 8, queue_capacity: 8 }),
            MachineLatency::unit(),
        );
        let mem0 = m.fu_ids_of_class_in_cluster(ClusterId(0), vliw_ddg::OpClass::Memory)[0];
        let add0 = m.fu_ids_of_class_in_cluster(ClusterId(0), vliw_ddg::OpClass::Adder)[0];
        let add1 = m.fu_ids_of_class_in_cluster(ClusterId(1), vliw_ddg::OpClass::Adder)[0];
        let s = Schedule::new(4, vec![0, 2, 4, 6], vec![mem0, add1, mem0, add0]);
        let flat = allocate_queues(&use_lifetimes(&g, &s), s.ii);
        assert_eq!(flat.num_queues(), 2, "the lifetimes collide in a flat pool");
        let cfg = m.cluster(ClusterId(0));
        assert!(!flat.fits(cfg.private_queues, cfg.queue_capacity), "flat verdict: infeasible");
        let stats = comm_stats(&g, &m, &s);
        assert!(stats.fits_pools(&m), "pool-split verdict: each pool holds one lifetime");

        // Flip 2 — flat says "fits", pools say "does not fit": both values
        // cross the same directed link, which owns a single communication
        // queue; the flat check happily bins them into the ample private pool.
        let m = Machine::new(
            "tight-ring",
            vec![cluster(8), cluster(8)],
            Some(RingConfig { queues_per_direction: 1, queue_capacity: 8 }),
            MachineLatency::unit(),
        );
        let mem0 = m.fu_ids_of_class_in_cluster(ClusterId(0), vliw_ddg::OpClass::Memory)[0];
        let add1 = m.fu_ids_of_class_in_cluster(ClusterId(1), vliw_ddg::OpClass::Adder)[0];
        let s = Schedule::new(4, vec![0, 2, 4, 6], vec![mem0, add1, mem0, add1]);
        let flat = allocate_queues(&use_lifetimes(&g, &s), s.ii);
        let cfg = m.cluster(ClusterId(0));
        assert!(flat.fits(cfg.private_queues, cfg.queue_capacity), "flat verdict: feasible");
        let stats = comm_stats(&g, &m, &s);
        assert_eq!(stats.max_comm_queues_per_link, 2);
        assert!(!stats.fits_pools(&m), "pool-split verdict: the link is oversubscribed");
    }

    #[test]
    fn fits_pools_matches_the_paper_budget_on_the_paper_machine() {
        let lat = LatencyModel::default();
        let m = Machine::paper_clustered(4, MachineLatency::default());
        for l in kernels::all_kernels(lat) {
            let rewritten = insert_copies(&l.ddg, &lat);
            let r = partition_schedule(&rewritten.ddg, &m, PartitionOptions::default()).unwrap();
            let comm = comm_stats(&rewritten.ddg, &m, &r.schedule);
            // On the paper machine both budgets and both depths are 8, so the
            // pool-split predicate is Fig. 7's flat budget check.
            let fig7 = comm.max_private_queues_per_cluster <= 8
                && comm.max_comm_queues_per_link <= 8
                && comm.max_private_queue_depth <= 8
                && comm.max_comm_queue_depth <= 8;
            assert_eq!(comm.fits_pools(&m), fig7, "{}", l.name);
        }
    }

    #[test]
    fn fits_pools_edge_cases() {
        // Demand exactly at every budget of the paper machine fits; one queue
        // or one slot of depth less in any single pool does not.
        let stats = CommStats {
            cross_cluster_values: 3,
            local_values: 5,
            max_comm_queues_per_link: 8,
            max_comm_queue_depth: 8,
            max_private_queues_per_cluster: 8,
            max_private_queue_depth: 8,
        };
        let machine = |cluster: ClusterConfig, ring: RingConfig| {
            Machine::new("edge", vec![cluster; 4], Some(ring), MachineLatency::default())
        };
        let (cluster, ring) = (ClusterConfig::paper_basic(), RingConfig::paper_basic());
        assert!(stats.fits_pools(&machine(cluster.clone(), ring)));
        let shrunk = [
            machine(ClusterConfig { private_queues: 7, ..cluster.clone() }, ring),
            machine(ClusterConfig { queue_capacity: 7, ..cluster.clone() }, ring),
            machine(cluster.clone(), RingConfig { queues_per_direction: 7, ..ring }),
            machine(cluster, RingConfig { queue_capacity: 7, ..ring }),
        ];
        for m in &shrunk {
            assert!(!stats.fits_pools(m), "{:?} / {:?}", m.cluster(ClusterId(0)), m.ring());
        }
        // Without a ring no value may cross clusters at all.
        let isolated = Machine::new(
            "isolated",
            vec![ClusterConfig::paper_basic()],
            None,
            MachineLatency::default(),
        );
        assert!(!stats.fits_pools(&isolated));
        assert!(CommStats { cross_cluster_values: 0, ..stats }.fits_pools(&isolated));
    }
}
