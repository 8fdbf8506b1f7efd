//! The partitioning scheduler: iterative modulo scheduling with cluster assignment.
//!
//! The paper extends Rau's IMS with heuristics that pick a **cluster** for every
//! operation while it is being placed in the modulo reservation table.  The hard
//! constraint is the ring topology: a value produced in cluster `i` can only be
//! consumed in cluster `i`, `i − 1` or `i + 1` (there are no transit moves between
//! non-adjacent clusters — the paper lists those as future work; a torus or
//! crossbar machine widens the adjacency relation instead).  The ring policy
//! reads that relation from the machine's [`NeighbourMasks`], built once per
//! call: the clusters that may host an operation are the AND of its placed
//! flow neighbours' rows.
//! When an operation cannot be placed in any cluster compatible with its
//! already-placed neighbours, the blocking neighbours are unscheduled
//! (backtracking) and the search continues; when the placement budget is
//! exhausted the II is increased.
//!
//! The search is `vliw_sched`'s [`IiSearch`], run over two windows: the ring
//! window, then, if no II of it partitions, the single-cluster `collapse`.
//! The partitioner allocates no storage: the pipeline derives the
//! communication statistics ([`crate::comm_stats`]) from the schedule.

use std::cell::RefCell;
use std::cmp::Reverse;

use vliw_ddg::{Ddg, DepKind, OpId};
use vliw_machine::{ClusterId, Machine, NeighbourMasks};
use vliw_sched::{
    resource_bound, ClusterPolicy, Eligibility, IiSearch, PlacementEngine, SchedError,
    ScheduleResult,
};

/// Reusable work-lists of the ring policy, rebuilt for **every** placement:
/// reusing the buffers removes their allocations per placed operation.
#[derive(Debug, Default)]
struct RingLists {
    /// Clusters of the placed flow neighbours (producers and consumers) of
    /// the operation being ranked, one entry per flow edge.
    neighbours: Vec<ClusterId>,
    /// Entries of `neighbours` per cluster: the affinity ranking key.
    affinity: Vec<u32>,
    /// The AND of the neighbours' mask rows: the clusters every placed
    /// neighbour can exchange values with.
    feasible: Vec<u64>,
}

thread_local! {
    /// Per-thread work-lists of the ring policy (session executor workers are
    /// OS threads).  `eligible` borrows them once per placement round and is
    /// never re-entered, so the borrow cannot conflict.
    static RING_LISTS: RefCell<RingLists> = RefCell::new(RingLists::default());
}

/// Tuning knobs of the partitioning scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionOptions {
    /// Placement budget per II attempt, as a multiple of the operation count.
    /// The partitioner backtracks more than plain IMS, so the default is larger.
    pub budget_ratio: u32,
    /// Do not schedule below this II.
    pub min_ii: u32,
    /// Give up above this II (defaults to a generous multiple of the MII).
    pub max_ii: Option<u32>,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions { budget_ratio: 10, min_ii: 1, max_ii: None }
    }
}

impl PartitionOptions {
    /// Sets the minimum II (used to compare against a single-cluster baseline).
    pub fn with_min_ii(mut self, min_ii: u32) -> Self {
        self.min_ii = min_ii;
        self
    }
}

/// Schedules `ddg` on the clustered `machine`, assigning every operation to a
/// cluster, a functional unit and a cycle.
///
/// The ring window runs from the MII (or `opts.min_ii`) to `opts.max_ii`, by
/// default `3·start + 64`; its `k`-th attempt may make `min(k, 8)` times the
/// base budget of placements.  A loop no II of that window partitions
/// collapses to one cluster.
pub fn partition_schedule(
    ddg: &Ddg,
    machine: &Machine,
    opts: PartitionOptions,
) -> Result<ScheduleResult, SchedError> {
    let _span = vliw_obs::span!("sched/partition", ddg.num_ops());
    let mut search = IiSearch::new(ddg, machine)?;
    let first = search.mii.max(opts.min_ii).max(1);
    let last = opts.max_ii.unwrap_or(first.saturating_mul(3).saturating_add(64));
    let base_budget = (ddg.num_ops() as u32).saturating_mul(opts.budget_ratio).max(32);
    // Later attempts get a larger backtracking budget: communication conflicts
    // can require unscheduling the same operations several times before the
    // placement converges.
    let ring = RingPolicy::new(machine);
    match search.window(first..=last, |k| base_budget.saturating_mul(k.min(8)), &ring) {
        Some(result) => Ok(result),
        None => collapse(ddg, machine, &mut search, opts.min_ii, base_budget, ring),
    }
}

/// Last-resort fallback: collapse the whole loop into cluster 0.
///
/// A one-cluster placement trivially satisfies the ring constraint (no value
/// ever crosses a cluster boundary) and always exists for a large enough II;
/// it is the partitioning equivalent of fully serialising the loop and
/// corresponds to the worst case the paper's backtracking degenerates to.  Its
/// window runs from the single-cluster bound (`RecMII` and cluster 0's
/// resource bound) to `3·bound + 64`, every attempt with 8 times the base
/// budget, and that bound, not the machine-wide one, is reported as the MII.
fn collapse(
    ddg: &Ddg,
    machine: &Machine,
    search: &mut IiSearch<'_>,
    min_ii: u32,
    base_budget: u32,
    ring: RingPolicy,
) -> Result<ScheduleResult, SchedError> {
    let cluster = ClusterId(0);
    let units = |class| machine.fu_ids_of_class_in_cluster(cluster, class).len();
    let lower = resource_bound(&ddg.class_counts(), units)
        .map_err(|class| SchedError::NoFunctionalUnit { class })?
        .max(search.rec_mii);
    search.mii = search.mii.max(lower);
    let last = lower.saturating_mul(3).saturating_add(64);
    let budget = base_budget.saturating_mul(8);
    let policy = RingPolicy { restrict_to: Some(cluster), ..ring };
    search
        .window(lower.max(min_ii)..=last, |_| budget, &policy)
        .ok_or(SchedError::IiLimitReached { limit: last })
}

/// The paper's cluster-eligibility heuristics, as a policy for the shared
/// placement engine (`vliw_sched::core`).
///
/// Clusters are ranked by affinity (more already-placed flow neighbours is
/// better), then by load (fewer placed operations is better), then by id, and
/// filtered down to those that can exchange values with every placed neighbour
/// over the interconnect.  When no cluster qualifies, the policy backtracks: it
/// picks the cluster sacrificing the fewest placed neighbours, unschedules the
/// incompatible ones through the engine, and restricts the placement to that
/// cluster.
///
/// With `restrict_to: Some(c)` every operation is placed in cluster `c` (the
/// collapse).  If `c` lacks a unit of some required class the attempt fails —
/// it never escapes to another cluster, which used to break the "collapsed
/// schedules are single-cluster" invariant.
struct RingPolicy {
    /// The machine's adjacency relation, the only one the policy consults.
    masks: NeighbourMasks,
    /// Place every operation in this cluster (the single-cluster collapse).
    restrict_to: Option<ClusterId>,
}

impl ClusterPolicy for RingPolicy {
    fn eligible(
        &self,
        engine: &mut PlacementEngine<'_>,
        op: OpId,
        ranked: &mut Vec<ClusterId>,
    ) -> Eligibility {
        RING_LISTS.with(|lists| self.rank(engine, op, ranked, &mut lists.borrow_mut()))
    }

    fn comm_violated(&self, from: ClusterId, to: ClusterId) -> bool {
        !self.masks.contains(from.index(), to.index())
    }
}

impl RingPolicy {
    /// The policy over `machine`'s whole interconnect.
    fn new(machine: &Machine) -> Self {
        RingPolicy {
            masks: machine.topology().neighbour_masks(machine.num_clusters()),
            restrict_to: None,
        }
    }

    /// [`ClusterPolicy::eligible`] over the borrowed work-lists.
    fn rank(
        &self,
        engine: &mut PlacementEngine<'_>,
        op: OpId,
        ranked: &mut Vec<ClusterId>,
        lists: &mut RingLists,
    ) -> Eligibility {
        let ddg = engine.ddg();
        let masks = &self.masks;
        let RingLists { neighbours, affinity, feasible } = lists;

        // Placed flow neighbours.  Adjacency is symmetric, so a producer's row
        // holds the clusters it can send to and a consumer's row those it can
        // receive from: both constrain op's cluster to their row.
        neighbours.clear();
        neighbours.extend(
            ddg.pred_edges(op)
                .filter(|e| e.kind == DepKind::Flow && e.src != op)
                .filter_map(|e| engine.cluster_of(e.src)),
        );
        neighbours.extend(
            ddg.succ_edges(op)
                .filter(|e| e.kind == DepKind::Flow && e.dst != op)
                .filter_map(|e| engine.cluster_of(e.dst)),
        );
        affinity.clear();
        affinity.resize(engine.machine().num_clusters(), 0);
        feasible.clear();
        feasible.resize(masks.words(), !0);
        for &c in neighbours.iter() {
            affinity[c.index()] += 1;
            for (f, &r) in feasible.iter_mut().zip(masks.row(c.index())) {
                *f &= r;
            }
        }

        // Rank the candidate clusters by affinity, then load, then id (a
        // total order); keep only the communication-feasible ones.
        let candidates = match self.restrict_to {
            Some(c) => c.0..c.0 + 1,
            None => 0..affinity.len() as u32,
        };
        let key = |c: ClusterId| (Reverse(affinity[c.index()]), engine.cluster_load(c), c.0);
        ranked.extend(
            candidates
                .clone()
                .map(ClusterId)
                .filter(|c| feasible[c.index() / 64] >> (c.index() % 64) & 1 == 1),
        );
        ranked.sort_unstable_by_key(|&c| key(c));

        // Communication conflict: no cluster can talk to all placed neighbours.
        // Backtrack by unscheduling the neighbours that are incompatible with
        // the chosen target cluster, then schedule `op` there.  The target is
        // the candidate that sacrifices the fewest already-placed neighbours
        // (ties broken by the ranking above).
        if ranked.is_empty() {
            let conflicts = |c: ClusterId| {
                neighbours.iter().filter(|n| !masks.contains(n.index(), c.index())).count()
            };
            let target = candidates
                .map(ClusterId)
                .min_by_key(|&c| (conflicts(c), key(c)))
                .expect("machines have at least one cluster");
            for e in ddg.pred_edges(op) {
                if e.kind == DepKind::Flow && e.src != op {
                    if let Some(c) = engine.cluster_of(e.src) {
                        if !masks.contains(c.index(), target.index()) {
                            engine.unschedule(e.src);
                        }
                    }
                }
            }
            for e in ddg.succ_edges(op) {
                if e.kind == DepKind::Flow && e.dst != op {
                    if let Some(c) = engine.cluster_of(e.dst) {
                        if !masks.contains(target.index(), c.index()) {
                            engine.unschedule(e.dst);
                        }
                    }
                }
            }
            ranked.push(target);
        }
        Eligibility::Ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::{kernels, DdgBuilder, LatencyModel, OpKind};
    use vliw_machine::LatencyModel as MachineLatency;
    use vliw_machine::{ClusterConfig, RingConfig};
    use vliw_qrf::insert_copies;
    use vliw_sched::{modulo_schedule, ImsOptions};

    fn clustered(n: usize) -> Machine {
        Machine::paper_clustered(n, MachineLatency::default())
    }

    /// Options that skip the partitioned search entirely (`max_ii` below the
    /// smallest II ever attempted), forcing the single-cluster collapse.
    fn collapse_only() -> PartitionOptions {
        PartitionOptions { max_ii: Some(0), ..PartitionOptions::default() }
    }

    #[test]
    fn kernels_schedule_on_clustered_machines() {
        for n in [2, 4, 5, 6] {
            let m = clustered(n);
            for l in kernels::all_kernels(LatencyModel::default()) {
                let r = partition_schedule(&l.ddg, &m, PartitionOptions::default())
                    .unwrap_or_else(|e| panic!("{} on {} clusters: {e}", l.name, n));
                assert!(r.schedule.validate(&l.ddg, &m).is_ok(), "{}", l.name);
                assert!(r.schedule.ii >= r.mii);
            }
        }
    }

    #[test]
    fn ring_adjacency_is_respected() {
        let m = clustered(4);
        for l in kernels::all_kernels(LatencyModel::default()) {
            let r = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
            for e in l.ddg.edges() {
                if e.kind != DepKind::Flow {
                    continue;
                }
                let cs = r.schedule.cluster_of(&m, e.src);
                let cd = r.schedule.cluster_of(&m, e.dst);
                assert!(
                    m.clusters_communicate(cs, cd),
                    "{}: value flows between non-adjacent clusters {cs} -> {cd}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn clustered_ii_never_beats_single_cluster_mii() {
        let lat = LatencyModel::default();
        for l in kernels::all_kernels(lat) {
            let rewritten = insert_copies(&l.ddg, &lat);
            let single = Machine::paper_single_cluster_equivalent(4, lat);
            let clusteredm = clustered(4);
            let s = modulo_schedule(&rewritten.ddg, &single, ImsOptions::default()).unwrap();
            let c = partition_schedule(&rewritten.ddg, &clusteredm, PartitionOptions::default())
                .unwrap();
            assert!(
                c.schedule.ii >= s.schedule.ii,
                "{}: clustered II {} beats single-cluster II {}",
                l.name,
                c.schedule.ii,
                s.schedule.ii
            );
        }
    }

    #[test]
    fn small_kernels_keep_single_cluster_ii_on_four_clusters() {
        // The paper reports that 95% of loops keep the single-cluster II on a
        // 4-cluster machine; these tiny kernels certainly should.
        let lat = LatencyModel::default();
        let single = Machine::paper_single_cluster_equivalent(4, lat);
        let cl = clustered(4);
        for l in kernels::all_kernels(lat) {
            let rewritten = insert_copies(&l.ddg, &lat);
            let s = modulo_schedule(&rewritten.ddg, &single, ImsOptions::default()).unwrap();
            let c = partition_schedule(&rewritten.ddg, &cl, PartitionOptions::default()).unwrap();
            assert_eq!(c.schedule.ii, s.schedule.ii, "{}: clustered II degraded", l.name);
        }
    }

    #[test]
    fn transit_moves_drop_the_adjacency_restriction() {
        // Transit moves between non-adjacent clusters are a crossbar: every
        // cluster pair communicates, so no placement is ring-constrained.
        let m = clustered(6);
        let xbar = clustered(6).with_topology(vliw_machine::Topology::Crossbar);
        let l = kernels::wide_parallel(LatencyModel::default(), 100);
        let with_moves = partition_schedule(&l.ddg, &xbar, PartitionOptions::default()).unwrap();
        assert!(with_moves.schedule.validate(&l.ddg, &xbar).is_ok());
        let without = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
        // Removing a constraint can only help (or leave unchanged) the II.
        assert!(with_moves.schedule.ii <= without.schedule.ii);
    }

    #[test]
    fn min_ii_is_honoured() {
        let m = clustered(4);
        let l = kernels::dot_product(LatencyModel::default(), 100);
        let base = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
        let forced = partition_schedule(
            &l.ddg,
            &m,
            PartitionOptions::default().with_min_ii(base.schedule.ii + 2),
        )
        .unwrap();
        assert_eq!(forced.schedule.ii, base.schedule.ii + 2);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let m = clustered(4);
        assert!(matches!(
            partition_schedule(&Ddg::new(), &m, PartitionOptions::default()),
            Err(SchedError::EmptyGraph)
        ));
    }

    #[test]
    fn single_cluster_machine_degenerates_to_plain_ims_bounds() {
        // On a machine with a single cluster the partitioner faces no communication
        // constraints, so it matches plain IMS's II on these kernels.
        let lat = LatencyModel::default();
        let m = Machine::paper_clustered(1, lat);
        for l in kernels::all_kernels(lat) {
            let p = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
            let s = modulo_schedule(&l.ddg, &m, ImsOptions::default()).unwrap();
            assert_eq!(p.schedule.ii, s.schedule.ii, "{}", l.name);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let m = clustered(5);
        let l = kernels::wide_parallel(LatencyModel::default(), 10);
        let a = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
        let b = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // This thread's scratch, carried across kernels and cluster counts,
        // must reproduce the results of a fresh thread's scratch exactly.
        for n in [2, 4, 5] {
            let m = clustered(n);
            for l in kernels::all_kernels(LatencyModel::default()) {
                let reused = partition_schedule(&l.ddg, &m, PartitionOptions::default()).unwrap();
                let fresh = std::thread::scope(|s| {
                    s.spawn(|| partition_schedule(&l.ddg, &m, PartitionOptions::default()))
                        .join()
                        .expect("the fresh run panicked")
                })
                .unwrap();
                assert_eq!(fresh, reused, "{} on {n} clusters", l.name);
            }
        }
    }

    #[test]
    fn collapse_fallback_schedules_are_single_cluster() {
        // The "single-cluster collapse" last resort must live up to its name:
        // every operation of a collapsed schedule sits in cluster 0.  The old
        // forced-placement fallback could grab a unit from *any* cluster.
        let m = clustered(4);
        for l in kernels::all_kernels(LatencyModel::default()) {
            let rewritten = insert_copies(&l.ddg, &LatencyModel::default());
            let r = partition_schedule(&rewritten.ddg, &m, collapse_only()).unwrap();
            assert!(r.schedule.validate(&rewritten.ddg, &m).is_ok(), "{}", l.name);
            for op in rewritten.ddg.op_ids() {
                assert_eq!(
                    r.schedule.cluster_of(&m, op),
                    ClusterId(0),
                    "{}: collapse-fallback schedule escaped cluster 0",
                    l.name
                );
            }
        }
    }

    #[test]
    fn collapse_reports_the_single_cluster_bound_as_mii() {
        // Eight independent loads: ResMII over 4 clusters (4 L/S units) is 2,
        // but the collapsed schedule is constrained by the single L/S unit of
        // cluster 0 — the reported MII must be the bound that actually applied.
        let mut b = DdgBuilder::new(LatencyModel::default());
        b.ops(OpKind::Load, 8);
        let g = b.finish();
        let m = clustered(4);
        let r = partition_schedule(&g, &m, collapse_only()).unwrap();
        assert_eq!(r.res_mii, 2, "machine-wide bound is still reported as ResMII");
        assert_eq!(r.mii, 8, "the single-cluster bound constrained the schedule");
        assert_eq!(r.schedule.ii, 8);
        assert!(r.achieved_mii());
    }

    #[test]
    fn forced_placement_never_escapes_the_eligible_clusters() {
        // A 4-cluster machine whose cluster 0 has no copy unit.  Copy-heavy
        // bodies force placements; the old fallback escaped to any cluster with
        // a copy unit — including non-adjacent ones, breaking the ring
        // invariant.  The engine must stay within the eligible set.
        let mut c0 = ClusterConfig::paper_basic();
        c0.copy_units = 0;
        let clusters = vec![
            c0,
            ClusterConfig::paper_basic(),
            ClusterConfig::paper_basic(),
            ClusterConfig::paper_basic(),
        ];
        let m = Machine::new(
            "asym-4x",
            clusters,
            Some(RingConfig::paper_basic()),
            MachineLatency::default(),
        );
        for l in kernels::all_kernels(LatencyModel::default()) {
            let rewritten = insert_copies(&l.ddg, &LatencyModel::default());
            let r = partition_schedule(&rewritten.ddg, &m, PartitionOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", l.name));
            assert!(r.schedule.validate(&rewritten.ddg, &m).is_ok(), "{}", l.name);
            for e in rewritten.ddg.edges() {
                if e.kind != DepKind::Flow {
                    continue;
                }
                let cs = r.schedule.cluster_of(&m, e.src);
                let cd = r.schedule.cluster_of(&m, e.dst);
                assert!(
                    m.clusters_communicate(cs, cd),
                    "{}: value flows between non-adjacent clusters {cs} -> {cd}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn collapse_with_a_class_missing_from_cluster_zero_is_rejected() {
        // Cluster 0 lacks a copy unit, so a single-cluster collapse of a body
        // containing copies is impossible — the scheduler must say so rather
        // than smuggle the copy into another cluster.
        let mut c0 = ClusterConfig::paper_basic();
        c0.copy_units = 0;
        let m = Machine::new(
            "asym-2x",
            vec![c0, ClusterConfig::paper_basic()],
            Some(RingConfig::paper_basic()),
            MachineLatency::default(),
        );
        let mut b = DdgBuilder::new(LatencyModel::default());
        let p = b.op(OpKind::Add);
        let c = b.op(OpKind::Copy);
        b.flow(p, c);
        let g = b.finish();
        assert!(matches!(
            partition_schedule(&g, &m, collapse_only()),
            Err(SchedError::NoFunctionalUnit { .. })
        ));
    }

    #[test]
    fn long_latency_chain_schedules_on_clusters_without_overflow() {
        // The issue windows of this chain sit near u32::MAX; the historical
        // u32 window scan of the partitioner overflowed there.
        let lat = LatencyModel { load: u32::MAX / 2, mul: u32::MAX / 2, ..Default::default() };
        let mut b = DdgBuilder::new(lat);
        let ld = b.op(OpKind::Load);
        let mu = b.op(OpKind::Mul);
        let tail = b.op(OpKind::Add);
        b.flow(ld, mu);
        b.flow(mu, tail);
        let g = b.finish();
        let m = clustered(2);
        let r = partition_schedule(&g, &m, PartitionOptions::default()).unwrap();
        assert!(r.schedule.validate(&g, &m).is_ok());
        assert_eq!(r.schedule.start_of(tail) as u64, u32::MAX as u64 - 1);
    }

    #[test]
    fn livelocked_attempts_fail_promptly_with_an_unbounded_budget() {
        // Loop 13 of the 32-loop golden corpus (seed 386), with copies, never
        // partitions on six clusters: every II of its window fails and the
        // loop collapses.  Each failure is a livelock of the ring
        // backtracking (placing one operation evicts a neighbour whose
        // re-placement evicts it back), so the engine's state recurs and the
        // attempt ends there.  Without that exit a `u32::MAX` budget spins
        // for ~4·10⁹ placements per II.
        let corpus = vliw_loopgen::generate_corpus(&vliw_loopgen::CorpusConfig::small(32, 386));
        let g = insert_copies(&corpus[13].ddg, &LatencyModel::default()).ddg;
        let m = clustered(6);
        let mii = IiSearch::new(&g, &m).unwrap().mii;
        // A collapsed result reports the single-cluster bound as its MII.
        assert!(partition_schedule(&g, &m, PartitionOptions::default()).unwrap().mii > mii);

        // The search runs on its own thread so a regression fails the test
        // after a deadline instead of hanging it (the thread is then left
        // spinning until the process exits).
        let (tx, rx) = std::sync::mpsc::channel();
        let search = std::thread::spawn(move || {
            let ring = RingPolicy::new(&m);
            let mut search = IiSearch::new(&g, &m).unwrap();
            let failed = search.window(mii..=3 * mii + 64, |_| u32::MAX, &ring).is_none();
            tx.send(failed).unwrap();
        });
        let failed = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("an unbounded-budget attempt did not return");
        search.join().expect("the search thread panicked");
        assert!(failed, "a livelocked II unexpectedly partitioned");
    }
}
