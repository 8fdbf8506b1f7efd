//! The static admissibility analyzer.
//!
//! For one (loop, machine-shape) pair, [`BoundsAnalyzer::analyze`] derives
//! sound lower bounds **without invoking the compiler**, by reconstructing
//! exactly the transformed body the pipeline would schedule (unroll-factor
//! selection + unrolling + copy insertion, the `paper_defaults` configuration)
//! and reading the bounds off its arithmetic:
//!
//! * **ResMII** — the largest per-class `ceil(ops / units)` row, copy row
//!   included, against the shape's functional-unit counts;
//! * **RecMII** — the recurrence bound of the transformed body, which depends
//!   only on the loop and the unroll factor, so it is computed once and cached
//!   across every shape that selects the same factor;
//! * **min-live storage** — any modulo schedule at `II <= ii_cap` keeps at
//!   least `ceil(sum of flow-edge latencies / ii_cap)` values live in steady
//!   state (each flow lifetime spans at least its latency), and the scheduler
//!   never accepts an II above `ii_cap`, so a config whose private + link
//!   pools store fewer values than that can be ruled out by pigeonhole.
//!
//! The per-`(loop, factor)` body summary (class counts, RecMII, flow-latency
//! sum) is the expensive part; it is cached behind a mutex so a sweep over 60
//! shapes builds each loop's bodies at most once per distinct unroll factor.
//! The selected factor itself is memoized per `(loop, machine-wide class
//! counts)` — the only machine input `select_unroll_factor` reads — so a
//! repeated shape never recomputes the source loop's RecMII either.
//!
//! Both memos are keyed by corpus index, so one analyzer serves one corpus:
//! a `vliw-core` `Session` owns one for its lifetime, and every sweep request
//! on that session after the first reads its bounds from the memos.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use vliw_ddg::{DepKind, LatencyModel, Loop, OpClass};
use vliw_machine::{ClusterId, Machine, MachineConfig};
use vliw_qrf::insert_copies;
use vliw_sched::{rec_mii, resource_bound};
use vliw_unroll::{select_unroll_factor, unroll_ddg, DEFAULT_MAX_FACTOR};

/// Total value slots of a config: the pigeonhole capacity every live value
/// competes for, summed over the private pools (`clusters · q · c`) and the
/// directed link pools (`links · q · d`).
pub fn value_slots(cfg: &MachineConfig) -> usize {
    cfg.clusters * cfg.queues_per_cluster * cfg.queue_capacity
        + cfg.directed_links() * cfg.queues_per_cluster * cfg.link_depth
}

/// Lower bounds for one (loop, shape) pair.
///
/// All bounds are **sound**: the real compiler, scheduling the same loop on
/// any config of the shape, achieves `II >= mii()` and keeps at least
/// `min_live` values live in steady state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBounds {
    /// Name of the analyzed loop.
    pub loop_name: String,
    /// Unroll factor the compiler will select for this shape.
    pub unroll_factor: u32,
    /// Operations in the transformed (unrolled + copies) body.
    pub body_ops: usize,
    /// Shape-only resource bound over every class, copy row included
    /// (`u32::MAX` when a class has operations but no units on the shape).
    pub res_mii: u32,
    /// Recurrence bound of the transformed body (machine-independent given
    /// the unroll factor).
    pub rec_mii: u32,
    /// Sum of flow-edge latencies of the transformed body, the numerator of
    /// the min-live bound.
    pub sum_flow_latency: u64,
    /// Largest II the scheduler's default search would accept for this body
    /// on this shape: `2·MII + 64` for plain IMS, and for the partitioner the
    /// cap of its single-cluster collapse fallback (`3·collapse_MII + 64`,
    /// which dominates the partitioned search's own `3·MII + 64`).
    pub ii_cap: u32,
    /// Lower bound on simultaneously live values at any accepted II.
    pub min_live: usize,
}

impl LoopBounds {
    /// The combined lower bound on the initiation interval.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii).max(1)
    }

    /// Lower bound on simultaneously live values at a specific `ii`
    /// (decreasing in `ii`; [`LoopBounds::min_live`] evaluates it at
    /// [`LoopBounds::ii_cap`]).
    pub fn min_live_at(&self, ii: u32) -> usize {
        if ii == 0 {
            return 0;
        }
        self.sum_flow_latency.div_ceil(u64::from(ii)) as usize
    }
}

/// Everything about a transformed body that the bounds need and that depends
/// only on (loop, unroll factor) — cached across shapes.
#[derive(Debug, Clone, Copy)]
struct BodySummary {
    class_counts: [usize; OpClass::COUNT],
    body_ops: usize,
    rec_mii: u32,
    sum_flow_latency: u64,
}

impl BodySummary {
    /// The scheduler's resource bound of the body on `units(class)` units per
    /// class, `u32::MAX` when a class with operations has no unit.
    fn res_bound(&self, units: impl Fn(OpClass) -> usize) -> u32 {
        resource_bound(&self.class_counts, units).unwrap_or(u32::MAX)
    }
}

/// A poisoned cache only ever holds valid summaries, so analysis continues
/// through it instead of panicking.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The analyzer: owns the latency model the transformation uses, the
/// per-`(loop, factor)` body-summary cache and the per-`(loop, class counts)`
/// unroll-factor memo.
///
/// One analyzer serves a whole corpus; `analyze` is `&self` and thread-safe,
/// so the sweep executor's workers share the memos.  Building one allocates
/// nothing: the maps grow on first use.
#[derive(Debug)]
pub struct BoundsAnalyzer {
    latencies: LatencyModel,
    max_unroll: u32,
    cache: Mutex<HashMap<(usize, u32), BodySummary>>,
    factors: Mutex<HashMap<(usize, [usize; OpClass::COUNT]), u32>>,
}

impl BoundsAnalyzer {
    /// An analyzer mirroring the pipeline's `paper_defaults` transformation
    /// (copies on, unrolling on with factor ≤ 4) for the given latency model.
    pub fn new(latencies: LatencyModel) -> Self {
        BoundsAnalyzer {
            latencies,
            max_unroll: DEFAULT_MAX_FACTOR,
            cache: Mutex::new(HashMap::new()),
            factors: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the unroll-factor cap (must match the compiler configuration
    /// being predicted).  Factors selected under the old cap are forgotten.
    pub fn with_max_unroll(mut self, max_unroll: u32) -> Self {
        self.max_unroll = max_unroll;
        self.factors.get_mut().unwrap_or_else(|poisoned| poisoned.into_inner()).clear();
        self
    }

    /// Entries in the two memos, `(body summaries, unroll factors)`: how many
    /// bodies and factor selections the analyzer has derived so far.
    pub fn memo_sizes(&self) -> (usize, usize) {
        (lock(&self.cache).len(), lock(&self.factors).len())
    }

    /// Derives the certified bounds of `lp` on the shape of `machine`.
    ///
    /// `loop_index` keys the cross-shape memos (callers iterate a fixed
    /// corpus, so the index is stable and cheaper than hashing the name).
    /// Only the machine's *shape* is consulted — functional-unit counts and
    /// whether it is clustered — never its storage budgets, so a probe
    /// machine and every storage config of the shape yield identical bounds.
    pub fn analyze(&self, loop_index: usize, lp: &Loop, machine: &Machine) -> LoopBounds {
        let _span = vliw_obs::span!("bounds", loop_index);
        let units = machine.class_counts();
        let factor = self.unroll_factor(loop_index, lp, machine, units);
        let summary = self.body_summary(loop_index, lp, factor);

        let res_mii = summary.res_bound(|class| units[class.index()]);
        let mii = res_mii.max(summary.rec_mii).max(1);
        // The largest II the scheduler's default search accepts, which anchors
        // the min-live bound.  The partitioner's last-resort collapse fallback
        // schedules the whole body on cluster 0 under its own cap, derived
        // from the *single-cluster* resource bound — that bound dominates the
        // machine-wide one (one cluster has fewer units), so the collapse cap
        // is the binding limit on clustered shapes.
        let ii_cap = if machine.is_clustered() {
            let collapse_lower = summary
                .res_bound(|class| machine.fu_ids_of_class_in_cluster(ClusterId(0), class).len())
                .max(summary.rec_mii);
            collapse_lower.max(mii).saturating_mul(3).saturating_add(64)
        } else {
            mii.saturating_mul(2).saturating_add(64)
        };
        let min_live = summary.sum_flow_latency.div_ceil(u64::from(ii_cap)) as usize;

        LoopBounds {
            loop_name: lp.name.clone(),
            unroll_factor: factor,
            body_ops: summary.body_ops,
            res_mii,
            rec_mii: summary.rec_mii,
            sum_flow_latency: summary.sum_flow_latency,
            ii_cap,
            min_live,
        }
    }

    /// The factor [`select_unroll_factor`] picks for `lp` on `machine`,
    /// whose machine-wide class counts are `units`: besides the loop and the
    /// analyzer's cap, those counts are all the selection reads.
    fn unroll_factor(
        &self,
        loop_index: usize,
        lp: &Loop,
        machine: &Machine,
        units: [usize; OpClass::COUNT],
    ) -> u32 {
        if let Some(&factor) = lock(&self.factors).get(&(loop_index, units)) {
            return factor;
        }
        let factor = select_unroll_factor(&lp.ddg, machine, self.max_unroll);
        lock(&self.factors).insert((loop_index, units), factor);
        factor
    }

    fn body_summary(&self, loop_index: usize, lp: &Loop, factor: u32) -> BodySummary {
        if let Some(s) = lock(&self.cache).get(&(loop_index, factor)) {
            return *s;
        }
        let unrolled = unroll_ddg(&lp.ddg, factor);
        let ins = insert_copies(&unrolled.ddg, &self.latencies);
        let sum_flow_latency =
            ins.ddg.edges().filter(|e| e.kind == DepKind::Flow).map(|e| u64::from(e.latency)).sum();
        let summary = BodySummary {
            class_counts: ins.ddg.class_counts(),
            body_ops: ins.ddg.num_ops(),
            rec_mii: rec_mii(&ins.ddg),
            sum_flow_latency,
        };
        lock(&self.cache).insert((loop_index, factor), summary);
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::kernels;
    use vliw_partition::{partition_schedule, PartitionOptions};
    use vliw_qrf::{allocate_queues, use_lifetimes};
    use vliw_sched::{modulo_schedule, ImsOptions};

    fn lat() -> LatencyModel {
        LatencyModel::default()
    }

    /// The transformed body the analyzer predicts, rebuilt the compiler's way.
    fn transformed(lp: &Loop, machine: &Machine) -> vliw_ddg::Ddg {
        let factor = select_unroll_factor(&lp.ddg, machine, DEFAULT_MAX_FACTOR);
        insert_copies(&unroll_ddg(&lp.ddg, factor).ddg, &lat()).ddg
    }

    #[test]
    fn bounds_match_the_schedulers_mii_arithmetic() {
        let analyzer = BoundsAnalyzer::new(lat());
        let machine = Machine::paper_clustered(4, lat());
        for (i, lp) in kernels::all_kernels(lat()).iter().enumerate() {
            let bounds = analyzer.analyze(i, lp, &machine);
            let body = transformed(lp, &machine);
            let r = partition_schedule(&body, &machine, PartitionOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", lp.name));
            assert_eq!(bounds.res_mii, r.res_mii, "{}", lp.name);
            assert_eq!(bounds.rec_mii, r.rec_mii, "{}", lp.name);
            assert_eq!(bounds.mii(), r.mii, "{}", lp.name);
            assert!(r.schedule.ii >= bounds.mii(), "{}", lp.name);
            assert_eq!(bounds.body_ops, body.num_ops(), "{}", lp.name);
        }
    }

    #[test]
    fn bounds_are_sound_on_single_cluster_machines_too() {
        let analyzer = BoundsAnalyzer::new(lat());
        let machine = Machine::single_cluster(6, 8, 32, lat());
        for (i, lp) in kernels::all_kernels(lat()).iter().enumerate() {
            let bounds = analyzer.analyze(i, lp, &machine);
            let body = transformed(lp, &machine);
            let r = modulo_schedule(&body, &machine, ImsOptions::default()).unwrap();
            assert!(r.schedule.ii >= bounds.mii(), "{}", lp.name);
            assert!(r.schedule.ii <= bounds.ii_cap, "{}", lp.name);
        }
    }

    #[test]
    fn min_live_never_exceeds_the_allocated_slots() {
        let analyzer = BoundsAnalyzer::new(lat());
        let machine = Machine::paper_clustered(2, lat());
        for (i, lp) in kernels::all_kernels(lat()).iter().enumerate() {
            let bounds = analyzer.analyze(i, lp, &machine);
            let body = transformed(lp, &machine);
            let r = partition_schedule(&body, &machine, PartitionOptions::default()).unwrap();
            let alloc = allocate_queues(&use_lifetimes(&body, &r.schedule), r.schedule.ii);
            let slots: usize = alloc.queue_depths.iter().sum();
            assert!(
                bounds.min_live <= slots,
                "{}: min_live {} > allocated slots {slots}",
                lp.name,
                bounds.min_live
            );
            // The bound tightens as the II drops, and the achieved II is
            // inside the certified cap.
            assert!(bounds.min_live_at(r.schedule.ii) >= bounds.min_live, "{}", lp.name);
        }
    }

    #[test]
    fn ii_limit_certificate_predicts_the_schedulers_refusal() {
        let analyzer = BoundsAnalyzer::new(lat());
        let machine = Machine::single_cluster(6, 8, 32, lat());
        let lp = kernels::dot_product(lat(), 100);
        let bounds = analyzer.analyze(0, &lp, &machine);
        assert!(bounds.mii() > 1, "dot product has a recurrence");
        let body = transformed(&lp, &machine);
        let opts = ImsOptions { max_ii: Some(bounds.mii() - 1), ..ImsOptions::default() };
        assert!(
            modulo_schedule(&body, &machine, opts).is_err(),
            "the scheduler must refuse every II below the MII"
        );
    }

    #[test]
    fn the_ii_cap_covers_the_partitioners_collapse_fallback() {
        // Force the collapse fallback: an explicit max_ii below the MII skips
        // the partitioned search entirely, and the fallback's own cap takes
        // over.  The certified ii_cap must still bound the accepted II, or
        // the min-live pigeonhole would overstate the live floor.
        let analyzer = BoundsAnalyzer::new(lat());
        let machine = Machine::paper_clustered(4, lat());
        for (i, lp) in kernels::all_kernels(lat()).iter().enumerate() {
            let bounds = analyzer.analyze(i, lp, &machine);
            let body = transformed(lp, &machine);
            let opts = PartitionOptions { max_ii: Some(0), ..PartitionOptions::default() };
            if let Ok(r) = partition_schedule(&body, &machine, opts) {
                assert!(
                    r.schedule.ii <= bounds.ii_cap,
                    "{}: collapsed II {} above cap {}",
                    lp.name,
                    r.schedule.ii,
                    bounds.ii_cap
                );
            }
        }
    }

    #[test]
    fn the_body_summary_is_cached_per_unroll_factor() {
        let analyzer = BoundsAnalyzer::new(lat());
        let lp = kernels::daxpy(lat(), 100);
        let a = analyzer.analyze(3, &lp, &Machine::paper_clustered(4, lat()));
        let b = analyzer.analyze(3, &lp, &Machine::paper_clustered(4, lat()));
        assert_eq!(a, b);
        assert_eq!(lock(&analyzer.cache).len(), 1);
        // A different shape may pick a different factor; the cache grows by at
        // most one entry per distinct factor.
        let _ = analyzer.analyze(3, &lp, &Machine::paper_clustered(16, lat()));
        assert!(lock(&analyzer.cache).len() <= 2);
    }

    #[test]
    fn the_factor_memo_is_keyed_by_class_counts() {
        use vliw_machine::{FuMix, Topology};
        let analyzer = BoundsAnalyzer::new(lat());
        let lp = kernels::daxpy(lat(), 100);
        // Ring and crossbar machines of one cluster count share their class
        // counts, so the second shape reuses the first one's factor.
        let shape = |topology| MachineConfig {
            clusters: 4,
            fu_mix: FuMix::Basic,
            queues_per_cluster: 2,
            queue_capacity: 2,
            link_depth: 2,
            topology,
        };
        let ring = shape(Topology::Ring).probe_machine(lat());
        let xbar = shape(Topology::Crossbar).probe_machine(lat());
        let _ = analyzer.analyze(0, &lp, &ring);
        let _ = analyzer.analyze(0, &lp, &xbar);
        assert_eq!(analyzer.memo_sizes().1, 1);
        let _ = analyzer.analyze(0, &lp, &Machine::single_cluster(6, 8, 32, lat()));
        assert_eq!(analyzer.memo_sizes().1, 2);
        // A new cap forgets the factors selected under the old one.
        let capped = analyzer.with_max_unroll(1);
        assert_eq!(capped.memo_sizes().1, 0);
        assert_eq!(capped.analyze(0, &lp, &ring).unroll_factor, 1);
    }

    #[test]
    fn a_shared_analyzer_equals_a_fresh_one_on_every_huge_shape() {
        // Every shape twice, the second pass in reverse order, so each
        // analysis after the first pass is answered from the memos.
        let corpus = vliw_loopgen::generate_corpus(&vliw_loopgen::CorpusConfig::small(32, 386));
        let space = vliw_machine::SweepGrid::Huge.space();
        let per_shape = space.num_configs() / space.num_shapes();
        let probes: Vec<Machine> =
            space.configs().chunks(per_shape).map(|shape| shape[0].probe_machine(lat())).collect();
        assert_eq!(probes.len(), space.num_shapes());
        let shared = BoundsAnalyzer::new(lat());
        for probe in probes.iter().chain(probes.iter().rev()) {
            for (i, lp) in corpus.iter().enumerate() {
                let fresh = BoundsAnalyzer::new(lat()).analyze(i, lp, probe);
                assert_eq!(shared.analyze(i, lp, probe), fresh, "{} on {}", lp.name, probe.name());
            }
        }
    }

    #[test]
    fn value_slots_sum_private_and_link_pools() {
        use vliw_machine::{FuMix, Topology};
        let cfg = MachineConfig {
            clusters: 4,
            fu_mix: FuMix::Basic,
            queues_per_cluster: 2,
            queue_capacity: 3,
            link_depth: 5,
            topology: Topology::Ring,
        };
        // 4 clusters · 2 · 3 private + 8 ring links · 2 · 5 link slots.
        assert_eq!(value_slots(&cfg), 24 + 80);
        let xbar = MachineConfig { topology: Topology::Crossbar, ..cfg };
        assert_eq!(value_slots(&xbar), 24 + 12 * 2 * 5);
    }
}
