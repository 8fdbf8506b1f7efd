//! The traced replay: re-runs a workload's compile stages through each
//! layer's public entry point, timing every call from the benchmark's side.
//!
//! For each (machine point, loop) the workload compiled, the replay performs
//! the pipeline's steps in its order — `select_unroll_factor` +
//! `unroll_ddg`, `insert_copies`, `modulo_schedule` or `partition_schedule`,
//! `use_lifetimes` + `allocate_queues` — and, where the workload's drivers
//! call them, `verify_with_allocation` and the bounds analyzer.  Each call is
//! bracketed by a span (a start/end pair on the benchmark's clock); the
//! spans' totals, percentiles and outcome counts are the per-layer metrics.
//! The replayed II must equal the session's, or the replay is not measuring
//! what the workload ran.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vliw_core::bounds::BoundsAnalyzer;
use vliw_core::ddg::Ddg;
use vliw_core::verify::verify_with_allocation;
use vliw_core::{
    allocate_queues, insert_copies, modulo_schedule, partition_schedule, select_unroll_factor,
    unroll_ddg, use_lifetimes, CompilerConfig, LatencyModel, Schedule, Session,
};

use crate::checks::IiQuality;
use crate::stats::{median, percentile, Metrics};

/// Partitioner outcomes at one cluster count.
#[derive(Debug, Default, Clone)]
pub struct PartitionStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub attempts: u64,
    pub collapsed: u64,
    pub collapsed_ns: u64,
    pub quality: IiQuality,
}

impl PartitionStats {
    fn merge(&mut self, o: &PartitionStats) {
        self.calls += o.calls;
        self.busy_ns += o.busy_ns;
        self.attempts += o.attempts;
        self.collapsed += o.collapsed;
        self.collapsed_ns += o.collapsed_ns;
        self.quality.merge(o.quality);
    }

    fn put(&self, m: &mut Metrics, prefix: &str) {
        let per_call = |x: u64| if self.calls == 0 { 0.0 } else { x as f64 / self.calls as f64 };
        m.put(format!("{prefix}.attempts_per_call"), per_call(self.attempts), "count");
        m.put(format!("{prefix}.collapse_frac"), per_call(self.collapsed), "ratio");
        let share =
            if self.busy_ns == 0 { 0.0 } else { self.collapsed_ns as f64 / self.busy_ns as f64 };
        m.put(format!("{prefix}.collapse_busy_share"), share, "ratio");
        m.put(format!("{prefix}.ii_over_mii"), self.quality.geomean(), "ratio");
    }
}

/// Accumulated spans and outcome counts of every replayed layer.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub unroll_ns: u64,
    pub unroll_ops_out: u64,
    pub copies_ns: u64,
    pub copies_inserted: u64,
    pub sched_ns: Vec<u64>,
    pub partition_ns: Vec<u64>,
    /// Partitioner outcomes keyed by cluster count.
    pub partition: Vec<(usize, PartitionStats)>,
    pub alloc_ns: u64,
    pub queues: u64,
    pub verify_calls: u64,
    pub verify_ns: u64,
    pub bounds_calls: u64,
    pub bounds_ns: u64,
    /// Replayed IIs that differ from the session's compilation.
    pub mismatches: u64,
    pub pairs: u64,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Layers {
    fn merge(&mut self, o: Layers) {
        self.unroll_ns += o.unroll_ns;
        self.unroll_ops_out += o.unroll_ops_out;
        self.copies_ns += o.copies_ns;
        self.copies_inserted += o.copies_inserted;
        self.sched_ns.extend(o.sched_ns);
        self.partition_ns.extend(o.partition_ns);
        for (clusters, stats) in o.partition {
            self.partition_at(clusters).merge(&stats);
        }
        self.alloc_ns += o.alloc_ns;
        self.queues += o.queues;
        self.verify_calls += o.verify_calls;
        self.verify_ns += o.verify_ns;
        self.bounds_calls += o.bounds_calls;
        self.bounds_ns += o.bounds_ns;
        self.mismatches += o.mismatches;
        self.pairs += o.pairs;
    }

    fn partition_at(&mut self, clusters: usize) -> &mut PartitionStats {
        let pos = match self.partition.iter().position(|(c, _)| *c == clusters) {
            Some(pos) => pos,
            None => {
                self.partition.push((clusters, PartitionStats::default()));
                self.partition.len() - 1
            }
        };
        &mut self.partition[pos].1
    }

    /// Total busy time of every replayed layer, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.unroll_ns
            + self.copies_ns
            + self.sched_ns.iter().sum::<u64>()
            + self.partition_ns.iter().sum::<u64>()
            + self.alloc_ns
            + self.verify_ns
            + self.bounds_ns
    }

    /// Replays one (point, loop) pair; returns the replayed II (`None` when
    /// the scheduler fails, as the pipeline would).
    fn replay_one(
        &mut self,
        cfg: &CompilerConfig,
        index: usize,
        lp: &vliw_core::Loop,
        analyzer: Option<&BoundsAnalyzer>,
    ) -> Option<u32> {
        let machine = &cfg.machine;
        let latencies: LatencyModel = *machine.latencies();
        self.pairs += 1;

        let unrolled: Option<Ddg> = cfg.unroll.then(|| {
            let t = Instant::now();
            let factor = select_unroll_factor(&lp.ddg, machine, cfg.max_unroll);
            let body = unroll_ddg(&lp.ddg, factor).ddg;
            self.unroll_ns += ns_since(t);
            self.unroll_ops_out += body.num_ops() as u64;
            body
        });
        let base = unrolled.as_ref().unwrap_or(&lp.ddg);
        let copied: Option<Ddg> = cfg.use_copies.then(|| {
            let t = Instant::now();
            let ins = insert_copies(base, &latencies);
            self.copies_ns += ns_since(t);
            self.copies_inserted += ins.num_copies() as u64;
            ins.ddg
        });
        let body = copied.as_ref().unwrap_or(base);

        let schedule: Schedule = if machine.is_clustered() {
            let t = Instant::now();
            let result = partition_schedule(body, machine, cfg.partition);
            let ns = ns_since(t);
            self.partition_ns.push(ns);
            let stats = self.partition_at(machine.num_clusters());
            stats.calls += 1;
            stats.busy_ns += ns;
            let r = result.ok()?;
            // The partitioned search covers `start..=max` II values; any
            // attempt beyond that window is the single-cluster collapse.
            let lower = r.res_mii.max(r.rec_mii);
            let start = lower.max(cfg.partition.min_ii).max(1);
            let max = cfg.partition.max_ii.unwrap_or(start.saturating_mul(3).saturating_add(64));
            let collapsed = r.attempts > max.saturating_sub(start) + 1;
            stats.attempts += u64::from(r.attempts);
            if collapsed {
                stats.collapsed += 1;
                stats.collapsed_ns += ns;
            }
            stats.quality.add(r.schedule.ii, r.res_mii, r.rec_mii);
            r.schedule
        } else {
            let t = Instant::now();
            let result = modulo_schedule(body, machine, cfg.sched);
            self.sched_ns.push(ns_since(t));
            result.ok()?.schedule
        };

        let t = Instant::now();
        let lifetimes = use_lifetimes(body, &schedule);
        let allocation = allocate_queues(&lifetimes, schedule.ii);
        self.alloc_ns += ns_since(t);
        self.queues += allocation.num_queues() as u64;

        if let Some(analyzer) = analyzer {
            let t = Instant::now();
            let v = verify_with_allocation(body, machine, &schedule, &allocation);
            self.verify_ns += ns_since(t);
            self.verify_calls += 1;
            std::hint::black_box(v);
            let t = Instant::now();
            std::hint::black_box(analyzer.analyze(index, lp, machine));
            self.bounds_ns += ns_since(t);
            self.bounds_calls += 1;
        }
        Some(schedule.ii)
    }
}

/// Replays every (point, loop) pair of `session` on `threads` workers.
/// `verify_and_bounds` adds the verifier and bounds calls the pruned sweep
/// makes per pair.  Run it after the session's counters have been read: the
/// II cross-check consults the memo store.
pub fn replay(
    session: &Session,
    points: &[CompilerConfig],
    verify_and_bounds: bool,
    threads: usize,
) -> Layers {
    let loops = session.num_loops();
    let total = points.len() * loops;
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Layers::default());
    let analyzer = verify_and_bounds.then(|| BoundsAnalyzer::new(LatencyModel::default()));
    let compilers: Vec<_> = points.iter().map(|p| session.compiler(p.clone())).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Layers::default();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    let (p, i) = (k / loops, k % loops);
                    let replayed =
                        local.replay_one(&points[p], i, &session.corpus()[i], analyzer.as_ref());
                    let compiled = compilers[p].map_ok(i, |c| c.ii());
                    if replayed != compiled {
                        local.mismatches += 1;
                    }
                }
                merged.lock().expect("a replay worker panicked").merge(local);
            });
        }
    });
    merged.into_inner().expect("a replay worker panicked")
}

/// Adds the compile-stage layer metrics (`partition`, `sched`, `unroll`,
/// `qrf`, `verify`, `bounds`) of `layers` to `m`.
pub fn put_stage_metrics(m: &mut Metrics, layers: &Layers) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |v: &[u64]| -> Vec<f64> { v.iter().map(|&ns| ns as f64 / 1e3).collect() };
    let part_us = us(&layers.partition_ns);
    let mut all = PartitionStats::default();
    for (_, s) in &layers.partition {
        all.merge(s);
    }
    m.put("partition.calls", all.calls as f64, "count");
    m.put("partition.busy_ms", ms(all.busy_ns), "ms");
    m.put("partition.p50_us", median(&part_us), "us");
    m.put("partition.p99_us", percentile(&part_us, 0.99), "us");
    all.put(m, "partition");
    for clusters in [4, 5, 6] {
        let at = layers
            .partition
            .iter()
            .find(|(c, _)| *c == clusters)
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        at.put(m, &format!("partition.c{clusters}"));
    }
    let sched_us = us(&layers.sched_ns);
    m.put("sched.calls", layers.sched_ns.len() as f64, "count");
    m.put("sched.busy_ms", ms(layers.sched_ns.iter().sum()), "ms");
    m.put("sched.p99_us", percentile(&sched_us, 0.99), "us");
    m.put("unroll.busy_ms", ms(layers.unroll_ns), "ms");
    m.put("unroll.ops_out", layers.unroll_ops_out as f64, "count");
    m.put("qrf.copies_busy_ms", ms(layers.copies_ns), "ms");
    m.put("qrf.copies_inserted", layers.copies_inserted as f64, "count");
    m.put("qrf.alloc_busy_ms", ms(layers.alloc_ns), "ms");
    m.put("qrf.queues", layers.queues as f64, "count");
    m.put("verify.calls", layers.verify_calls as f64, "count");
    m.put("verify.busy_ms", ms(layers.verify_ns), "ms");
    m.put("bounds.calls", layers.bounds_calls as f64, "count");
    m.put("bounds.busy_ms", ms(layers.bounds_ns), "ms");
}
