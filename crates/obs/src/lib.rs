//! `vliw-obs`: zero-cost-when-disabled instrumentation for the compile /
//! simulate / verify stack.
//!
//! The crate is deliberately std-only (no external deps — every stage crate
//! links it, so it sits below the whole dependency graph) and unsafe-free.
//!
//! # Model
//!
//! A *span* brackets one unit of pipeline work — one IMS placement, one queue
//! allocation, one persist read — and is attributed to a fixed [`Stage`]
//! taxonomy: `corpusgen → ddg/copies → unroll → sched/ims | sched/partition →
//! qrf/alloc → sim → verify → bounds → persist/io`, plus the driver work
//! around the pipeline: `sweep/aggregate → sweep/pareto → report/encode`
//! (none of which encloses a pipeline stage).  Recording is off by default;
//! a [`span!`] at a disabled call site costs one relaxed atomic load and a
//! branch, which is what lets the instrumented hot paths ship enabled-by-code
//! in release builds.
//!
//! When enabled (see [`enable`]), every thread appends begin/end events to its
//! own buffer — racing executor workers never contend on a shared lock — and
//! the buffers are registered in a process-global list so [`snapshot`] can
//! collect them at the end of a run.  Two exporters consume a snapshot:
//! [`chrome_trace`] renders Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` or Perfetto) and [`stage_stats`] aggregates per-stage
//! duration histograms (count / total / self time / p50 / p99) for the text
//! and JSON breakdown tables.
//!
//! ```
//! vliw_obs::enable();
//! {
//!     let _span = vliw_obs::span!("sched/ims", 7);
//!     // ... place one loop ...
//! }
//! let threads = vliw_obs::snapshot();
//! let trace = vliw_obs::chrome_trace(&threads);
//! assert!(trace.contains("sched/ims"));
//! ```
//!
//! [`LatencyHistogram`] is the daemon-side companion: a fixed-bucket,
//! atomically-updated histogram with a Prometheus text-exposition renderer,
//! used by `vliw-serve` for per-request-type latencies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The fixed stage taxonomy every span is attributed to.
///
/// Discriminants are dense so aggregation can index arrays by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Synthetic corpus generation (`vliw-loopgen`).
    Corpusgen = 0,
    /// DDG transformation: copy-op insertion ahead of clustered scheduling.
    Ddg = 1,
    /// Unroll-factor selection and kernel unrolling.
    Unroll = 2,
    /// Iterative modulo scheduling (single-cluster placement).
    Ims = 3,
    /// Partitioned scheduling (clustered placement).
    Partition = 4,
    /// Queue-register-file allocation.
    Qrf = 5,
    /// Cycle-accurate simulation.
    Sim = 6,
    /// Static schedule verification.
    Verify = 7,
    /// Static admissibility analysis (`vliw-bounds`): lower bounds the
    /// design-space sweep reads without compiling.
    Bounds = 8,
    /// Persistent-store reads and writes.
    Persist = 9,
    /// Design-space sweep aggregation: one machine shape's verdict counts,
    /// report rows and `B004-STORAGE` tally, after its witness compiles.
    SweepAggregate = 10,
    /// The sweep's per-shape Pareto frontier over every row.
    SweepPareto = 11,
    /// Report encoding (JSON or text) and its write to stdout.
    ReportEncode = 12,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 13] = [
        Stage::Corpusgen,
        Stage::Ddg,
        Stage::Unroll,
        Stage::Ims,
        Stage::Partition,
        Stage::Qrf,
        Stage::Sim,
        Stage::Verify,
        Stage::Bounds,
        Stage::Persist,
        Stage::SweepAggregate,
        Stage::SweepPareto,
        Stage::ReportEncode,
    ];

    /// The stable name used in traces, tables and the [`span!`] macro.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Corpusgen => "corpusgen",
            Stage::Ddg => "ddg/copies",
            Stage::Unroll => "unroll",
            Stage::Ims => "sched/ims",
            Stage::Partition => "sched/partition",
            Stage::Qrf => "qrf/alloc",
            Stage::Sim => "sim",
            Stage::Verify => "verify",
            Stage::Bounds => "bounds",
            Stage::Persist => "persist/io",
            Stage::SweepAggregate => "sweep/aggregate",
            Stage::SweepPareto => "sweep/pareto",
            Stage::ReportEncode => "report/encode",
        }
    }
}

/// One recorded begin or end mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Which pipeline stage the enclosing span belongs to.
    pub stage: Stage,
    /// Free-form span argument (conventionally the loop index; 0 when unused).
    pub arg: u64,
    /// `true` for the begin mark, `false` for the end mark.
    pub begin: bool,
    /// Nanoseconds since the trace epoch ([`enable`] pins it).
    pub ts_ns: u64,
}

/// One thread's recorded events, in recording order (hence non-decreasing
/// `ts_ns`, properly nested).
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// Dense process-local thread id (assigned at first recording).
    pub tid: u64,
    /// Thread label ("main", "worker-3", ...).
    pub name: String,
    /// The begin/end marks this thread recorded.
    pub events: Vec<Event>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static REGISTRY: Mutex<Vec<Arc<ThreadLog>>> = Mutex::new(Vec::new());

struct ThreadLog {
    tid: u64,
    name: Mutex<String>,
    events: Mutex<Vec<Event>>,
}

/// A poisoned instrumentation buffer only ever holds valid (if truncated)
/// events, so recording continues through it instead of panicking.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static LOG: std::cell::OnceCell<Arc<ThreadLog>> = const { std::cell::OnceCell::new() };
}

fn init_log() -> Arc<ThreadLog> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current().name().unwrap_or("thread").to_string();
    let log = Arc::new(ThreadLog { tid, name: Mutex::new(name), events: Mutex::new(Vec::new()) });
    lock(&REGISTRY).push(Arc::clone(&log));
    log
}

/// Runs `f` on the calling thread's log without cloning the `Arc` — `record`
/// is the per-event hot path, so it stays one TLS access and one
/// uncontended lock.
fn with_local_log<R>(f: impl FnOnce(&ThreadLog) -> R) -> R {
    LOG.with(|cell| f(cell.get_or_init(init_log)))
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on, pinning the trace epoch on first call.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off.  Already-recorded events stay buffered until
/// [`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being recorded.  This is the whole cost of a
/// disabled span: one relaxed load and a branch.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops every buffered event (buffers stay registered).
pub fn clear() {
    for log in lock(&REGISTRY).iter() {
        lock(&log.events).clear();
    }
}

/// Labels the calling thread `worker-{index}` in subsequent snapshots.  The
/// work-stealing executor calls this as each worker starts; a no-op while
/// recording is disabled.
pub fn register_worker(index: usize) {
    if !is_enabled() {
        return;
    }
    with_local_log(|log| *lock(&log.name) = format!("worker-{index}"));
}

fn record(stage: Stage, arg: u64, begin: bool) {
    let ts_ns = now_ns();
    with_local_log(|log| lock(&log.events).push(Event { stage, arg, begin, ts_ns }));
}

/// An RAII span: records a begin mark on creation (when enabled) and the
/// matching end mark on drop.  Created via [`span`] or the [`span!`] macro.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct SpanGuard {
    stage: Stage,
    arg: u64,
    armed: bool,
}

/// Opens a span of `stage`.  `arg` is attached to the begin event
/// (conventionally the loop index; pass 0 when there is no natural argument).
#[inline]
pub fn span(stage: Stage, arg: u64) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { stage, arg, armed: false };
    }
    record(stage, arg, true);
    SpanGuard { stage, arg, armed: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        // `armed` (not a fresh `is_enabled()` check) decides: a span opened
        // while enabled always closes, and one opened while disabled never
        // emits a dangling end mark if tracing switches on mid-span.
        if self.armed {
            record(self.stage, self.arg, false);
        }
    }
}

#[doc(hidden)]
#[macro_export]
macro_rules! __span_arg {
    () => {
        0u64
    };
    ($arg:expr) => {
        ($arg) as u64
    };
}

/// Opens a [`SpanGuard`] for a stage named by its taxonomy string, with an
/// optional argument: `let _s = vliw_obs::span!("sched/ims", loop_index);`.
/// The string is matched at macro-expansion time, so a typo is a compile
/// error, not a silently unknown stage.
#[macro_export]
macro_rules! span {
    ("corpusgen" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Corpusgen, $crate::__span_arg!($($arg)?))
    };
    ("ddg/copies" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Ddg, $crate::__span_arg!($($arg)?))
    };
    ("unroll" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Unroll, $crate::__span_arg!($($arg)?))
    };
    ("sched/ims" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Ims, $crate::__span_arg!($($arg)?))
    };
    ("sched/partition" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Partition, $crate::__span_arg!($($arg)?))
    };
    ("qrf/alloc" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Qrf, $crate::__span_arg!($($arg)?))
    };
    ("sim" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Sim, $crate::__span_arg!($($arg)?))
    };
    ("verify" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Verify, $crate::__span_arg!($($arg)?))
    };
    ("bounds" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Bounds, $crate::__span_arg!($($arg)?))
    };
    ("persist/io" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::Persist, $crate::__span_arg!($($arg)?))
    };
    ("sweep/aggregate" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::SweepAggregate, $crate::__span_arg!($($arg)?))
    };
    ("sweep/pareto" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::SweepPareto, $crate::__span_arg!($($arg)?))
    };
    ("report/encode" $(, $arg:expr)?) => {
        $crate::span($crate::Stage::ReportEncode, $crate::__span_arg!($($arg)?))
    };
}

/// Copies out every registered thread's buffer, sorted by thread id.  Threads
/// still running keep recording; the snapshot is a consistent prefix of each
/// buffer.
pub fn snapshot() -> Vec<ThreadEvents> {
    let mut out: Vec<ThreadEvents> = lock(&REGISTRY)
        .iter()
        .map(|log| ThreadEvents {
            tid: log.tid,
            name: lock(&log.name).clone(),
            events: lock(&log.events).clone(),
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Per-thread flags marking events whose begin/end partner is also in the
/// buffer.  A span still open when the snapshot was taken has an unmatched
/// begin mark; exporters skip it rather than emit an unbalanced pair.
fn matched_flags(events: &[Event]) -> Vec<bool> {
    let mut flags = vec![false; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.begin {
            stack.push(i);
        } else if let Some(b) = stack.pop() {
            flags[b] = true;
            flags[i] = true;
        }
    }
    flags
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond precision, rendered in integer arithmetic so
/// equal inputs always produce equal (and ordered inputs ordered) text.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders a snapshot as Chrome `trace_event` JSON (the bare-array form):
/// per-thread metadata records naming each track, then matched `B`/`E` pairs
/// in recording order — `ts` is microseconds since the trace epoch and is
/// non-decreasing within each `tid`.  Open `chrome://tracing` or
/// <https://ui.perfetto.dev> and load the file.
pub fn chrome_trace(threads: &[ThreadEvents]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, record: String| {
        if !*first {
            out.push_str(",\n");
        } else {
            out.push('\n');
            *first = false;
        }
        out.push_str(&record);
    };
    for t in threads {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                json_escape(&t.name)
            ),
        );
        let flags = matched_flags(&t.events);
        for (e, matched) in t.events.iter().zip(flags) {
            if !matched {
                continue;
            }
            let record = if e.begin {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"arg\":{}}}}}",
                    e.stage.name(),
                    ts_us(e.ts_ns),
                    t.tid,
                    e.arg
                )
            } else {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\
                     \"tid\":{}}}",
                    e.stage.name(),
                    ts_us(e.ts_ns),
                    t.tid
                )
            };
            push(&mut out, &mut first, record);
        }
    }
    out.push_str("\n]\n");
    out
}

/// Aggregated timing of one stage across a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// The stage the durations belong to.
    pub stage: Stage,
    /// Completed spans observed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times: each span's duration minus the durations of
    /// the spans nested directly inside it on its thread.
    pub self_ns: u64,
    /// Median span duration (nearest rank).
    pub p50_ns: u64,
    /// 99th-percentile span duration (nearest rank).
    pub p99_ns: u64,
}

fn rank(len: usize, pct: usize) -> usize {
    (len - 1) * pct / 100
}

/// Aggregates a snapshot into per-stage duration statistics, in pipeline
/// order; stages with no completed spans are omitted.
///
/// A span's self time excludes its children on the same thread, so on every
/// thread the self times of all its spans sum to the wall time of its
/// outermost spans: no interval is counted twice.
pub fn stage_stats(threads: &[ThreadEvents]) -> Vec<StageStat> {
    let mut durations: Vec<Vec<u64>> = vec![Vec::new(); Stage::ALL.len()];
    let mut self_ns = vec![0u64; Stage::ALL.len()];
    for t in threads {
        // Open spans: (stage, begin, time covered by closed children).
        let mut stack: Vec<(usize, u64, u64)> = Vec::new();
        for e in &t.events {
            if e.begin {
                stack.push((e.stage as usize, e.ts_ns, 0));
            } else if let Some((stage, begin_ns, children_ns)) = stack.pop() {
                let duration = e.ts_ns.saturating_sub(begin_ns);
                durations[stage].push(duration);
                self_ns[stage] += duration.saturating_sub(children_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += duration;
                }
            }
        }
    }
    Stage::ALL
        .iter()
        .filter_map(|&stage| {
            let d = &mut durations[stage as usize];
            if d.is_empty() {
                return None;
            }
            d.sort_unstable();
            Some(StageStat {
                stage,
                count: d.len() as u64,
                total_ns: d.iter().sum(),
                self_ns: self_ns[stage as usize],
                p50_ns: d[rank(d.len(), 50)],
                p99_ns: d[rank(d.len(), 99)],
            })
        })
        .collect()
}

/// `12ns` / `3.40µs` / `5.67ms` / `1.23s`, for the breakdown table.
pub fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders stage statistics as an aligned text table: each stage's total
/// (every span's full duration, so a stage that encloses others, such as
/// `sched/partition` around `qrf/alloc`, includes their time) and its self
/// time (without its nested spans).  The share column is each stage's self
/// time over the sum of all self times, so shares never count an interval
/// twice.  Self times across threads can still sum past the elapsed time of
/// the run: that is parallelism.
pub fn render_stage_table(stats: &[StageStat]) -> String {
    let mut out = String::new();
    if stats.is_empty() {
        out.push_str("no spans recorded\n");
        return out;
    }
    let grand_self: u64 = stats.iter().map(|s| s.self_ns).sum();
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
        "stage", "count", "total", "self", "p50", "p99", "share"
    ));
    for s in stats {
        let share =
            if grand_self == 0 { 0.0 } else { s.self_ns as f64 * 100.0 / grand_self as f64 };
        out.push_str(&format!(
            "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6.1}%\n",
            s.stage.name(),
            s.count,
            fmt_duration(s.total_ns),
            fmt_duration(s.self_ns),
            fmt_duration(s.p50_ns),
            fmt_duration(s.p99_ns),
            share
        ));
    }
    out
}

/// Renders stage statistics as a compact JSON array (machine-readable twin of
/// [`render_stage_table`]).
pub fn stage_table_json(stats: &[StageStat]) -> String {
    let mut out = String::from("[");
    for (i, s) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{},\
             \"p99_ns\":{}}}",
            s.stage.name(),
            s.count,
            s.total_ns,
            s.self_ns,
            s.p50_ns,
            s.p99_ns
        ));
    }
    out.push(']');
    out
}

/// Upper bounds (inclusive, nanoseconds) of the latency buckets: powers of
/// four from 1µs to 16.7s, plus the implicit +Inf overflow bucket.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// A fixed-bucket latency histogram updated with relaxed atomics — one writer
/// per request thread, any number of concurrent scrapes.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram (usable in statics).
    pub const fn new() -> LatencyHistogram {
        // An inline-const block is evaluated per array element, which is what
        // `[AtomicU64::new(0); N]` cannot express for a non-`Copy` type.
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record_ns(&self, ns: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Appends this histogram's Prometheus sample lines (cumulative
    /// `_bucket{le=...}` series in seconds, then `_sum` and `_count`) for the
    /// metric `name`.  `labels` is either empty or a ready-made label list
    /// like `type="run"`; the caller writes the shared `# HELP`/`# TYPE`
    /// header once per metric name.
    pub fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BUCKET_BOUNDS_NS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}\n",
                bound as f64 / 1e9
            ));
        }
        cumulative += self.buckets[LATENCY_BUCKET_BOUNDS_NS.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "{name}_sum{{{labels}}} {}\n",
            self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
        ));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", self.count.load(Ordering::Relaxed)));
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// Appends a `# HELP` + `# TYPE` header for `name` (`kind` is `counter`,
/// `gauge` or `histogram`).
pub fn prom_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Appends one integer-valued sample line; `labels` as in
/// [`LatencyHistogram::render_prometheus`].
pub fn prom_sample_u64(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Appends one float-valued sample line.
pub fn prom_sample_f64(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global state; every test that reads or writes
    /// the enabled flag serializes on this gate.
    static GATE: Mutex<()> = Mutex::new(());

    /// Runs `f` with tracing enabled, serialized, cleaning up after itself.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _gate = lock(&GATE);
        clear();
        enable();
        let result = f();
        disable();
        clear();
        result
    }

    /// This thread's events in the current snapshot.
    fn my_events() -> Vec<Event> {
        let tid = with_local_log(|log| log.tid);
        snapshot().into_iter().find(|t| t.tid == tid).map(|t| t.events).unwrap_or_default()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = lock(&GATE);
        assert!(!is_enabled());
        let before = my_events().len();
        {
            let _s = span!("sched/ims", 3);
        }
        assert_eq!(my_events().len(), before, "a disabled span must not allocate or record");
    }

    #[test]
    fn spans_record_matched_pairs_in_order() {
        with_tracing(|| {
            {
                let _outer = span!("verify", 1);
                let _inner = span!("sim", 2);
            }
            let events = my_events();
            assert_eq!(events.len(), 4);
            assert!(events[0].begin && events[0].stage == Stage::Verify);
            assert!(events[1].begin && events[1].stage == Stage::Sim);
            // Drop order closes the inner span first.
            assert!(!events[2].begin && events[2].stage == Stage::Sim);
            assert!(!events[3].begin && events[3].stage == Stage::Verify);
            let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotone: {ts:?}");
        });
    }

    #[test]
    fn a_span_opened_before_disable_still_closes() {
        with_tracing(|| {
            let s = span!("qrf/alloc");
            disable();
            drop(s);
            enable();
            let events = my_events();
            assert_eq!(events.len(), 2, "{events:?}");
            assert!(!events[1].begin);
        });
    }

    #[test]
    fn chrome_trace_renders_thread_metadata_and_pairs() {
        with_tracing(|| {
            {
                let _s = span!("sched/partition", 9);
            }
            let trace = chrome_trace(&snapshot());
            assert!(trace.starts_with('['));
            assert!(trace.trim_end().ends_with(']'));
            assert!(trace.contains("\"thread_name\""));
            assert!(trace.contains("\"name\":\"sched/partition\""));
            assert!(trace.contains("\"ph\":\"B\""));
            assert!(trace.contains("\"ph\":\"E\""));
            assert!(trace.contains("\"args\":{\"arg\":9}"));
        });
    }

    #[test]
    fn unmatched_open_spans_are_skipped_by_the_exporters() {
        with_tracing(|| {
            let open = span!("corpusgen");
            {
                let _closed = span!("unroll");
            }
            let threads = snapshot();
            let trace = chrome_trace(&threads);
            assert!(!trace.contains("corpusgen"), "an open span must not emit a dangling B");
            assert!(trace.contains("unroll"));
            let stats = stage_stats(&threads);
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].stage, Stage::Unroll);
            drop(open);
        });
    }

    #[test]
    fn stage_stats_aggregate_counts_and_percentiles() {
        let events = |durs: &[u64]| -> Vec<Event> {
            let mut out = Vec::new();
            let mut ts = 0;
            for &d in durs {
                out.push(Event { stage: Stage::Ims, arg: 0, begin: true, ts_ns: ts });
                out.push(Event { stage: Stage::Ims, arg: 0, begin: false, ts_ns: ts + d });
                ts += d;
            }
            out
        };
        let threads = vec![
            ThreadEvents { tid: 1, name: "a".into(), events: events(&[10, 30]) },
            ThreadEvents { tid: 2, name: "b".into(), events: events(&[20, 40]) },
        ];
        let stats = stage_stats(&threads);
        assert_eq!(stats.len(), 1);
        let s = stats[0];
        assert_eq!((s.stage, s.count, s.total_ns), (Stage::Ims, 4, 100));
        assert_eq!(s.p50_ns, 20, "nearest-rank median of [10,20,30,40]");
        assert_eq!(s.p99_ns, 30, "nearest-rank p99 of a 4-sample set");
        assert_eq!(s.self_ns, 100, "flat spans are all self time");
    }

    /// Builds one thread's events from `(stage, begin?, ts)` marks.
    fn thread(tid: u64, marks: &[(Stage, bool, u64)]) -> ThreadEvents {
        let events = marks
            .iter()
            .map(|&(stage, begin, ts_ns)| Event { stage, arg: 0, begin, ts_ns })
            .collect();
        ThreadEvents { tid, name: format!("t{tid}"), events }
    }

    #[test]
    fn self_times_sum_to_each_threads_root_wall_time() {
        use Stage::{Ims, Partition, Qrf, Sim, Verify};
        // Thread 1: partition [0,100] ⊃ { ims [10,60] ⊃ { qrf [20,30], qrf [35,50] },
        // ims [70,90] }, then a second root, sim [120,150].
        let t1 = thread(
            1,
            &[
                (Partition, true, 0),
                (Ims, true, 10),
                (Qrf, true, 20),
                (Qrf, false, 30),
                (Qrf, true, 35),
                (Qrf, false, 50),
                (Ims, false, 60),
                (Ims, true, 70),
                (Ims, false, 90),
                (Partition, false, 100),
                (Sim, true, 120),
                (Sim, false, 150),
            ],
        );
        // Thread 2: verify [5,45] ⊃ partition [10,40] ⊃ qrf [12,20], qrf [25,37].
        let t2 = thread(
            2,
            &[
                (Verify, true, 5),
                (Partition, true, 10),
                (Qrf, true, 12),
                (Qrf, false, 20),
                (Qrf, true, 25),
                (Qrf, false, 37),
                (Partition, false, 40),
                (Verify, false, 45),
            ],
        );
        let self_sum = |stats: &[StageStat]| stats.iter().map(|s| s.self_ns).sum::<u64>();
        assert_eq!(self_sum(&stage_stats(std::slice::from_ref(&t1))), 100 + 30);
        assert_eq!(self_sum(&stage_stats(std::slice::from_ref(&t2))), 40);
        let both = stage_stats(&[t1, t2]);
        assert_eq!(self_sum(&both), 170);
        let by_stage: Vec<(Stage, u64, u64, u64)> =
            both.iter().map(|s| (s.stage, s.count, s.total_ns, s.self_ns)).collect();
        assert_eq!(
            by_stage,
            [
                (Ims, 2, 70, 45),
                (Partition, 2, 130, 40),
                (Qrf, 4, 45, 45),
                (Sim, 1, 30, 30),
                (Verify, 1, 40, 10),
            ]
        );
    }

    #[test]
    fn stage_table_renders_every_observed_stage() {
        let stats = vec![
            StageStat {
                stage: Stage::Partition,
                count: 3,
                total_ns: 4_000_000,
                self_ns: 3_000_000,
                p50_ns: 900,
                p99_ns: 1_200_000,
            },
            StageStat {
                stage: Stage::Qrf,
                count: 1,
                total_ns: 1_000_000,
                self_ns: 1_000_000,
                p50_ns: 1_000_000,
                p99_ns: 1_000_000,
            },
        ];
        let table = render_stage_table(&stats);
        let partition = table.lines().find(|l| l.starts_with("sched/partition")).expect(&table);
        assert!(partition.contains("4.00ms") && partition.contains("3.00ms"), "{table}");
        assert!(partition.ends_with("75.0%"), "share is self over all self time: {table}");
        assert!(table.lines().next().unwrap().contains("total       self"), "{table}");
        assert!(table.contains("qrf/alloc"), "{table}");
        let json = stage_table_json(&stats);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(
            "\"stage\":\"sched/partition\",\"count\":3,\"total_ns\":4000000,\"self_ns\":3000000"
        ));
    }

    #[test]
    fn latency_histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::new();
        h.record_ns(500); // le 1µs
        h.record_ns(3_000); // le 4µs
        h.record_ns(1_000_000_000); // le 1.048576s
        h.record_ns(u64::MAX / 2); // +Inf
        assert_eq!(h.count(), 4);
        let mut out = String::new();
        h.render_prometheus(&mut out, "x_seconds", "type=\"run\"");
        assert!(out.contains("x_seconds_bucket{type=\"run\",le=\"0.000001\"} 1"), "{out}");
        assert!(out.contains("x_seconds_bucket{type=\"run\",le=\"0.000004\"} 2"), "{out}");
        assert!(out.contains("x_seconds_bucket{type=\"run\",le=\"+Inf\"} 4"), "{out}");
        assert!(out.contains("x_seconds_count{type=\"run\"} 4"), "{out}");
    }

    #[test]
    fn prometheus_helpers_format_headers_and_samples() {
        let mut out = String::new();
        prom_header(&mut out, "vliw_up", "gauge", "Uptime.");
        prom_sample_u64(&mut out, "vliw_up", "", 3);
        prom_sample_f64(&mut out, "vliw_lat", "type=\"info\"", 0.25);
        assert_eq!(out, "# HELP vliw_up Uptime.\n# TYPE vliw_up gauge\nvliw_up 3\nvliw_lat{type=\"info\"} 0.25\n");
    }

    #[test]
    fn stage_discriminants_index_the_taxonomy() {
        let mut names = std::collections::BTreeSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i, "{stage:?}");
            assert!(names.insert(stage.name()), "duplicate name {}", stage.name());
        }
        with_tracing(|| {
            {
                let _a = span!("sweep/aggregate", 3);
            }
            {
                let _p = span!("sweep/pareto");
            }
            {
                let _e = span!("report/encode");
            }
            let stages: Vec<Stage> = stage_stats(&snapshot()).iter().map(|s| s.stage).collect();
            assert_eq!(stages, [Stage::SweepAggregate, Stage::SweepPareto, Stage::ReportEncode]);
        });
    }

    #[test]
    fn timestamps_render_as_fixed_point_microseconds() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }
}
