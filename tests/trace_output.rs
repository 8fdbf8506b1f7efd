//! Golden-schema tests of the tracing exporters.
//!
//! The first test drives a traced compile/simulate/verify workload and checks
//! that [`vliw_core::obs::chrome_trace`] emits structurally valid Chrome
//! `trace_event` JSON: every record carries the required keys, `ts` is
//! monotone non-decreasing within each `tid`, `B`/`E` marks pair up with
//! proper stack discipline, and no queue allocation opens inside the
//! partitioner (the pipeline allocates after scheduling, never within it).  The second holds the sweep driver's own spans
//! (`sweep/aggregate`, `sweep/pareto`) to the same discipline, and to never
//! enclosing a pipeline stage.  The third is a property test of the
//! tracing layer's core promise — enabling tracing never changes what an
//! experiment reports, down to the byte.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use serde_json::Value;

use vliw_core::experiments::{Classify, ExperimentRequest};
use vliw_core::obs::{self, Stage};
use vliw_core::pipeline::CompilerConfig;
use vliw_core::{LatencyModel, Machine, Session, SweepGrid};

/// The recording flag and event buffers are process-global and `cargo test`
/// races tests across threads, so every test that flips tracing holds this.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small workload touching every in-process stage family: corpus
/// generation, a parallel compile sweep on a single-cluster and a clustered
/// machine, simulation and verification.
fn run_workload(loops: usize, seed: u64) {
    let session = Session::quick(loops, seed);
    let clustered = Machine::paper_clustered(4, LatencyModel::default());
    let clustered = session.compiler(CompilerConfig::paper_defaults(clustered));
    session.sweep(|i, _| clustered.compile(i).is_ok());
    let compiler = session.compiler(CompilerConfig::paper_defaults(Machine::paper_single(6)));
    session.sweep(|i, _| compiler.compile(i).is_ok());
    for i in 0..loops {
        let _ = compiler.simulate(i, 50);
        let _ = compiler.verify(i);
    }
}

fn field<'a>(event: &'a Value, key: &str) -> &'a Value {
    event.get(key).unwrap_or_else(|| panic!("event missing required key `{key}`: {event:?}"))
}

fn str_field<'a>(event: &'a Value, key: &str) -> &'a str {
    match field(event, key) {
        Value::String(s) => s,
        other => panic!("`{key}` must be a string, got {other:?}"),
    }
}

fn num_field(event: &Value, key: &str) -> f64 {
    match field(event, key) {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("`{key}` must be a number, got {other:?}"),
    }
}

#[test]
fn chrome_trace_export_is_valid_trace_event_json() {
    let _gate = gate();
    obs::clear();
    obs::enable();
    run_workload(8, 77);
    obs::disable();
    let threads = obs::snapshot();
    obs::clear();

    let json = obs::chrome_trace(&threads);
    let value: Value = serde_json::from_str(&json).expect("the trace must parse as JSON");
    let events = value.as_array().expect("trace_event bare-array form");
    assert!(!events.is_empty(), "a traced workload must record events");

    // Walk the array exactly as a viewer would: per-tid span stacks for B/E
    // pairing, per-tid high-water marks for timestamp monotonicity.
    let mut stacks: HashMap<i64, Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<i64, f64> = HashMap::new();
    let mut named_tids: BTreeSet<i64> = BTreeSet::new();
    let mut seen_tids: BTreeSet<i64> = BTreeSet::new();
    let mut begun_stages: BTreeSet<String> = BTreeSet::new();
    for event in events {
        let name = str_field(event, "name");
        let ph = str_field(event, "ph");
        let tid = num_field(event, "tid") as i64;
        let ts = num_field(event, "ts");
        assert_eq!(num_field(event, "pid"), 1.0, "all records share one pid");
        match ph {
            "M" => {
                assert_eq!(name, "thread_name", "the only metadata records name tracks");
                let label = match field(event, "args").get("name") {
                    Some(Value::String(s)) => s.clone(),
                    other => panic!("thread_name args.name must be a string, got {other:?}"),
                };
                assert!(!label.is_empty(), "thread labels must be non-empty");
                named_tids.insert(tid);
            }
            "B" | "E" => {
                seen_tids.insert(tid);
                let watermark = last_ts.entry(tid).or_insert(0.0);
                assert!(
                    ts >= *watermark,
                    "ts must be non-decreasing within tid {tid}: {ts} after {watermark}"
                );
                *watermark = ts;
                let stack = stacks.entry(tid).or_default();
                if ph == "B" {
                    assert!(
                        name != "qrf/alloc" || !stack.iter().any(|s| s == "sched/partition"),
                        "qrf/alloc opened inside sched/partition on tid {tid}: {stack:?}"
                    );
                    begun_stages.insert(name.to_string());
                    stack.push(name.to_string());
                } else {
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!("E record for `{name}` on tid {tid} with no open span")
                    });
                    assert_eq!(open, name, "E must close the innermost open span on its tid");
                }
            }
            other => panic!("unexpected phase `{other}` in {event:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
    for tid in &seen_tids {
        assert!(named_tids.contains(tid), "tid {tid} records spans but has no thread_name");
    }
    for stage in ["corpusgen", "sched/ims", "sched/partition", "qrf/alloc", "sim", "verify"] {
        assert!(begun_stages.contains(stage), "stage `{stage}` missing from {begun_stages:?}");
    }

    // The same snapshot drives the breakdown table; it must aggregate every
    // stage the trace shows and nothing else.
    let stats = obs::stage_stats(&threads);
    let stat_stages: BTreeSet<String> = stats.iter().map(|s| s.stage.name().to_string()).collect();
    assert_eq!(stat_stages, begun_stages, "stage_stats must cover exactly the traced stages");
    for stat in &stats {
        assert!(stat.count > 0);
        assert!(stat.p50_ns <= stat.p99_ns, "{stat:?}");
        assert!(stat.p99_ns <= stat.total_ns, "{stat:?}");
        assert!(stat.self_ns <= stat.total_ns, "{stat:?}");
    }
}

#[test]
fn a_traced_sweep_spans_its_aggregation_and_frontier() {
    let _gate = gate();
    obs::clear();
    obs::enable();
    let session = Session::quick(6, 386);
    let request = ExperimentRequest::Sweep {
        grid: SweepGrid::Small,
        classify: Classify::Static,
        prune: true,
        audit: 0,
    };
    request.run(&session).expect("the small-grid sweep runs on a quick session");
    obs::disable();
    let threads = obs::snapshot();
    obs::clear();

    let driver = [Stage::SweepAggregate, Stage::SweepPareto, Stage::ReportEncode];
    for t in &threads {
        let mut open: Vec<Stage> = Vec::new();
        for e in &t.events {
            if e.begin {
                assert!(
                    !open.iter().any(|s| driver.contains(s)),
                    "`{}` opened inside a driver span on {}: {open:?}",
                    e.stage.name(),
                    t.name
                );
                open.push(e.stage);
            } else {
                assert_eq!(open.pop(), Some(e.stage), "unbalanced end mark on {}", t.name);
            }
        }
        assert!(open.is_empty(), "{} left spans open: {open:?}", t.name);
    }
    let count = |stage: Stage| {
        obs::stage_stats(&threads).iter().find(|s| s.stage == stage).map_or(0, |s| s.count)
    };
    // The small grid is one machine shape: one aggregation, one frontier.
    assert_eq!(count(Stage::SweepAggregate), 1);
    assert_eq!(count(Stage::SweepPareto), 1);
}

/// One figures-style JSON report over a fresh session — the byte stream the
/// golden-baseline test diffs, so byte identity here is exactly the CLI's
/// "`--trace` does not perturb stdout" guarantee.
fn report_json(loops: usize, seed: u64) -> String {
    let session = Session::quick(loops, seed);
    let mut out = String::new();
    for request in [ExperimentRequest::Fig3, ExperimentRequest::Fig4, ExperimentRequest::Verify] {
        let response = request.run(&session).expect("experiments run on a quick session");
        out.push_str(&serde_json::to_string_pretty(&response).expect("reports serialize"));
        out.push('\n');
        out.push_str(&response.render_table());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tracing_leaves_reports_byte_identical(loops in 4usize..10, seed in 0u64..500) {
        let _gate = gate();
        obs::disable();
        obs::clear();
        let baseline = report_json(loops, seed);
        obs::enable();
        let traced = report_json(loops, seed);
        obs::disable();
        obs::clear();
        prop_assert_eq!(baseline, traced, "tracing must not perturb report bytes");
    }
}
