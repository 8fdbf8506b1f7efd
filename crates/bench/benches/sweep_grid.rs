//! Times the Fig. 7 design-space sweep on the 32-loop bench corpus: the cold
//! cost (compile + simulate + classify the whole small grid in a fresh session)
//! and the warm cost (re-running the grid when every compile and sim run is
//! already memoised — the threshold transfer over cached witnesses).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use vliw_bench::bench_config;
use vliw_core::experiments::{pruned_sweep_experiment_with, Classify, SweepReport};
use vliw_core::{Session, SweepGrid, VliwError};

/// The small grid, dynamically classified, without an audit sample.
fn sweep(session: &Session) -> Result<SweepReport, VliwError> {
    pruned_sweep_experiment_with(session, SweepGrid::Small, Classify::Dynamic, 0)
}

fn bench(c: &mut Criterion) {
    let cfg = bench_config();
    let mut group = c.benchmark_group("sweep_grid");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    // A fresh session per iteration keeps the measurement cache-cold (the
    // session memoizes compilations and sim runs, so reusing one would time
    // pure cache hits).
    group.bench_function("small_grid_cold", |b| b.iter(|| sweep(&Session::new(cfg.clone()))));
    // The warm half: every (shape, loop) witness is a memo-store hit, so an
    // iteration times the threshold transfer to the grid's storage configs.
    let warm = Session::new(cfg.clone());
    sweep(&warm).expect("warm-up sweep runs");
    group.bench_function("small_grid_warm", |b| b.iter(|| sweep(&warm)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
