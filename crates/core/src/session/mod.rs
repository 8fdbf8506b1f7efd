//! The shared compilation session: one corpus, one memo store, one executor.
//!
//! The paper's evaluation sweeps the *same* corpus through overlapping
//! (machine, compiler-configuration) points — Fig. 3's 6-FU no-unroll point is
//! recomputed by the Section-2 copy-cost statistics, the IPC curves re-schedule
//! Fig. 6's clustered machines, and so on.  A [`Session`] turns the experiment
//! drivers into cheap aggregations over cached artifacts:
//!
//! * the corpus is generated **exactly once** per session and shared immutably;
//! * every sweep point is interned as a canonical [`CompilationKey`], and each
//!   (key, loop) pair compiles **at most once** per process, concurrency-safe,
//!   in a lock-striped memo store ([`store`]);
//! * with a cache directory configured, results additionally persist to a
//!   disk-backed content-addressed store ([`persist`]), so a fresh process —
//!   most importantly the `vliw-serve` daemon across restarts — answers warm
//!   requests with **zero** cold compiles;
//! * sweeps run on a work-stealing executor ([`executor`]) that claims loops from
//!   an atomic counter, so one pathological loop no longer idles a whole static
//!   chunk's worth of work;
//! * one [`BoundsAnalyzer`] per session memoizes the static bounds of every
//!   corpus loop (keyed by corpus index), so only the first design-space sweep
//!   on a session derives them — a warm daemon's sweep requests read them.
//!
//! [`SessionBuilder`] is the one documented way to construct a session:
//!
//! ```
//! use vliw_core::pipeline::CompilerConfig;
//! use vliw_core::session::SessionBuilder;
//! use vliw_core::Machine;
//!
//! let session = SessionBuilder::quick(8, 42).build();
//! let compiler = session.compiler(CompilerConfig::paper_defaults(Machine::paper_single(6)));
//! let iis: Vec<Option<u32>> = session.sweep(|i, _| compiler.map_ok(i, |c| c.ii()));
//! assert_eq!(iis.len(), 8);
//! // A second sweep over the same point is served entirely from the cache.
//! let again: Vec<Option<u32>> = session.sweep(|i, _| compiler.map_ok(i, |c| c.ii()));
//! assert_eq!(iis, again);
//! assert!(session.stats().hits >= 8);
//! ```

pub mod artifact;
pub mod executor;
pub mod key;
pub mod persist;
pub mod store;
pub mod stream;

use std::path::PathBuf;
use std::sync::Arc;

use vliw_bounds::BoundsAnalyzer;
use vliw_ddg::{LatencyModel, Loop};
use vliw_loopgen::generate_corpus;

pub use artifact::{LoopSummary, SimSummary, VerifySummary};
pub use executor::{par_map_indexed, try_par_map_indexed};
pub use key::CompilationKey;
pub use persist::{PersistStore, STORE_VERSION};
pub use store::{
    CachedCompilation, CachedResult, CachedRun, CachedSim, CachedVerify, SessionStats,
};
pub use stream::{compile_stream, peak_rss_kb, StreamConfig, StreamReport, DEFAULT_SHARD_SIZE};

use crate::error::VliwError;
use crate::experiments::{default_threads, ExperimentConfig};
use crate::pipeline::{Compilation, Compiler, CompilerConfig};
use store::{KeyEntry, MemoStore};

/// A shared compilation session over one corpus.
///
/// Cheap to share by reference across drivers; all interior state is
/// concurrency-safe.  See the [module docs](self) for the design.
pub struct Session {
    config: ExperimentConfig,
    corpus: Arc<Vec<Loop>>,
    store: MemoStore,
    bounds: BoundsAnalyzer,
}

impl Session {
    /// Creates a session, generating the configured corpus exactly once.
    ///
    /// Persistence is best-effort here: an unusable `cache_dir` silently
    /// degrades to an in-memory-only session.  Use [`Session::try_new`] (or
    /// [`SessionBuilder::try_build`]) to fail loudly instead.
    pub fn new(config: ExperimentConfig) -> Self {
        let persist =
            config.cache_dir.as_deref().and_then(|dir| PersistStore::open(dir).ok()).map(Arc::new);
        Self::with_persist(config, persist)
    }

    /// Creates a session like [`Session::new`] but reports a configured cache
    /// directory that cannot be opened as an error.
    pub fn try_new(config: ExperimentConfig) -> Result<Self, VliwError> {
        let persist = match config.cache_dir.as_deref() {
            Some(dir) => Some(Arc::new(PersistStore::open(dir)?)),
            None => None,
        };
        Ok(Self::with_persist(config, persist))
    }

    fn with_persist(config: ExperimentConfig, persist: Option<Arc<PersistStore>>) -> Self {
        let corpus = {
            let _span = vliw_obs::span!("corpusgen", config.corpus.num_loops);
            Arc::new(generate_corpus(&config.corpus))
        };
        Session {
            config,
            corpus,
            store: MemoStore::new(persist),
            bounds: BoundsAnalyzer::new(LatencyModel::default()),
        }
    }

    /// A session over a reduced corpus, for tests and quick runs (the session
    /// equivalent of [`ExperimentConfig::quick`]).
    pub fn quick(num_loops: usize, seed: u64) -> Self {
        SessionBuilder::quick(num_loops, seed).build()
    }

    /// The experiment configuration this session was created from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The shared corpus.
    pub fn corpus(&self) -> &[Loop] {
        &self.corpus
    }

    /// Number of loops in the corpus.
    pub fn num_loops(&self) -> usize {
        self.corpus.len()
    }

    /// Worker-thread count of the session's sweeps.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// True when the session has a persistent (disk) artifact store.
    pub fn is_persistent(&self) -> bool {
        self.store.persist().is_some()
    }

    /// Disk-probe counters of the persistent store, `(loads, writes, rejects)`
    /// — the daemon's cache hit / miss / corruption telemetry.  `None` for an
    /// in-memory-only session.
    pub fn persist_counters(&self) -> Option<(u64, u64, u64)> {
        self.store.persist().map(|p| p.counter_values())
    }

    /// Interns `config` as a sweep point and returns a handle that compiles corpus
    /// loops through the memo store.  The canonical key is hashed once here, not
    /// once per loop.
    pub fn compiler(&self, config: CompilerConfig) -> SessionCompiler<'_> {
        let key = CompilationKey::of(&config);
        let entry = self.store.entry(key, self.corpus.len(), || Compiler::new(config));
        SessionCompiler { session: self, entry }
    }

    /// Runs `f` over every corpus loop on the work-stealing executor and returns
    /// the results in corpus order.
    pub fn sweep<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &Loop) -> R + Sync,
    {
        par_map_indexed(self.corpus.len(), self.threads(), |i| f(i, &self.corpus[i]))
    }

    /// Fallible form of [`Session::sweep`]: the first error (lowest corpus
    /// index) aborts the sweep and is returned; worker panics surface as
    /// [`VliwError::WorkerPanic`] instead of unwinding.
    pub fn try_sweep<R, F>(&self, f: F) -> Result<Vec<R>, VliwError>
    where
        R: Send,
        F: Fn(usize, &Loop) -> Result<R, VliwError> + Sync,
    {
        try_par_map_indexed(self.corpus.len(), self.threads(), |i| f(i, &self.corpus[i]))
    }

    /// Runs `f` over the corpus loops at `indices` (a filtered subset, e.g. the
    /// resource-constrained loops of Fig. 9) and returns the results in the order
    /// of `indices`.
    pub fn sweep_indices<R, F>(&self, indices: &[usize], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &Loop) -> R + Sync,
    {
        par_map_indexed(indices.len(), self.threads(), |k| {
            let i = indices[k];
            f(i, &self.corpus[i])
        })
    }

    /// Fallible form of [`Session::sweep_indices`].
    pub fn try_sweep_indices<R, F>(&self, indices: &[usize], f: F) -> Result<Vec<R>, VliwError>
    where
        R: Send,
        F: Fn(usize, &Loop) -> Result<R, VliwError> + Sync,
    {
        try_par_map_indexed(indices.len(), self.threads(), |k| {
            let i = indices[k];
            f(i, &self.corpus[i])
        })
    }

    /// Cache statistics accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.store.stats()
    }

    /// The session's bounds analyzer.  It predicts the transformation of
    /// [`CompilerConfig::paper_defaults`] at the default latencies, and its
    /// memos are keyed by corpus index, so they outlive a request.
    pub(crate) fn bounds(&self) -> &BoundsAnalyzer {
        &self.bounds
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("corpus_size", &self.corpus.len())
            .field("threads", &self.config.threads)
            .field("persistent", &self.is_persistent())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The one documented way to construct a [`Session`]: corpus size, seed,
/// thread count and cache directory in one place, with the paper's defaults
/// for everything unset.
///
/// `Session::quick(n, seed)` and `Session::new(config)` remain as thin
/// wrappers; both delegate here or to the same constructor internals.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    corpus_size: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
}

impl SessionBuilder {
    /// A builder at the paper's defaults (1258-loop corpus, paper seed,
    /// [`default_threads`] workers, no persistence).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// A builder for a reduced corpus — the [`Session::quick`] shape.
    pub fn quick(corpus_size: usize, seed: u64) -> Self {
        SessionBuilder::new().corpus_size(corpus_size).seed(seed)
    }

    /// Sets the number of corpus loops.
    pub fn corpus_size(mut self, corpus_size: usize) -> Self {
        self.corpus_size = Some(corpus_size);
        self
    }

    /// Sets the corpus generator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the sweep worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enables the persistent artifact store under `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The [`ExperimentConfig`] this builder resolves to.
    pub fn config(&self) -> ExperimentConfig {
        let mut corpus = vliw_loopgen::CorpusConfig::paper_default();
        if let Some(n) = self.corpus_size {
            corpus.num_loops = n;
        }
        if let Some(seed) = self.seed {
            corpus.seed = seed;
        }
        ExperimentConfig {
            corpus,
            threads: self.threads.unwrap_or_else(default_threads),
            cache_dir: self.cache_dir.clone(),
        }
    }

    /// Builds the session; an unusable cache directory silently disables
    /// persistence (see [`Session::new`]).
    pub fn build(&self) -> Session {
        Session::new(self.config())
    }

    /// Builds the session, failing loudly if the cache directory cannot be
    /// opened.
    pub fn try_build(&self) -> Result<Session, VliwError> {
        Session::try_new(self.config())
    }
}

/// A handle to one interned sweep point of a [`Session`].
///
/// Cloneable and `Sync`; compiling through it hits the memo store first.  The
/// default methods traffic in serializable summaries ([`LoopSummary`] /
/// [`SimSummary`]) — the drivers' currency and what the persistent store can
/// serve without compiling.  The `*_full` variants return the unserialized
/// artifacts for consumers that replay schedules.
#[derive(Clone)]
pub struct SessionCompiler<'s> {
    session: &'s Session,
    entry: Arc<KeyEntry>,
}

impl SessionCompiler<'_> {
    /// Compiles (or recalls) the summary of the corpus loop at `index`.
    pub fn compile(&self, index: usize) -> CachedResult {
        self.entry.compile(index, &self.session.corpus[index], self.session.store.counters())
    }

    /// Compiles the corpus loop at `index` and applies `f` to its summary;
    /// `None` if the loop failed to schedule under this configuration.  The
    /// convenience form the drivers use to extract their per-loop metrics.
    pub fn map_ok<R>(&self, index: usize, f: impl FnOnce(&LoopSummary) -> R) -> Option<R> {
        self.compile(index).as_ref().as_ref().ok().map(f)
    }

    /// Compiles (or recalls) the *full* compilation of the loop at `index` —
    /// schedule, transformed DDG and queue allocation included.
    pub fn compile_full(&self, index: usize) -> CachedCompilation {
        self.entry.compile_full(index, &self.session.corpus[index], self.session.store.counters())
    }

    /// Applies `f` to the full compilation of the loop at `index`; `None` if
    /// the loop failed to schedule under this configuration.
    pub fn map_full<R>(&self, index: usize, f: impl FnOnce(&Compilation) -> R) -> Option<R> {
        self.compile_full(index).as_ref().as_ref().ok().map(f)
    }

    /// Simulates the corpus loop at `index` over `trip_count` iterations,
    /// compiling it first if needed; memoised per (sweep point, loop, trip
    /// count), so repeated sweeps — and overlapping trip-count grids across
    /// drivers — execute each run exactly once.  `None` if the loop does not
    /// schedule under this configuration.
    pub fn simulate(&self, index: usize, trip_count: u64) -> Option<CachedSim> {
        self.entry.simulate(
            index,
            &self.session.corpus[index],
            trip_count,
            self.session.store.counters(),
        )
    }

    /// Like [`SessionCompiler::simulate`] but returns the full [`vliw_sim::SimRun`]
    /// with its recorded violations, executing the simulator in-process if the
    /// memoised entry came from disk.
    pub fn simulate_full(&self, index: usize, trip_count: u64) -> Option<CachedRun> {
        self.entry.simulate_full(
            index,
            &self.session.corpus[index],
            trip_count,
            self.session.store.counters(),
        )
    }

    /// Statically verifies the corpus loop at `index` with `vliw-verify`,
    /// compiling it first if needed; memoised per (sweep point, loop) like the
    /// compile slot — a verification is a steady-state proof, so there is no
    /// trip count to key on.  `None` if the loop does not schedule under this
    /// configuration.
    pub fn verify(&self, index: usize) -> Option<CachedVerify> {
        self.entry.verify(index, &self.session.corpus[index], self.session.store.counters())
    }

    /// The configuration this handle compiles with.
    pub fn config(&self) -> &CompilerConfig {
        self.entry.compiler().config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::Machine;

    #[test]
    fn session_generates_the_configured_corpus_once() {
        let session = Session::quick(9, 5);
        assert_eq!(session.num_loops(), 9);
        assert_eq!(session.corpus().len(), 9);
        // The corpus matches what the config would generate on its own.
        assert_eq!(session.config().corpus().len(), 9);
        assert_eq!(session.corpus()[3].name, session.config().corpus()[3].name);
    }

    #[test]
    fn builder_matches_the_quick_constructor() {
        let built = SessionBuilder::quick(9, 5).threads(2).build();
        let quick = Session::quick(9, 5);
        assert_eq!(built.num_loops(), quick.num_loops());
        assert_eq!(built.corpus()[4].name, quick.corpus()[4].name);
        assert_eq!(built.threads(), 2);
        assert!(!built.is_persistent());
        // The default builder resolves to the paper-sized corpus.
        assert_eq!(SessionBuilder::new().config().corpus.num_loops, 1258);
    }

    #[test]
    fn try_build_rejects_an_unusable_cache_dir() {
        // A path *under an existing file* cannot be created as a directory.
        let file = std::env::temp_dir().join(format!("vliw-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"occupied").unwrap();
        let err = SessionBuilder::quick(2, 1)
            .cache_dir(file.join("cache"))
            .try_build()
            .expect_err("a file in the way must fail loudly");
        assert_eq!(err.kind(), "io");
        // `build` degrades to an in-memory session instead.
        let session = SessionBuilder::quick(2, 1).cache_dir(file.join("cache")).build();
        assert!(!session.is_persistent());
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn equal_configs_share_one_sweep_point() {
        let session = Session::quick(4, 11);
        let a = session.compiler(CompilerConfig::paper_defaults(Machine::paper_single(6)));
        let b = session.compiler(CompilerConfig::paper_defaults(Machine::paper_single(6)));
        let ra = a.compile(0);
        let rb = b.compile(0);
        assert!(Arc::ptr_eq(&ra, &rb), "equal configs must share cached artifacts");
        let stats = session.stats();
        assert_eq!(stats.unique_keys, 1);
        assert_eq!(stats.compilations, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cached_results_equal_fresh_compilation() {
        let session = Session::quick(6, 23);
        let config = CompilerConfig::paper_defaults(Machine::paper_single(12));
        let compiler = session.compiler(config.clone());
        let fresh = Compiler::new(config);
        for (i, lp) in session.corpus().iter().enumerate() {
            let cached = compiler.compile(i);
            let direct = fresh.compile(lp);
            match (cached.as_ref(), &direct) {
                (Ok(c), Ok(d)) => {
                    assert_eq!(c.ii(), d.ii());
                    assert_eq!(c.stage_count, d.stage_count);
                    assert_eq!(c.queues_required(), d.queues_required());
                }
                (Err(c), Err(d)) => assert_eq!(c.to_string(), d.to_string()),
                (c, d) => panic!("cached {c:?} disagrees with fresh {d:?}"),
            }
        }
    }

    #[test]
    fn simulate_memoizes_per_trip_count_and_matches_the_compilation() {
        let session = Session::quick(5, 29);
        let compiler = session.compiler(CompilerConfig::paper_defaults(Machine::paper_single(6)));
        for i in 0..session.num_loops() {
            let Some(run) = compiler.simulate(i, 50) else { continue };
            let again = compiler.simulate(i, 50).expect("memoised run");
            assert!(Arc::ptr_eq(&run, &again));
            let c = compiler.compile(i);
            let c = c.as_ref().as_ref().expect("simulated loops compiled");
            assert!(run.is_clean(), "loop {i}: {} violations", run.total_violations());
            assert_eq!(run.measurement.total_cycles, c.total_cycles(50));
        }
        let stats = session.stats();
        assert!(stats.sim_runs > 0);
        assert!(stats.sim_hits >= stats.sim_runs, "every run was requested twice");
    }

    #[test]
    fn try_sweep_collects_errors_from_the_closure() {
        let session = Session::quick(6, 7);
        let ok: Vec<usize> = session.try_sweep(|i, _| Ok(i)).expect("no failures");
        assert_eq!(ok, (0..6).collect::<Vec<_>>());
        let err =
            session
                .try_sweep(|i, _| {
                    if i >= 3 {
                        Err(VliwError::internal(format!("loop {i}")))
                    } else {
                        Ok(i)
                    }
                })
                .expect_err("sweep must fail");
        assert_eq!(err.to_string(), "internal error: loop 3");
    }

    #[test]
    fn sweep_indices_respects_the_subset_order() {
        let session = Session::quick(10, 3);
        let indices = [7usize, 2, 9];
        let names: Vec<String> = session.sweep_indices(&indices, |i, lp| {
            assert_eq!(session.corpus()[i].name, lp.name);
            lp.name.clone()
        });
        assert_eq!(names.len(), 3);
        assert_eq!(names[0], session.corpus()[7].name);
        assert_eq!(names[1], session.corpus()[2].name);
        assert_eq!(names[2], session.corpus()[9].name);
    }
}
