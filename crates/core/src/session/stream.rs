//! Streamed corpus compilation: bounded shards, flat memory.
//!
//! [`Session`](super::Session) materialises its whole corpus up front — the
//! right trade for the paper's 1258-loop evaluation, where every driver
//! re-reads the same loops and the memo store keeps their artifacts anyway.
//! At 100k+ loops that model stops scaling: the corpus alone is hundreds of
//! megabytes and the per-loop artifacts would dwarf it.
//!
//! [`compile_stream`] instead pulls loops from a [`CorpusStream`] one bounded
//! shard at a time, compiles each shard on the work-stealing executor, folds
//! the per-loop metrics into running aggregates, and drops the shard before
//! generating the next one.  Peak memory is `O(shard_size)`, independent of the
//! corpus size; each pipeline stage's thread-local scratch amortises across
//! every loop a worker claims.
//! The loop stream is the same generator the eager path uses, so loop `i` of a
//! streamed run is byte-identical to loop `i` of `Session::new` with the same
//! corpus configuration.

use serde::{Deserialize, Serialize};

use vliw_loopgen::{CorpusConfig, CorpusStream};

use super::executor::par_map_indexed;
use crate::error::VliwError;
use crate::experiments::default_threads;
use crate::pipeline::{Compiler, CompilerConfig};

/// Default shard size of a streamed run: large enough to keep every worker
/// busy between refills, small enough that a shard of generated loops plus its
/// in-flight compilations stays a few megabytes.
pub const DEFAULT_SHARD_SIZE: usize = 1024;

/// Parameters of a streamed compilation run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Corpus to stream (its `num_loops` is the total streamed, never resident).
    pub corpus: CorpusConfig,
    /// Loops generated and compiled per shard (clamped to ≥ 1).
    pub shard_size: usize,
    /// Worker threads per shard (1 = sequential).
    pub threads: usize,
}

impl StreamConfig {
    /// A streamed run over `num_loops` paper-statistics loops with `seed`,
    /// default shard size and thread count.
    pub fn new(num_loops: usize, seed: u64) -> Self {
        let mut corpus = CorpusConfig::paper_default();
        corpus.num_loops = num_loops;
        corpus.seed = seed;
        StreamConfig { corpus, shard_size: DEFAULT_SHARD_SIZE, threads: default_threads() }
    }
}

/// Aggregate metrics of one streamed run — everything the run keeps; the
/// per-loop artifacts are dropped shard by shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Total loops streamed.
    pub corpus_size: usize,
    /// Corpus generator seed.
    pub seed: u64,
    /// Shard size of the run.
    pub shard_size: usize,
    /// Number of shards processed.
    pub shards: usize,
    /// Loops that compiled successfully.
    pub compiled: usize,
    /// Loops that failed to schedule under the configuration.
    pub failed: usize,
    /// Mean initiation interval over the compiled loops.
    pub mean_ii: f64,
    /// Mean lower bound (MII) over the compiled loops.
    pub mean_mii: f64,
    /// Fraction of compiled loops scheduled at exactly their MII.
    pub mii_achieved_fraction: f64,
    /// Mean number of queues allocated per compiled loop.
    pub mean_queues: f64,
    /// Largest queue depth seen across the whole run.
    pub max_queue_depth: usize,
    /// Peak resident set size of the process in kB (`VmHWM` from
    /// `/proc/self/status`), if the platform exposes it.  Read *after* the
    /// last shard, so it bounds the whole run — the flat-memory evidence the
    /// 100k-loop smoke asserts on.
    pub peak_rss_kb: Option<u64>,
}

/// The per-loop metrics a shard worker returns; deliberately tiny so a shard's
/// results stay O(shard_size) no matter how large the schedules were.
struct LoopMetrics {
    ii: u32,
    mii: u32,
    queues: usize,
    max_queue_depth: usize,
}

/// Streams the configured corpus through `compiler_config` in bounded shards
/// and returns the aggregate report.
///
/// Worker panics inside a shard surface as [`VliwError::WorkerPanic`] (the
/// executor's contract); scheduling failures are counted, not fatal.
pub fn compile_stream(
    cfg: &StreamConfig,
    compiler_config: CompilerConfig,
) -> Result<StreamReport, VliwError> {
    let compiler = Compiler::new(compiler_config);
    let shard_size = cfg.shard_size.max(1);
    let mut stream = CorpusStream::new(cfg.corpus.clone());

    let mut shard = Vec::with_capacity(shard_size.min(cfg.corpus.num_loops));
    let mut shards = 0usize;
    let mut compiled = 0usize;
    let mut failed = 0usize;
    let mut sum_ii = 0u64;
    let mut sum_mii = 0u64;
    let mut at_mii = 0usize;
    let mut sum_queues = 0u64;
    let mut max_queue_depth = 0usize;

    loop {
        shard.clear();
        {
            let _span = vliw_obs::span!("corpusgen", shard_size);
            shard.extend(stream.by_ref().take(shard_size));
        }
        if shard.is_empty() {
            break;
        }
        shards += 1;
        let results: Vec<Option<LoopMetrics>> = par_map_indexed(shard.len(), cfg.threads, |i| {
            compiler.compile(&shard[i]).ok().map(|c| LoopMetrics {
                ii: c.ii(),
                mii: c.mii,
                queues: c.queues_required(),
                max_queue_depth: c.queues.max_queue_depth(),
            })
        });
        for result in results {
            match result {
                Some(m) => {
                    compiled += 1;
                    sum_ii += u64::from(m.ii);
                    sum_mii += u64::from(m.mii);
                    at_mii += usize::from(m.ii == m.mii);
                    sum_queues += m.queues as u64;
                    max_queue_depth = max_queue_depth.max(m.max_queue_depth);
                }
                None => failed += 1,
            }
        }
    }

    let mean = |sum: u64| if compiled > 0 { sum as f64 / compiled as f64 } else { 0.0 };
    Ok(StreamReport {
        corpus_size: cfg.corpus.num_loops,
        seed: cfg.corpus.seed,
        shard_size,
        shards,
        compiled,
        failed,
        mean_ii: mean(sum_ii),
        mean_mii: mean(sum_mii),
        mii_achieved_fraction: if compiled > 0 { at_mii as f64 / compiled as f64 } else { 0.0 },
        mean_queues: mean(sum_queues),
        max_queue_depth,
        peak_rss_kb: peak_rss_kb(),
    })
}

/// Peak resident set size of this process in kB — `VmHWM` from
/// `/proc/self/status` on Linux, `None` elsewhere.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentConfig;
    use crate::session::Session;
    use vliw_machine::Machine;

    fn config(num_loops: usize, shard_size: usize) -> StreamConfig {
        let mut cfg = StreamConfig::new(num_loops, 386);
        cfg.shard_size = shard_size;
        cfg.threads = 2;
        cfg
    }

    fn paper_compiler_config() -> CompilerConfig {
        CompilerConfig::paper_defaults(Machine::paper_single(6))
    }

    #[test]
    fn shard_size_does_not_change_the_aggregates() {
        let whole = compile_stream(&config(30, 30), paper_compiler_config()).unwrap();
        let sharded = compile_stream(&config(30, 7), paper_compiler_config()).unwrap();
        assert_eq!(sharded.shards, 5, "30 loops in shards of 7 is 5 shards");
        assert_eq!(whole.shards, 1);
        // Everything except the sharding bookkeeping (and the RSS snapshot)
        // must be identical: the stream yields the same loops either way.
        assert_eq!(whole.compiled, sharded.compiled);
        assert_eq!(whole.failed, sharded.failed);
        assert_eq!(whole.mean_ii, sharded.mean_ii);
        assert_eq!(whole.mean_mii, sharded.mean_mii);
        assert_eq!(whole.mii_achieved_fraction, sharded.mii_achieved_fraction);
        assert_eq!(whole.mean_queues, sharded.mean_queues);
        assert_eq!(whole.max_queue_depth, sharded.max_queue_depth);
    }

    #[test]
    fn streamed_aggregates_match_an_eager_session_sweep() {
        let cfg = config(24, 5);
        let report = compile_stream(&cfg, paper_compiler_config()).unwrap();

        let session = Session::new(ExperimentConfig {
            corpus: cfg.corpus.clone(),
            threads: 2,
            cache_dir: None,
        });
        let compiler = session.compiler(paper_compiler_config());
        let summaries: Vec<_> =
            session.sweep(|i, _| compiler.map_ok(i, |s| (s.ii, s.mii, s.queues_required)));
        let ok: Vec<_> = summaries.iter().flatten().collect();
        assert_eq!(report.compiled, ok.len());
        assert_eq!(report.failed, summaries.len() - ok.len());
        assert_eq!(report.corpus_size, 24);
        let mean_ii = ok.iter().map(|s| f64::from(s.0)).sum::<f64>() / ok.len() as f64;
        assert!((report.mean_ii - mean_ii).abs() < 1e-12);
        let at_mii = ok.iter().filter(|s| s.0 == s.1).count();
        assert!((report.mii_achieved_fraction - at_mii as f64 / ok.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let report = compile_stream(&config(6, 3), paper_compiler_config()).unwrap();
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: StreamReport = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, report);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let report = compile_stream(&config(2, 2), paper_compiler_config()).unwrap();
        if cfg!(target_os = "linux") {
            assert!(report.peak_rss_kb.unwrap() > 0);
        }
    }
}
