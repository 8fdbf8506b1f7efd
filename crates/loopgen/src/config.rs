//! Corpus-generation parameters.

use vliw_ddg::LatencyModel;

/// Parameters of the synthetic innermost-loop corpus.
///
/// The defaults are tuned so that the generated corpus matches the coarse statistics
/// of the 1258 Perfect Club innermost loops used by the paper (see DESIGN.md §4):
/// loop bodies are mostly small (a handful to a few tens of operations), a bit under
/// half of the loops carry a recurrence circuit, values typically have one or two
/// consumers with occasional higher fan-out, and trip counts span two to three orders
/// of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of loops to generate.  The paper's corpus has 1258 innermost loops.
    pub num_loops: usize,
    /// Seed of the deterministic pseudo-random generator.  The same seed always
    /// produces the identical corpus, so experiments are reproducible bit-for-bit.
    pub seed: u64,
    /// Latency model used to annotate flow edges.
    pub latencies: LatencyModel,
    /// Probability that a loop contains at least one cross-operation recurrence
    /// circuit (beyond the induction-variable updates every loop has).
    pub recurrence_probability: f64,
    /// Probability that an accumulator-style self-recurrence (`s = s + ...`) is
    /// added to a loop.
    pub accumulator_probability: f64,
    /// Fraction of arithmetic operations that are multiplies (the rest are adds,
    /// subtracts and compares, with a small share of divides controlled by
    /// `divide_fraction`).
    pub multiply_fraction: f64,
    /// Fraction of arithmetic operations that are divides.
    pub divide_fraction: f64,
    /// Approximate fraction of operations that access memory (loads + stores).
    pub memory_fraction: f64,
    /// Of the memory operations, the fraction that are stores.
    pub store_fraction: f64,
    /// Probability that an extra consumer is attached to an already-consumed value,
    /// creating fan-out > 1 (this is what makes copy insertion necessary on a QRF
    /// machine).
    pub extra_consumer_probability: f64,
    /// Minimum and maximum trip counts (sampled log-uniformly).
    pub trip_count_range: (u64, u64),
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_loops: 1258,
            seed: 0x0019_9806_0386,
            latencies: LatencyModel::default(),
            recurrence_probability: 0.40,
            accumulator_probability: 0.25,
            multiply_fraction: 0.35,
            divide_fraction: 0.03,
            memory_fraction: 0.38,
            store_fraction: 0.30,
            extra_consumer_probability: 0.10,
            trip_count_range: (4, 1000),
        }
    }
}

impl CorpusConfig {
    /// The default corpus: 1258 loops, the paper's latency model, default seed.
    pub fn paper_default() -> Self {
        CorpusConfig::default()
    }

    /// A reduced corpus for fast unit tests and the `perf` probes.
    pub fn small(num_loops: usize, seed: u64) -> Self {
        CorpusConfig { num_loops, seed, ..CorpusConfig::default() }
    }

    /// Sets the seed, keeping everything else.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency model, keeping everything else.
    pub fn with_latencies(mut self, latencies: LatencyModel) -> Self {
        self.latencies = latencies;
        self
    }

    /// Validates that all probabilities and fractions are sane.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("recurrence_probability", self.recurrence_probability),
            ("accumulator_probability", self.accumulator_probability),
            ("multiply_fraction", self.multiply_fraction),
            ("divide_fraction", self.divide_fraction),
            ("memory_fraction", self.memory_fraction),
            ("store_fraction", self.store_fraction),
            ("extra_consumer_probability", self.extra_consumer_probability),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if self.multiply_fraction + self.divide_fraction > 1.0 {
            return Err("multiply_fraction + divide_fraction must not exceed 1".to_string());
        }
        if self.num_loops == 0 {
            return Err("num_loops must be positive".to_string());
        }
        if self.trip_count_range.0 == 0 || self.trip_count_range.0 > self.trip_count_range.1 {
            return Err(format!("invalid trip count range {:?}", self.trip_count_range));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_sized() {
        let cfg = CorpusConfig::paper_default();
        assert_eq!(cfg.num_loops, 1258);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn small_config_overrides_size_and_seed() {
        let cfg = CorpusConfig::small(10, 7);
        assert_eq!(cfg.num_loops, 10);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let cfg = CorpusConfig::default().with_seed(99).with_latencies(LatencyModel::unit());
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.latencies, LatencyModel::unit());
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        let cfg = CorpusConfig { recurrence_probability: 1.5, ..CorpusConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = CorpusConfig {
            multiply_fraction: 0.9,
            divide_fraction: 0.2,
            ..CorpusConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = CorpusConfig { num_loops: 0, ..CorpusConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = CorpusConfig { trip_count_range: (100, 10), ..CorpusConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = CorpusConfig { trip_count_range: (0, 10), ..CorpusConfig::default() };
        assert!(cfg.validate().is_err());
    }
}
