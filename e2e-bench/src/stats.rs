//! Small measurement helpers: order statistics, process CPU time, the seeded
//! sampler, and the pass/fail tally behind `attempted` / `failed`.

use std::time::Duration;

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Time of one call of `f`: the median over `batches` of the mean of
/// `per_batch` back-to-back calls.  Batching keeps microsecond-scale calls
/// measurable.
pub fn call_median_s<T>(batches: usize, per_batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..per_batch {
                std::hint::black_box(f());
            }
            secs(t.elapsed()) / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Seconds as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// CPU time (user + system, every thread) process `pid` (or `"self"`) has
/// consumed, in seconds, from `/proc/<pid>/stat` at the kernel's 100 Hz
/// `USER_HZ`.
pub fn cpu_s(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { return 0.0 };
    // Fields after the parenthesised command name start at `state` (field 3).
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> f64 {
    vliw_core::session::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// splitmix64: the benchmark's seeded sampler (inputs never depend on
/// anything but `--seed`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counts checks and the ones that failed; every failure is explained on
/// stderr.  A check is one output (a golden file, the re-check of every
/// compiled schedule, the Pareto spot-check, ...), failed if any of its cases
/// fails, so a single bad case costs a whole check rather than one case in
/// tens of thousands.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records one check of `cases` cases, `failed` of which failed; nothing
    /// when there were no cases.
    pub fn check_many(&mut self, cases: u64, failed: u64, what: impl FnOnce() -> String) {
        if cases > 0 {
            self.check(failed == 0, || format!("{failed} of {cases}: {}", what()));
        }
    }

    /// Share of checked operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The run's result line: the benchmark's output contract.
    pub fn result_line(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "flipped".to_string());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.ok_frac(), 0.5);
    }

    #[test]
    fn one_bad_case_fails_its_whole_check() {
        let mut t = Tally::default();
        t.check_many(0, 0, String::new);
        t.check_many(100_000, 0, String::new);
        t.check_many(100_000, 1, || "one case".to_string());
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
