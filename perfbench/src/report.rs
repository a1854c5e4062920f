//! Result assembly: timing samples and their percentiles, the metric
//! catalogue, output checks, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Percentiles a tail summary may report, in increasing order.
const TAIL_PERCENTILES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// A timing or rate must have at least this many samples beyond the
/// percentile that summarises its tail.
pub const MIN_BEYOND: usize = 10;

/// End-to-end metrics: printed in the JSON result of an untraced run.
/// Each is defined on every workload, never reads 0, and is steady enough
/// run to run to carry a regression bound. Name, unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed as text only: defined on some workloads
/// (`runs_per_s`, `gathered_frac` on the sweep, `events_per_s_t2` on the
/// engine workloads), 0 on a healthy run (`failed_frac`), or too unsteady
/// run to run for a bound (the Look percentiles).
#[cfg(test)]
pub const END_TO_END_TEXT: [(&str, &str); 6] = [
    ("events_per_s_t2", "1/s"),
    ("look_ms_p50", "ms"),
    ("look_ms_p90", "ms"),
    ("runs_per_s", "1/s"),
    ("gathered_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Per-layer metrics: printed in the JSON result of a traced run. A layer a
/// workload does not exercise reads 0. Name, unit.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("world.look_ms", "ms"),
    ("world.move_ms", "ms"),
    ("world.look_cold_ms_p50", "ms"),
    ("world.look_warm_ms_p50", "ms"),
    ("world.pair_kernel_calls", "count"),
    ("world.pair_hits", "count"),
    ("world.pair_hit_ratio", "ratio"),
    ("world.pair_kernel_per_look", "count"),
    ("world.cover_answers", "count"),
    ("world.cert_skips", "count"),
    ("world.pair_entries", "count"),
    ("world.registrations", "count"),
    ("world.hull_repairs", "count"),
    ("world.hull_rebuilds", "count"),
    ("core.decide_calls", "count"),
    ("core.decide_ms", "ms"),
    ("core.decide_us_p50", "us"),
    ("core.decide_us_p90", "us"),
    ("core.decision_hits", "count"),
    ("core.decision_hit_ratio", "ratio"),
    ("scheduler.next_calls", "count"),
    ("scheduler.next_ms", "ms"),
    ("engine.compute_step_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("parallel.batches", "count"),
    ("parallel.batched_events", "count"),
    ("parallel.batch_fill", "ratio"),
    ("parallel.spec_hits", "count"),
    ("parallel.spec_aborts", "count"),
    ("parallel.speedup_t2", "ratio"),
    ("sweep.pool_efficiency", "ratio"),
    ("sweep.tail_idle_s", "s"),
    ("sweep.retries", "count"),
    ("checkpoint.appends", "count"),
    ("checkpoint.append_ms", "ms"),
    ("checkpoint.append_ms_p90", "ms"),
    ("checkpoint.bytes_written", "B"),
    ("checkpoint.journal_bytes", "B"),
    ("checkpoint.resume_ms", "ms"),
    ("init.generate_ms", "ms"),
    ("engine.new_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.wall_ms", "ms"),
];

/// `true` when `name` is a valid metric name: one to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` is a valid unit: one to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// ⌈p·n/100⌉, clamped to `1..=n`. The tolerance keeps products such as
/// 99.9 · 10 000 / 100 from rounding up past an exact rank.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted` samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest of the tail percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond its nearest rank, with its value; `None`
/// when even the 75th percentile has fewer.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n >= rank(p, n) + MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// A set of timing or rate samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p`, or 0 without samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            percentile(&self.sorted(), p)
        }
    }

    /// The median, or 0 without samples.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// One line: the median, the highest percentile with at least
    /// [`MIN_BEYOND`] samples beyond it, and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return "no samples".to_string();
        }
        let mut line = format!("median {:.6} {unit}", percentile(&sorted, 50.0));
        if let Some((p, v)) = tail_percentile(&sorted) {
            let _ = write!(line, ", p{p} {v:.6} {unit}");
        }
        let _ = write!(line, " (n={})", sorted.len());
        line
    }
}

/// The outcome of one workload run: output checks, measured metrics, and
/// human-readable timing summaries.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs and output checks attempted.
    pub attempted: u64,
    /// Runs and output checks that failed.
    pub failed: u64,
    /// Every metric measured, by name: value and unit.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Sample summaries printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one output check; a failing check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            valid_name(name) && valid_unit(unit),
            "bad metric {name} [{unit}]"
        );
        self.metrics.insert(name, (value, unit));
    }

    /// Records a timing metric from samples (its median) and notes the full
    /// summary.
    pub fn timing(&mut self, name: &'static str, samples: &Samples, unit: &'static str) {
        self.metric(name, samples.median(), unit);
        self.notes
            .push(format!("{name}: {}", samples.describe(unit)));
    }

    /// The result line: `correct`, `attempted`, `failed`, and the listed
    /// metrics. A listed metric the run did not measure, or a non-finite
    /// value, is a failed check and reads 0.
    pub fn json(&mut self, listed: &[(&'static str, &'static str)]) -> String {
        let mut body = String::new();
        let mut missing = Vec::new();
        for (i, &(name, unit)) in listed.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&(v, _)) if v.is_finite() => v,
                _ => {
                    missing.push(name);
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        for name in missing {
            self.check(false, || format!("metric {name} was not measured"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ascending = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: the 75th percentile has rank 15, only 4 beyond.
        assert_eq!(tail_percentile(&ascending(19)), None);
        // 40 samples: p75 has rank 30 and exactly 10 beyond; p90 has 4.
        assert_eq!(tail_percentile(&ascending(40)), Some((75.0, 30.0)));
        // 100 samples: p90 has rank 90 and 10 beyond; p95 has 5.
        assert_eq!(tail_percentile(&ascending(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 has rank 990 and 10 beyond.
        assert_eq!(tail_percentile(&ascending(1000)), Some((99.0, 990.0)));
        // 10 000 samples: p99.9 has rank 9990 and 10 beyond.
        assert_eq!(tail_percentile(&ascending(10_000)), Some((99.9, 9990.0)));
        for n in [20, 57, 99, 100, 101, 333, 2048] {
            let v = ascending(n);
            if let Some((p, value)) = tail_percentile(&v) {
                let beyond = v.iter().filter(|&&x| x > value).count();
                assert!(
                    beyond >= MIN_BEYOND,
                    "p{p} of {n} samples has {beyond} beyond"
                );
            }
        }
    }

    #[test]
    fn describe_states_median_tail_and_count() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        assert_eq!(
            s.describe("ms"),
            "median 50.000000 ms, p90 90.000000 ms (n=100)"
        );
        assert_eq!(Samples::default().describe("ms"), "no samples");
    }

    #[test]
    fn metric_names_and_units_follow_the_grammar() {
        let all = END_TO_END
            .iter()
            .chain(END_TO_END_TEXT.iter())
            .chain(PER_LAYER.iter());
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for bad in [
            "",
            ".lead",
            "-lead",
            "has space",
            "slash/y",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        for good in ["a", "0x", "world.look_ms", "events_per_s_t2", "a-b.c_d"] {
            assert!(valid_name(good), "{good:?} must be accepted");
        }
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn json_lists_metrics_and_fails_on_missing_ones() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.metric("a", 1.5, "s");
        let line = out.json(&[("a", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        let line = out.json(&[("a", "s"), ("b", "ms")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
