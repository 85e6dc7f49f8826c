//! Experiment harness: regenerates every table and figure of the
//! HeapTherapy+ evaluation (paper Section VIII).
//!
//! Each `expN` module produces the rows of one paper artifact; the
//! `reproduce` binary prints them next to the paper's reported numbers, the
//! timing-based ones as medians over `--samples` runs. Absolute numbers
//! differ from the paper (the substrate is a simulator, not the authors'
//! Xeon) — the *shape* is what reproduces.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — instrumentation of the example graph |
//! | [`table1`] | Table I — buffer structure selection |
//! | [`table2`] | Table II — effectiveness on the vulnerable programs |
//! | [`table3`] | Table III — binary size increase per encoding |
//! | [`table4`] | Table IV — SPEC heap allocation statistics |
//! | [`encoding`] | §VIII-B1 — encoding runtime overhead |
//! | [`fig8`] | Fig. 8 — runtime overhead vs. patch count |
//! | [`fig9`] | Fig. 9 — memory overhead |
//! | [`services`] | §VIII-B2 — Nginx/MySQL throughput |
//! | [`ablation`] | design-choice ablations (stack walking, guard-all, quota, lookup) |
//! | [`lint`] | static triage — static-vs-dynamic agreement on the Table II suite |
//! | [`scaling`] | multi-threaded allocation-throughput scaling (not in the paper) |
//! | [`shadow`] | offline-replay kernel throughput, word vs. reference (not in the paper) |
//! | [`telemetry`] | §VII — one-time attack reports across the Table II corpus |
//!
//! [`baselines`] holds the CI guards over the JSON the last three write.

pub mod ablation;
pub mod baselines;
pub mod encoding;
pub mod fig2;
pub mod fig8;
pub mod fig9;
pub mod lint;
pub mod scaling;
pub mod services;
pub mod shadow;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod telemetry;

use ht_jsonio::Json;
use std::time::Instant;

/// Median-of-`n` wall-time measurement of `f`, in seconds.
///
/// Runs one untimed warm-up iteration first so cold-start effects (page
/// faults, lazy allocations, branch-predictor training) land outside the
/// measured samples.
pub fn time_median<F: FnMut()>(n: usize, f: F) -> f64 {
    time_spread(n, f).median
}

/// [`time_median`] of `f`, with the value its last sample returned.
pub fn time_median_last<T, F: FnMut() -> T>(n: usize, mut f: F) -> (f64, T) {
    let mut last = None;
    let t = time_median(n, || last = Some(f()));
    (t, last.expect("time_median calls f"))
}

/// [`time_median`] with the range of the `n` samples, in seconds.
pub fn time_spread<F: FnMut()>(n: usize, mut f: F) -> Spread {
    f();
    Spread::of(
        (0..n.max(1))
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// A measurement's samples: their median, min and max.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spread {
    /// Median sample.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples` (all zero for none).
    pub fn of(samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            median: median(samples),
            min,
            max,
        }
    }

    /// JSON fields `name` (the median), `name_min` and `name_max`, rounded
    /// to integers since the wire format is integer-only.
    pub fn json_fields(self, name: &str) -> [(String, Json); 3] {
        [
            (name.to_string(), Json::U64(self.median as u64)),
            (format!("{name}_min"), Json::U64(self.min as u64)),
            (format!("{name}_max"), Json::U64(self.max as u64)),
        ]
    }

    /// Every statistic scaled by `k` (`k >= 0`).
    pub fn scale(self, k: f64) -> Self {
        Self {
            median: self.median * k,
            min: self.min * k,
            max: self.max * k,
        }
    }
}

/// The median of `samples` (0 for none).
pub fn median(mut samples: Vec<f64>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    // True median: even-length samples average the two middle elements
    // (indexing `len / 2` alone would bias toward the slower half).
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Percent overhead of `x` over baseline `base`.
pub fn overhead_pct(base: f64, x: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    100.0 * (x - base) / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A closure whose i-th invocation sleeps `schedule[i]` milliseconds
    /// (cycling), so the sorted sample vector is fully deterministic in
    /// *rank order* even if absolute timings jitter.
    fn staged(schedule: &'static [u64]) -> (impl FnMut(), std::rc::Rc<Cell<usize>>) {
        let calls = std::rc::Rc::new(Cell::new(0usize));
        let c = calls.clone();
        let f = move || {
            let i = c.get();
            c.set(i + 1);
            std::thread::sleep(std::time::Duration::from_millis(
                schedule[i % schedule.len()],
            ));
        };
        (f, calls)
    }

    #[test]
    fn warm_up_iteration_is_excluded_from_samples() {
        // Warm-up call is the first (index 0, 50 ms); the n=2 measured
        // calls sleep 1 ms each. If the warm-up leaked into the samples the
        // median would exceed 25 ms.
        let (f, calls) = staged(&[50, 1, 1]);
        let m = time_median(2, f);
        assert_eq!(calls.get(), 3, "one warm-up + two measured");
        assert!(m < 0.025, "median {m} polluted by warm-up");
    }

    #[test]
    fn even_n_averages_the_two_middle_samples() {
        // Measured sleeps (after 1 warm-up): 0, 0, 40, 40 ms → sorted the
        // middle pair is (0 ms, 40 ms); the median must land near 20 ms.
        // The old upper-middle indexing returned ~40 ms.
        let (f, _) = staged(&[0, 0, 0, 40, 40]);
        let m = time_median(4, f);
        assert!(m > 0.010, "median {m} ignored the upper middle sample");
        assert!(
            m < 0.035,
            "median {m} is the upper element, not the midpoint"
        );
    }

    #[test]
    fn odd_n_returns_the_middle_sample() {
        let (f, _) = staged(&[0, 0, 20, 0, 0]);
        // Measured: 0, 20, 0 ms → median is the 0/20/0 middle, i.e. 0 ms
        // after sorting ([0, 0, 20] → 0). Must stay well under 10 ms.
        let m = time_median(3, f);
        assert!(m < 0.010, "odd-length median {m} not the middle element");
    }

    #[test]
    fn overhead_pct_basics() {
        assert_eq!(overhead_pct(2.0, 3.0), 50.0);
        assert_eq!(overhead_pct(0.0, 3.0), 0.0);
        assert_eq!(overhead_pct(4.0, 3.0), -25.0);
    }
}
