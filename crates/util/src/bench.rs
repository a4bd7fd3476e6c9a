//! Std-only micro-benchmark timing harness.
//!
//! A deliberately small replacement for `criterion`: no statistics beyond
//! warmup + median-of-N (plus min/max spread), no plotting, no external
//! dependencies — just [`std::time::Instant`] and a calibrated inner loop,
//! runnable as a plain binary so benches work offline.
//!
//! ```
//! use lpmem_util::bench::{benchmark, black_box, Options};
//!
//! let m = benchmark("sum", &Options::quick(), || {
//!     black_box((0..1000u64).sum::<u64>())
//! });
//! assert!(m.median_ns > 0.0);
//! ```

use std::time::Instant;

pub use std::hint::black_box;

/// Sampling configuration for [`benchmark`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Target wall-clock time spent warming up, in nanoseconds.
    pub warmup_ns: u64,
    /// Number of timed samples; the reported time is their median.
    pub samples: u32,
    /// Target wall-clock time per sample, in nanoseconds (the inner
    /// iteration count is calibrated to hit this).
    pub sample_ns: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            warmup_ns: 200_000_000,
            samples: 15,
            sample_ns: 50_000_000,
        }
    }
}

impl Options {
    /// A fast configuration for smoke runs and tests (~a few ms total).
    pub fn quick() -> Self {
        Options {
            warmup_ns: 1_000_000,
            samples: 5,
            sample_ns: 1_000_000,
        }
    }
}

/// One benchmark's timing summary. All times are per-iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Median per-iteration time over the samples, in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time, in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time, in nanoseconds.
    pub max_ns: f64,
    /// Iterations per timed sample (after calibration).
    pub iters_per_sample: u64,
    /// Total iterations across warmup and sampling.
    pub total_iters: u64,
}

impl Measurement {
    /// Median throughput in iterations per second.
    pub fn iters_per_sec(&self) -> f64 {
        if self.median_ns > 0.0 {
            1e9 / self.median_ns
        } else {
            f64::INFINITY
        }
    }

    /// Median throughput in `elements`-per-second units, for a benchmark
    /// whose one iteration processes `elements` items.
    pub fn elems_per_sec(&self, elements: u64) -> f64 {
        self.iters_per_sec() * elements as f64
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
pub fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Calibration: double the iteration count until one batch is long
/// enough to time reliably, then report the per-iteration cost and how
/// many iterations calibration burned.
fn calibrate<R>(f: &mut impl FnMut() -> R) -> (u64, u64) {
    let mut iters: u64 = 1;
    let mut calib_ns;
    let mut total_iters = 0u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        calib_ns = start.elapsed().as_nanos() as u64;
        total_iters += iters;
        if calib_ns >= 1_000_000 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    ((calib_ns / iters).max(1), total_iters)
}

/// Runs `f` under the given options and returns the timing summary.
///
/// The harness first calibrates an inner iteration count so each sample
/// takes roughly `opts.sample_ns`, then warms up for `opts.warmup_ns`,
/// then records `opts.samples` timed samples and reports their median.
pub fn benchmark<R>(name: &str, opts: &Options, mut f: impl FnMut() -> R) -> Measurement {
    let (per_iter, mut total_iters) = calibrate(&mut f);
    let iters_per_sample = (opts.sample_ns / per_iter).clamp(1, 100_000_000);

    // Warmup.
    let warm_start = Instant::now();
    while (warm_start.elapsed().as_nanos() as u64) < opts.warmup_ns {
        for _ in 0..iters_per_sample.min(1024) {
            black_box(f());
            total_iters += 1;
        }
    }

    // Timed samples.
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(opts.samples as usize);
    for _ in 0..opts.samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64;
        total_iters += iters_per_sample;
        per_iter_ns.push(ns / iters_per_sample as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median_ns = median_of_sorted(&per_iter_ns);

    Measurement {
        name: name.to_string(),
        median_ns,
        min_ns: per_iter_ns[0],
        max_ns: *per_iter_ns.last().expect("at least one sample"),
        iters_per_sample,
        total_iters,
    }
}

/// The result of a paired A/B comparison: each side's timing summary plus
/// the median of the **per-sample** `A / B` time ratios.
///
/// On a machine with slow load drift (thermal throttling, noisy
/// neighbours), timing all of A and then all of B puts the drift entirely
/// into the ratio of their medians. Pairing times both sides back-to-back
/// inside every sample, so each ratio sees the same weather and the
/// median ratio is what survives.
#[derive(Debug, Clone)]
pub struct PairedMeasurement {
    /// Side A's summary (medians are still per-side, for reporting).
    pub a: Measurement,
    /// Side B's summary.
    pub b: Measurement,
    /// Median over samples of `per_iter_a / per_iter_b`.
    pub ratio: f64,
}

/// Benchmarks `fa` against `fb` with paired samples; see
/// [`PairedMeasurement`] for why this beats two independent
/// [`benchmark`] calls when the quantity of interest is the ratio.
pub fn benchmark_paired<RA, RB>(
    name_a: &str,
    name_b: &str,
    opts: &Options,
    mut fa: impl FnMut() -> RA,
    mut fb: impl FnMut() -> RB,
) -> PairedMeasurement {
    let (per_a, mut total_a) = calibrate(&mut fa);
    let (per_b, mut total_b) = calibrate(&mut fb);
    // Each side gets half the per-sample budget.
    let iters_a = (opts.sample_ns / 2 / per_a).clamp(1, 100_000_000);
    let iters_b = (opts.sample_ns / 2 / per_b).clamp(1, 100_000_000);

    // Warm both sides together so they reach steady state under the same
    // conditions.
    let warm_start = Instant::now();
    while (warm_start.elapsed().as_nanos() as u64) < opts.warmup_ns {
        for _ in 0..iters_a.min(512) {
            black_box(fa());
            total_a += 1;
        }
        for _ in 0..iters_b.min(512) {
            black_box(fb());
            total_b += 1;
        }
    }

    let samples = opts.samples.max(1) as usize;
    let mut ns_a: Vec<f64> = Vec::with_capacity(samples);
    let mut ns_b: Vec<f64> = Vec::with_capacity(samples);
    let mut ratios: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters_a {
            black_box(fa());
        }
        let a = start.elapsed().as_nanos() as f64 / iters_a as f64;
        let start = Instant::now();
        for _ in 0..iters_b {
            black_box(fb());
        }
        let b = start.elapsed().as_nanos() as f64 / iters_b as f64;
        total_a += iters_a;
        total_b += iters_b;
        ns_a.push(a);
        ns_b.push(b);
        ratios.push(a / b);
    }
    ns_a.sort_by(|x, y| x.total_cmp(y));
    ns_b.sort_by(|x, y| x.total_cmp(y));
    ratios.sort_by(|x, y| x.total_cmp(y));

    let side = |name: &str, sorted: &[f64], iters: u64, total: u64| Measurement {
        name: name.to_string(),
        median_ns: median_of_sorted(sorted),
        min_ns: sorted[0],
        max_ns: *sorted.last().expect("at least one sample"),
        iters_per_sample: iters,
        total_iters: total,
    };
    PairedMeasurement {
        a: side(name_a, &ns_a, iters_a, total_a),
        b: side(name_b, &ns_b, iters_b, total_b),
        ratio: median_of_sorted(&ratios),
    }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_closure() {
        let m = benchmark("noop", &Options::quick(), || black_box(1u32 + 1));
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.iters_per_sample >= 1);
        assert!(m.total_iters >= u64::from(Options::quick().samples));
    }

    #[test]
    fn slower_work_reports_larger_times() {
        let opts = Options::quick();
        let fast = benchmark("fast", &opts, || (0..10u64).map(black_box).sum::<u64>());
        let slow = benchmark("slow", &opts, || (0..10_000u64).map(black_box).sum::<u64>());
        assert!(
            slow.median_ns > fast.median_ns,
            "slow {} vs fast {}",
            slow.median_ns,
            fast.median_ns
        );
    }

    #[test]
    fn paired_ratio_tracks_relative_cost() {
        let m = benchmark_paired(
            "slow",
            "fast",
            &Options::quick(),
            || (0..20_000u64).map(black_box).sum::<u64>(),
            || (0..1_000u64).map(black_box).sum::<u64>(),
        );
        assert!(
            m.ratio > 1.0,
            "20x the work should time slower: ratio {}",
            m.ratio
        );
        assert!(m.a.median_ns > m.b.median_ns);
    }

    #[test]
    fn throughput_conversions_are_consistent() {
        let m = Measurement {
            name: "x".into(),
            median_ns: 1000.0,
            min_ns: 900.0,
            max_ns: 1100.0,
            iters_per_sample: 10,
            total_iters: 100,
        };
        assert!((m.iters_per_sec() - 1e6).abs() < 1e-6);
        assert!((m.elems_per_sec(64) - 64e6).abs() < 1e-3);
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(12_300.0), "12.30 µs");
        assert_eq!(format_ns(12_300_000.0), "12.30 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
