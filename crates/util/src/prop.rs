//! Seeded property-test harness.
//!
//! A minimal, deterministic replacement for `proptest`: a property is a
//! closure over an [`Rng`], the harness runs it for a configurable number
//! of cases, and every case gets its own seed derived from the base seed
//! through [`SplitMix64`]. When a case panics, the harness reports the
//! case index and **case seed** before re-panicking, so any failure can be
//! replayed exactly:
//!
//! ```text
//! LPMEM_PROP_SEED=0x8c91…cafe cargo test -p lpmem-compress diff_roundtrips
//! ```
//!
//! Environment knobs:
//!
//! * `LPMEM_PROP_CASES` — overrides the case count of every property
//!   (e.g. `LPMEM_PROP_CASES=10000` for a soak run).
//! * `LPMEM_PROP_SEED` — runs a *single* case with the given seed,
//!   replaying a reported failure.
//!
//! Both take decimal or `0x`-hex. A set value that does not parse, or a
//! case count of 0, panics with the variable's name and value.
//!
//! Stochastic models are checked against their analytic expectation with
//! counting bounds: [`binomial_bounds`], [`poisson_bounds`] and the
//! [`normal_bounds`] they share give the `z`-sigma interval an observed
//! count must fall in.
//!
//! ```
//! use lpmem_util::Props;
//!
//! Props::new("addition commutes").cases(128).run(|rng| {
//!     let (a, b) = (rng.next_u32() as u64, rng.next_u32() as u64);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::ops::RangeInclusive;
use std::panic::{self, AssertUnwindSafe};

use crate::rng::{Rng, SplitMix64};

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// A configured property run: name, case count, and base seed.
#[derive(Debug, Clone)]
pub struct Props {
    name: String,
    cases: u32,
    seed: u64,
}

impl Props {
    /// Creates a property named `name` with the default case count and a
    /// base seed derived from the name (so distinct properties explore
    /// distinct streams even with identical bodies).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Props {
            name,
            cases: DEFAULT_CASES,
            seed,
        }
    }

    /// Sets the number of generated cases (default [`DEFAULT_CASES`]).
    ///
    /// # Panics
    ///
    /// Panics if `cases` is zero.
    pub fn cases(mut self, cases: u32) -> Self {
        assert!(cases > 0, "a property needs at least one case");
        self.cases = cases;
        self
    }

    /// Sets the base seed (default: derived from the property name).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the property, panicking with the failing case seed on the
    /// first violated case.
    ///
    /// # Panics
    ///
    /// Re-panics with case/seed context whenever `property` panics.
    pub fn run<F>(&self, mut property: F)
    where
        F: FnMut(&mut Rng),
    {
        if let Some(seed) = env_seed() {
            // Replay mode: exactly one case, the reported seed.
            self.run_case(&mut property, 0, 1, seed);
            return;
        }
        let cases = env_cases().unwrap_or(self.cases);
        let mut sm = SplitMix64::new(self.seed);
        for case in 0..cases {
            let case_seed = sm.next_u64();
            self.run_case(&mut property, case, cases, case_seed);
        }
    }

    fn run_case<F>(&self, property: &mut F, case: u32, cases: u32, case_seed: u64)
    where
        F: FnMut(&mut Rng),
    {
        let mut rng = Rng::seed_from_u64(case_seed);
        let result = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng)));
        if let Err(payload) = result {
            let cause = payload_message(&payload);
            panic!(
                "property '{}' failed at case {}/{} (seed {:#018x}): {}\n\
                 replay with: LPMEM_PROP_SEED={:#x} cargo test",
                self.name,
                case + 1,
                cases,
                case_seed,
                cause,
                case_seed,
            );
        }
    }
}

/// Runs `property` for the default number of cases. Shorthand for
/// [`Props::new`]`(name).run(property)`.
pub fn check<F>(name: &str, property: F)
where
    F: FnMut(&mut Rng),
{
    Props::new(name).run(property);
}

/// The `z`-sigma interval `mean ± z·√variance` of a count that is a sum
/// of many independent draws (the normal approximation).
///
/// ```
/// use lpmem_util::prop::normal_bounds;
///
/// assert_eq!(normal_bounds(100.0, 25.0, 2.0), 90.0..=110.0);
/// ```
///
/// # Panics
///
/// Panics unless `mean` and `variance` are finite and non-negative and
/// `z` is positive.
pub fn normal_bounds(mean: f64, variance: f64, z: f64) -> RangeInclusive<f64> {
    assert!(
        mean.is_finite() && mean >= 0.0 && variance.is_finite() && variance >= 0.0,
        "a count needs a finite non-negative mean and variance, got {mean} and {variance}"
    );
    assert!(z > 0.0, "z must be positive, got {z}");
    let half = z * variance.sqrt();
    mean - half..=mean + half
}

/// The `z`-sigma interval of a Binomial(`trials`, `p`) count:
/// `trials·p ± z·√(trials·p·(1−p))`.
///
/// ```
/// use lpmem_util::prop::binomial_bounds;
///
/// // 2000 draws kept with probability 1/8: 250 ± 5·14.8.
/// let bounds = binomial_bounds(2000, 0.125, 5.0);
/// assert!(bounds.contains(&180.0) && !bounds.contains(&170.0));
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `0.0..=1.0` or `z` is not positive.
pub fn binomial_bounds(trials: u64, p: f64, z: f64) -> RangeInclusive<f64> {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let n = trials as f64;
    normal_bounds(n * p, n * p * (1.0 - p), z)
}

/// The `z`-sigma interval of a Poisson(`mean`) count, `mean ± z·√mean`:
/// the limit of a binomial count of rare events.
///
/// # Panics
///
/// Panics unless `mean` is finite and non-negative and `z` is positive.
pub fn poisson_bounds(mean: f64, z: f64) -> RangeInclusive<f64> {
    normal_bounds(mean, mean, z)
}

const CASES_VAR: &str = "LPMEM_PROP_CASES";
const SEED_VAR: &str = "LPMEM_PROP_SEED";

fn env_cases() -> Option<u32> {
    std::env::var_os(CASES_VAR).map(|v| parse_cases(&v.to_string_lossy()))
}

fn env_seed() -> Option<u64> {
    std::env::var_os(SEED_VAR).map(|v| parse_seed(&v.to_string_lossy()))
}

/// Parses an `LPMEM_PROP_CASES` value. A typo must not fall back to the
/// default count, and 0 cases would pass every property vacuously.
///
/// # Panics
///
/// Panics, naming the variable and the value, unless it is a positive
/// `u32`.
fn parse_cases(raw: &str) -> u32 {
    parse_number(raw)
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| panic!("{CASES_VAR}={raw:?} is not a positive case count"))
}

/// Parses an `LPMEM_PROP_SEED` value. A typo must not turn a replay into
/// a run of the default stream.
///
/// # Panics
///
/// Panics, naming the variable and the value, unless it is a `u64`.
fn parse_seed(raw: &str) -> u64 {
    parse_number(raw)
        .unwrap_or_else(|| panic!("{SEED_VAR}={raw:?} is not a seed (decimal or 0x-hex)"))
}

/// A decimal or `0x`-hex `u64`, surrounding whitespace ignored.
fn parse_number(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn runs_the_configured_number_of_cases() {
        let count = AtomicU32::new(0);
        Props::new("counts cases").cases(37).run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn case_streams_are_deterministic() {
        let mut first = Vec::new();
        Props::new("stream")
            .cases(8)
            .run(|rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        Props::new("stream")
            .cases(8)
            .run(|rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
    }

    #[test]
    fn distinct_names_explore_distinct_streams() {
        let mut a = Vec::new();
        Props::new("alpha")
            .cases(4)
            .run(|rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        Props::new("beta")
            .cases(4)
            .run(|rng| b.push(rng.next_u64()));
        assert_ne!(a, b);
    }

    #[test]
    fn failure_reports_the_failing_seed() {
        let result = panic::catch_unwind(|| {
            Props::new("always fails").cases(16).run(|rng| {
                let v = rng.next_u64();
                assert!(v == 0, "v = {v}");
            });
        });
        let payload = result.expect_err("the property must fail");
        let message = payload_message(&*payload);
        assert!(message.contains("seed 0x"), "no seed in: {message}");
        assert!(
            message.contains("LPMEM_PROP_SEED="),
            "no replay hint in: {message}"
        );
        assert!(
            message.contains("always fails"),
            "no property name in: {message}"
        );
        assert!(
            message.contains("case 1/16"),
            "first case must fail: {message}"
        );
    }

    #[test]
    fn reported_seed_replays_the_failure() {
        // Find the seed the harness reports for a failing property…
        let result = panic::catch_unwind(|| {
            Props::new("replayable").cases(4).run(|rng| {
                let v = rng.next_u64();
                assert!(v % 2 == 1, "even draw {v:#x}");
            });
        });
        let message = payload_message(&*result.expect_err("must fail"));
        let seed_hex = message
            .split("seed ")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .expect("message carries the seed");
        let seed = u64::from_str_radix(seed_hex.trim_start_matches("0x"), 16).unwrap();
        // …then replaying that exact seed must reproduce the violation.
        let mut rng = Rng::seed_from_u64(seed);
        assert_eq!(rng.next_u64() % 2, 0, "replayed case must still violate");
    }

    #[test]
    #[should_panic(expected = "at least one case")]
    fn zero_cases_is_rejected() {
        let _ = Props::new("empty").cases(0);
    }

    #[test]
    fn counting_bounds_are_z_sigma_intervals() {
        assert_eq!(binomial_bounds(400, 0.5, 3.0), 170.0..=230.0);
        assert_eq!(binomial_bounds(10, 0.0, 5.0), 0.0..=0.0);
        assert_eq!(poisson_bounds(100.0, 3.0), 70.0..=130.0);
        assert_eq!(poisson_bounds(0.0, 5.0), 0.0..=0.0);
        // A binomial of rare events approaches its Poisson limit.
        let (b, p) = (
            binomial_bounds(1 << 30, 1e-7, 5.0),
            poisson_bounds(107.374_182_4, 5.0),
        );
        assert!((b.start() - p.start()).abs() < 1e-3 && (b.end() - p.end()).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn binomial_bounds_reject_a_bad_probability() {
        let _ = binomial_bounds(10, 1.5, 5.0);
    }

    #[test]
    #[should_panic(expected = "non-negative mean")]
    fn poisson_bounds_reject_a_negative_mean() {
        let _ = poisson_bounds(-1.0, 5.0);
    }

    #[test]
    fn harness_variables_take_decimal_and_hex() {
        assert_eq!(parse_cases("10000"), 10_000);
        assert_eq!(parse_cases(" 0x10 "), 16);
        assert_eq!(parse_seed("42"), 42);
        assert_eq!(parse_seed("0x8c91cafe"), 0x8c91_cafe);
        assert_eq!(parse_seed("0XFF"), 255);
    }

    #[test]
    fn invalid_harness_variables_panic_with_name_and_value() {
        let message = |f: &dyn Fn()| {
            let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
            payload_message(&*payload)
        };
        for raw in ["0", "0x0", "ten", "", "4294967296", "-1"] {
            let m = message(&|| {
                parse_cases(raw);
            });
            assert!(m.contains(&format!("LPMEM_PROP_CASES={raw:?}")), "{m}");
        }
        for raw in ["0xzz", "seed", "", "18446744073709551616", "0x"] {
            let m = message(&|| {
                parse_seed(raw);
            });
            assert!(m.contains(&format!("LPMEM_PROP_SEED={raw:?}")), "{m}");
        }
    }
}
