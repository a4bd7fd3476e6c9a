//! Campaign outcome counts against their closed forms.
//!
//! A bank with per-bit upset probability `p` flips `K ~ Binomial(bits, p)`
//! bits in every word, independently per word, and a word with flips is
//! consumed with probability `c = reads / (reads + words)`. Every outcome
//! count is therefore a sum of independent per-word terms whose mean and
//! variance follow from the binomial pmf alone. This suite recomputes `p`
//! from the technology's FIT rate, sums each count over a fixed seed set,
//! and requires it inside the 5-sigma interval of that closed form:
//!
//! - injected bits: Binomial(seeds · words · bits, p);
//! - masked bits: a `1 − c` share of the injected bits;
//! - parity detected bits: the flips of consumed odd-weight words;
//! - SECDED corrected bits: consumed words with exactly one flip.

use lpmem_energy::Technology;
use lpmem_fault::{
    run_campaign, BankExposure, FaultExposure, FaultSpec, Protection, ReliabilityReport,
};
use lpmem_util::prop::{binomial_bounds, normal_bounds};

/// Campaign seeds summed per case.
const SEEDS: u64 = 16;

/// Interval half-width in standard deviations.
const Z: f64 = 5.0;

/// The two acceleration factors: rare single flips, and a regime where
/// about one flipped word in seven carries two or more flips.
const ACCELS: [u64; 2] = [FaultSpec::DEFAULT_ACCEL, 20 * FaultSpec::DEFAULT_ACCEL];

/// An awake bank read about once per word, and a bank mostly in drowsy
/// sleep read three times per word.
const BANKS: [BankExposure; 2] = [
    BankExposure {
        words: 4096,
        active_ticks: 40_000,
        sleep_ticks: 0,
        reads: 4096,
        writes: 1024,
    },
    BankExposure {
        words: 4096,
        active_ticks: 8_000,
        sleep_ticks: 32_000,
        reads: 12_288,
        writes: 512,
    },
];

/// Per-bit upset probability from the FIT definition: failures per 10⁹
/// device-hours per 2²⁰ bits, one tick = 10 ns, drowsy ticks weighted by
/// the retention multiplier, clamped at 0.25.
fn p_bit(tech: &Technology, accel: u64, bank: &BankExposure) -> f64 {
    let per_bit_tick = tech.seu_fit_per_mbit / 1_048_576.0 / 3.6e12 * 1e-8;
    let ticks = bank.active_ticks as f64 + tech.retention_drowsy_mult * bank.sleep_ticks as f64;
    (per_bit_tick * accel as f64 * ticks).min(0.25)
}

/// `P(K = k)` for `K ~ Binomial(n, p)`.
fn binomial_pmf(n: u32, k: u32, p: f64) -> f64 {
    let choose = (0..k).fold(1.0, |c, i| c * f64::from(n - i) / f64::from(i + 1));
    choose * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// Mean and variance of one word's term `f(K)`, kept with independent
/// probability `keep` (zero otherwise).
fn word_moments(bits: u32, p: f64, keep: f64, f: impl Fn(u32) -> f64) -> (f64, f64) {
    let (m1, m2) = (1..=bits).fold((0.0, 0.0), |(m1, m2), k| {
        let (pmf, x) = (binomial_pmf(bits, k, p), f(k));
        (m1 + pmf * x, m2 + pmf * x * x)
    });
    let mean = keep * m1;
    (mean, keep * m2 - mean * mean)
}

#[test]
fn outcome_counts_match_their_closed_forms() {
    let techs = [
        Technology::tech180(),
        Technology::tech130(),
        Technology::tech90(),
    ];
    let mut failures = Vec::new();
    let mut check =
        |case: &str, what: &str, observed: u64, bounds: std::ops::RangeInclusive<f64>| {
            if !bounds.contains(&(observed as f64)) {
                failures.push(format!("{case}: {what} {observed} outside {bounds:.1?}"));
            }
        };
    for tech in &techs {
        for protection in Protection::ALL {
            for accel in ACCELS {
                for (b, bank) in BANKS.iter().enumerate() {
                    let spec = FaultSpec {
                        rate_scale: accel,
                        protection,
                    };
                    let exposure = FaultExposure {
                        domain: b as u64,
                        banks: vec![*bank],
                    };
                    let mut total = ReliabilityReport::default();
                    for seed in 0..SEEDS {
                        total.merge(&run_campaign(&spec, tech, &exposure, seed));
                    }
                    let case = format!("{}/{}/{accel}/bank {b}", tech.name, protection.name());
                    let bits = protection.total_bits();
                    let p = p_bit(tech, accel, bank);
                    let consume = bank.reads as f64 / (bank.reads + bank.words) as f64;
                    let words = (SEEDS * bank.words) as f64;
                    let sum = |(mean, var): (f64, f64)| normal_bounds(words * mean, words * var, Z);
                    check(
                        &case,
                        "injected",
                        total.injected,
                        binomial_bounds(SEEDS * bank.words * u64::from(bits), p, Z),
                    );
                    check(
                        &case,
                        "masked",
                        total.masked,
                        sum(word_moments(bits, p, 1.0 - consume, f64::from)),
                    );
                    match protection {
                        Protection::None => {}
                        Protection::Parity => check(
                            &case,
                            "detected",
                            total.detected,
                            sum(word_moments(bits, p, consume, |k| {
                                if k % 2 == 1 {
                                    f64::from(k)
                                } else {
                                    0.0
                                }
                            })),
                        ),
                        Protection::Secded => check(
                            &case,
                            "corrected",
                            total.corrected,
                            sum(word_moments(bits, p, consume, |k| {
                                if k == 1 {
                                    1.0
                                } else {
                                    0.0
                                }
                            })),
                        ),
                    }
                    assert_eq!(
                        total.injected,
                        total.masked + total.detected + total.corrected + total.silent,
                        "{case}"
                    );
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn the_closed_forms_are_consistent() {
    // The pmf sums to one, and the injected-bit term reproduces the
    // binomial mean and variance the injected bound uses.
    let (bits, p) = (39, 0.016);
    let total: f64 = (0..=bits).map(|k| binomial_pmf(bits, k, p)).sum();
    assert!((total - 1.0).abs() < 1e-12, "{total}");
    let (mean, var) = word_moments(bits, p, 1.0, f64::from);
    assert!((mean - 39.0 * p).abs() < 1e-12, "{mean}");
    assert!((var - 39.0 * p * (1.0 - p)).abs() < 1e-12, "{var}");
    // At the 2e16 factor the drowsy bank sits in the multi-flip regime
    // the suite means to cover, well below the 0.25 clamp.
    let p90 = p_bit(&Technology::tech90(), ACCELS[1], &BANKS[1]);
    assert!((0.005..0.25).contains(&p90), "{p90}");
}
