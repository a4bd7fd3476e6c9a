//! The deterministic fault-injection campaign engine.
//!
//! A campaign visits only the words that flip. Each bank of a
//! [`FaultExposure`] draws the gaps between its hit words from one stream,
//! `SplitMix64::derive(seed, [domain, bank, TAG_FAULT_GAP])`, and each hit
//! word draws its data, flip mask and consumption from its own stream,
//! `SplitMix64::derive(seed, [domain, bank, word, TAG_FAULT])`. Both are
//! pure functions of *logical coordinates*, never of execution order, so
//! a campaign sharded across any number of workers produces
//! byte-identical [`ReliabilityReport`]s, and its cost is proportional to
//! the flips drawn rather than to the words exposed. All outcome
//! accounting is integer; floats appear only in the upset probabilities
//! (model parameters) and at render time.
//!
//! The per-bit upset probability combines both fault models: single-event
//! upsets accrue over a bank's powered ticks at the technology's
//! [`seu_fit_per_mbit`](Technology::seu_fit_per_mbit) rate, and retention
//! failures accrue over its drowsy-sleep ticks at that rate times
//! [`retention_drowsy_mult`](Technology::retention_drowsy_mult) — sleep
//! residency (from `lpmem-partition::sleep`) directly scales the fault
//! rate. Real FIT rates are invisible at simulation timescales, so a
//! campaign applies a beam-style acceleration factor
//! ([`FaultSpec::rate_scale`]), exactly like accelerated soft-error
//! testing of physical parts.

use lpmem_energy::Technology;
use lpmem_util::json::JsonObject;
use lpmem_util::{Rng, SplitMix64};

use crate::codec::{parity_decode, parity_encode, secded_decode, secded_encode, DecodeOutcome};
use crate::Protection;

/// Domain tag terminating the derivation path of a hit word's draws.
pub const TAG_FAULT: u64 = 0xFA17;

/// Domain tag terminating the derivation path of a bank's gap stream.
const TAG_FAULT_GAP: u64 = 0xFA18;

/// Seconds per logical tick (one trace event at a 100 MHz reference
/// clock).
const TICK_SECONDS: f64 = 1e-8;

/// Hours in the FIT denominator (failures per 10⁹ device-hours).
const FIT_HOURS: f64 = 1e9;

/// Bits per Mbit in the FIT denominator.
const MBIT_BITS: f64 = (1u64 << 20) as f64;

/// One reliability configuration: an acceleration factor for the
/// technology's fault rates plus a protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Beam-style acceleration factor on the technology's FIT rates.
    /// `0` disables injection entirely.
    pub rate_scale: u64,
    /// Protection scheme the memory words are stored under.
    pub protection: Protection,
}

impl FaultSpec {
    /// Default acceleration factor: scales nominal FIT rates (~10⁻²⁴
    /// upsets per bit-tick) into the regime where a kernel-sized
    /// campaign observes tens of faults.
    pub const DEFAULT_ACCEL: u64 = 1_000_000_000_000_000;

    /// The disabled configuration: no injection, no protection — the
    /// differential-guarantee baseline that must reproduce every
    /// pre-fault report byte-for-byte.
    pub fn off() -> FaultSpec {
        FaultSpec {
            rate_scale: 0,
            protection: Protection::None,
        }
    }

    /// An accelerated campaign at [`DEFAULT_ACCEL`](Self::DEFAULT_ACCEL)
    /// under the given protection.
    pub fn accelerated(protection: Protection) -> FaultSpec {
        FaultSpec {
            rate_scale: Self::DEFAULT_ACCEL,
            protection,
        }
    }

    /// Whether this spec changes anything relative to today's flows.
    pub fn enabled(&self) -> bool {
        self.rate_scale > 0 || self.protection != Protection::None
    }

    /// Report/CLI label: `off`, or `<protection>:<rate_scale>`.
    pub fn label(&self) -> String {
        if !self.enabled() {
            "off".to_owned()
        } else {
            format!("{}:{}", self.protection.name(), self.rate_scale)
        }
    }

    /// Parses a label: `off`, a bare protection name (accelerated at the
    /// default factor), or `<protection>:<rate_scale>`.
    pub fn parse(s: &str) -> Option<FaultSpec> {
        let s = s.trim().to_ascii_lowercase();
        if s == "off" {
            return Some(FaultSpec::off());
        }
        match s.split_once(':') {
            None => Protection::parse(&s).map(FaultSpec::accelerated),
            Some((prot, scale)) => {
                let protection = Protection::parse(prot)?;
                let rate_scale = scale.parse().ok()?;
                Some(FaultSpec {
                    rate_scale,
                    protection,
                })
            }
        }
    }
}

/// Fault exposure of one memory bank: its size and how long it sat in
/// each power state. All integers, derived from trace replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankExposure {
    /// 32-bit data words in the bank.
    pub words: u64,
    /// Ticks the bank spent powered at nominal Vdd.
    pub active_ticks: u64,
    /// Ticks the bank spent in drowsy retention sleep.
    pub sleep_ticks: u64,
    /// Word reads served by the bank (drives the consumption model).
    pub reads: u64,
    /// Word writes served by the bank (drives encode-energy accounting;
    /// writes refresh words, so they do not consume upsets).
    pub writes: u64,
}

/// The campaign's view of a whole memory: its banks plus a domain tag
/// separating independent fault universes (e.g. per-device campaigns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultExposure {
    /// Derivation-path domain (0 for a flow's data memory; fleet
    /// campaigns use the device index).
    pub domain: u64,
    /// Per-bank exposure records.
    pub banks: Vec<BankExposure>,
}

impl FaultExposure {
    /// A single-bank exposure with no sleep residency — the degenerate
    /// memory shape used by flows without a banked data memory model.
    pub fn single_bank(words: u64, active_ticks: u64, reads: u64) -> FaultExposure {
        FaultExposure {
            domain: 0,
            banks: vec![BankExposure {
                words,
                active_ticks,
                sleep_ticks: 0,
                reads,
                writes: 0,
            }],
        }
    }

    /// Total word accesses (reads + writes) across every bank — the unit
    /// the protection's encode/decode energy is charged per.
    pub fn accesses(&self) -> u64 {
        self.banks.iter().map(|b| b.reads + b.writes).sum()
    }
}

/// Integer outcome accounting of one campaign. Every injected bit lands
/// in exactly one of the four outcome classes, so
/// `injected == masked + detected + corrected + silent` always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReliabilityReport {
    /// Bits flipped by the injector.
    pub injected: u64,
    /// Flipped bits in words the workload never consumed.
    pub masked: u64,
    /// Flipped bits the protection detected but could not repair.
    pub detected: u64,
    /// Flipped bits the protection repaired (consumer saw correct data).
    pub corrected: u64,
    /// Flipped bits that reached the consumer as wrong data undetected —
    /// silent data corruption, the fourth Pareto objective.
    pub silent: u64,
}

impl ReliabilityReport {
    /// Whether the campaign observed no faults at all.
    pub fn is_empty(&self) -> bool {
        self.injected == 0
    }

    /// Folds another report into this one (campaigns over disjoint
    /// exposures compose by addition).
    pub fn merge(&mut self, other: &ReliabilityReport) {
        self.injected += other.injected;
        self.masked += other.masked;
        self.detected += other.detected;
        self.corrected += other.corrected;
        self.silent += other.silent;
    }

    /// Appends the five outcome counts to a report record, in the order
    /// every JSON report writes them (`injected` … `silent`).
    pub fn json_fields(&self, obj: JsonObject) -> JsonObject {
        obj.u64("injected", self.injected)
            .u64("masked", self.masked)
            .u64("detected", self.detected)
            .u64("corrected", self.corrected)
            .u64("silent", self.silent)
    }
}

/// Per-bit upset probability of a bank under `spec`: the accelerated
/// FIT rate integrated over the bank's active and (drowsy-penalized)
/// sleep ticks, clamped to 0.25 so the Bernoulli model stays sane under
/// extreme acceleration.
fn upset_probability(spec: &FaultSpec, tech: &Technology, bank: &BankExposure) -> f64 {
    let per_bit_tick = tech.seu_fit_per_mbit / MBIT_BITS / (FIT_HOURS * 3600.0) * TICK_SECONDS;
    let effective_ticks =
        bank.active_ticks as f64 + tech.retention_drowsy_mult * bank.sleep_ticks as f64;
    (per_bit_tick * spec.rate_scale as f64 * effective_ticks).min(0.25)
}

/// Runs one deterministic fault campaign over `exposure`.
///
/// Every word of a bank flips each of its `bits` stored bits with the
/// bank's probability `p`, so it is hit (at least one flip) with
/// probability `q = 1 − (1−p)^bits`. The campaign skips straight from
/// one hit word to the next: the gap is geometric,
/// `⌊ln U / ln(1−q)⌋` for `U` uniform in `(0, 1]`, drawn from the bank's
/// gap stream. A hit word then draws from its own stream its stored
/// data, its first flipped bit (a geometric over the bits, conditioned on
/// at least one flip), a Bernoulli(`p`) flip for each later bit, and
/// whether it is *consumed*, with probability `reads / (reads + words)`
/// of its bank (unconsumed upsets are masked — overwritten or never
/// read). Each word thus follows exactly the per-bit Bernoulli model.
/// Consumed words pass through the protection's **real**
/// encode/flip/decode path and are classified by comparing the decoded
/// data against the original, so SECDED miscorrections on triple flips
/// are honestly accounted as silent.
pub fn run_campaign(
    spec: &FaultSpec,
    tech: &Technology,
    exposure: &FaultExposure,
    seed: u64,
) -> ReliabilityReport {
    let mut report = ReliabilityReport::default();
    if spec.rate_scale == 0 {
        return report;
    }
    let bits = u64::from(spec.protection.total_bits());
    for (b, bank) in exposure.banks.iter().enumerate() {
        let p_bit = upset_probability(spec, tech, bank);
        if p_bit <= 0.0 || bank.words == 0 {
            continue;
        }
        let ln_keep_bit = (-p_bit).ln_1p();
        let ln_keep_word = bits as f64 * ln_keep_bit;
        let q_word = -ln_keep_word.exp_m1();
        let p_consume = bank.reads as f64 / (bank.reads as f64 + bank.words as f64);
        let (domain, b) = (exposure.domain, b as u64);
        let mut gaps = Rng::seed_from_u64(SplitMix64::derive(seed, &[domain, b, TAG_FAULT_GAP]));
        let mut next = 0;
        // `1 − gen_f64()` is uniform in (0, 1]; a gap reaching past the
        // bank's last word ends the bank.
        while let Some(gap) = floor_below(
            (1.0 - gaps.gen_f64()).ln() / ln_keep_word,
            bank.words - next,
        ) {
            let w = next + gap;
            next = w + 1;
            let mut rng = Rng::seed_from_u64(SplitMix64::derive(seed, &[domain, b, w, TAG_FAULT]));
            let data = u32::try_from(rng.next_u64() & 0xFFFF_FFFF).expect("masked to 32 bits");
            // Inverse CDF of the first flipped bit given at least one.
            let first = floor_below((-rng.gen_f64() * q_word).ln_1p() / ln_keep_bit, bits)
                .unwrap_or(bits - 1);
            let mut mask = 1u64 << first;
            for bit in first + 1..bits {
                if rng.gen_bool(p_bit) {
                    mask |= 1u64 << bit;
                }
            }
            let k = u64::from(mask.count_ones());
            report.injected += k;
            if !rng.gen_bool(p_consume) {
                report.masked += k;
                continue;
            }
            match spec.protection {
                Protection::None => report.silent += k,
                Protection::Parity => {
                    let (_, outcome) = parity_decode(parity_encode(data) ^ mask);
                    match outcome {
                        DecodeOutcome::Detected => report.detected += k,
                        _ => report.silent += k,
                    }
                }
                Protection::Secded => {
                    let (decoded, outcome) = secded_decode(secded_encode(data) ^ mask);
                    match outcome {
                        DecodeOutcome::Detected => report.detected += k,
                        _ if decoded == data => report.corrected += k,
                        _ => report.silent += k,
                    }
                }
            }
        }
    }
    report
}

/// `⌊x⌋` when it lies in `0..n`, else `None` (also for NaN): the checked
/// float-to-index conversion of the geometric draws.
fn floor_below(x: f64, n: u64) -> Option<u64> {
    /// 2⁶⁴: every floored float in `[0, 2⁶⁴)` is exactly a `u64`.
    const U64_END: f64 = 18_446_744_073_709_551_616.0;
    let x = x.floor();
    if (0.0..U64_END).contains(&x) {
        // The range check above makes this conversion exact.
        Some(x as u64).filter(|&i| i < n)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exposure() -> FaultExposure {
        FaultExposure {
            domain: 0,
            banks: vec![
                BankExposure {
                    words: 2048,
                    active_ticks: 30_000,
                    sleep_ticks: 0,
                    reads: 9_000,
                    writes: 3_000,
                },
                BankExposure {
                    words: 1024,
                    active_ticks: 5_000,
                    sleep_ticks: 25_000,
                    reads: 700,
                    writes: 250,
                },
            ],
        }
    }

    fn tech() -> Technology {
        Technology::tech90()
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let r = run_campaign(&FaultSpec::off(), &tech(), &exposure(), 2003);
        assert_eq!(r, ReliabilityReport::default());
        // Protection alone (rate 0) also injects nothing.
        let spec = FaultSpec {
            rate_scale: 0,
            protection: Protection::Secded,
        };
        assert!(run_campaign(&spec, &tech(), &exposure(), 2003).is_empty());
    }

    #[test]
    fn outcomes_conserve_injected_bits() {
        for protection in Protection::ALL {
            let spec = FaultSpec::accelerated(protection);
            let r = run_campaign(&spec, &tech(), &exposure(), 2003);
            assert!(r.injected > 0, "{protection:?}: no faults at accel rate");
            assert_eq!(
                r.injected,
                r.masked + r.detected + r.corrected + r.silent,
                "{protection:?}: {r:?}"
            );
        }
    }

    #[test]
    fn a_big_sparse_bank_costs_only_its_flips() {
        // 2^40 words (4 TiB) at a rate that flips a few tens of bits: a
        // per-word walk would take hours, the gap stream visits only the
        // hit words.
        let exposure = FaultExposure::single_bank(1 << 40, 300_000, 1 << 40);
        let spec = FaultSpec {
            rate_scale: 1_000_000,
            protection: Protection::Secded,
        };
        let p = upset_probability(&spec, &tech(), &exposure.banks[0]);
        let mean = (1u64 << 40) as f64 * 39.0 * p;
        assert!((20.0..60.0).contains(&mean), "{mean}");
        let r = run_campaign(&spec, &tech(), &exposure, 2003);
        let bounds = lpmem_util::prop::poisson_bounds(mean, 5.0);
        assert!(bounds.contains(&(r.injected as f64)), "{r:?} vs {bounds:?}");
        assert_eq!(r.injected, r.masked + r.detected + r.corrected + r.silent);
    }

    #[test]
    fn floor_below_rejects_what_is_not_an_index() {
        assert_eq!(floor_below(-0.0, 1), Some(0));
        assert_eq!(floor_below(2.9, 3), Some(2));
        assert_eq!(floor_below(3.0, 3), None);
        assert_eq!(floor_below(-0.5, 3), None);
        assert_eq!(floor_below(f64::NAN, 3), None);
        assert_eq!(floor_below(f64::INFINITY, u64::MAX), None);
        assert_eq!(floor_below(1e30, u64::MAX), None);
        assert_eq!(
            floor_below(1e19, u64::MAX),
            Some(10_000_000_000_000_000_000)
        );
    }

    #[test]
    fn a_bank_with_zero_ticks_injects_nothing() {
        let idle = FaultExposure::single_bank(1 << 20, 0, 5_000);
        for protection in Protection::ALL {
            let spec = FaultSpec::accelerated(protection);
            assert_eq!(
                run_campaign(&spec, &tech(), &idle, 2003),
                ReliabilityReport::default(),
                "{protection:?}"
            );
        }
    }

    #[test]
    fn a_bank_clamped_at_a_quarter_conserves_its_bits() {
        let bank = BankExposure {
            words: 4096,
            active_ticks: 30_000,
            sleep_ticks: 30_000,
            reads: 4096,
            writes: 0,
        };
        let spec = |protection| FaultSpec {
            rate_scale: u64::MAX,
            protection,
        };
        assert_eq!(
            upset_probability(&spec(Protection::None), &tech(), &bank),
            0.25
        );
        let exposure = FaultExposure {
            domain: 3,
            banks: vec![bank],
        };
        for protection in Protection::ALL {
            let r = run_campaign(&spec(protection), &tech(), &exposure, 11);
            let trials = bank.words * u64::from(protection.total_bits());
            let bounds = lpmem_util::prop::binomial_bounds(trials, 0.25, 5.0);
            assert!(
                bounds.contains(&(r.injected as f64)),
                "{protection:?}: {r:?}"
            );
            assert_eq!(
                r.injected,
                r.masked + r.detected + r.corrected + r.silent,
                "{protection:?}: {r:?}"
            );
        }
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let spec = FaultSpec::accelerated(Protection::Secded);
        let a = run_campaign(&spec, &tech(), &exposure(), 7);
        let b = run_campaign(&spec, &tech(), &exposure(), 7);
        assert_eq!(a, b);
        // Some other seed in a small window must decorrelate (any single
        // pair could collide on counts by chance; a window cannot).
        let differs = (8..16).any(|s| run_campaign(&spec, &tech(), &exposure(), s) != a);
        assert!(differs, "seeds 8..16 all produced {a:?}");
    }

    #[test]
    fn secded_eliminates_silent_single_bit_corruption() {
        // At moderate rates nearly all faulty words carry one flip; with
        // SECDED those are corrected, so silent corruption collapses
        // versus no protection.
        let none = run_campaign(
            &FaultSpec::accelerated(Protection::None),
            &tech(),
            &exposure(),
            2003,
        );
        let secded = run_campaign(
            &FaultSpec::accelerated(Protection::Secded),
            &tech(),
            &exposure(),
            2003,
        );
        assert!(none.silent > 0);
        assert!(secded.corrected > 0);
        assert!(
            secded.silent * 10 < none.silent,
            "secded {} vs none {}",
            secded.silent,
            none.silent
        );
    }

    #[test]
    fn sleep_residency_raises_fault_counts() {
        // Same bank, same powered duration — but spending most of it in
        // drowsy sleep must raise injections via the retention multiplier.
        let awake = FaultExposure::single_bank(4096, 40_000, 1_000);
        let drowsy = FaultExposure {
            domain: 0,
            banks: vec![BankExposure {
                words: 4096,
                active_ticks: 8_000,
                sleep_ticks: 32_000,
                reads: 1_000,
                writes: 0,
            }],
        };
        let spec = FaultSpec::accelerated(Protection::None);
        let a = run_campaign(&spec, &tech(), &awake, 2003);
        let d = run_campaign(&spec, &tech(), &drowsy, 2003);
        assert!(
            d.injected > a.injected,
            "drowsy {} vs awake {}",
            d.injected,
            a.injected
        );
    }

    #[test]
    fn spec_labels_roundtrip_through_parse() {
        for spec in [
            FaultSpec::off(),
            FaultSpec::accelerated(Protection::Parity),
            FaultSpec {
                rate_scale: 42,
                protection: Protection::Secded,
            },
        ] {
            assert_eq!(FaultSpec::parse(&spec.label()), Some(spec));
        }
        assert_eq!(
            FaultSpec::parse("secded"),
            Some(FaultSpec::accelerated(Protection::Secded))
        );
        assert!(FaultSpec::parse("tmr").is_none());
        assert!(FaultSpec::parse("secded:x").is_none());
        lpmem_util::Props::new("fault spec labels roundtrip").run(|rng| {
            let spec = FaultSpec {
                rate_scale: if rng.gen_bool(0.3) { 0 } else { rng.next_u64() },
                protection: *rng.choose(&Protection::ALL).expect("non-empty"),
            };
            assert_eq!(FaultSpec::parse(&spec.label()), Some(spec));
            assert_eq!(
                FaultSpec::parse(&format!(" {} ", spec.label().to_ascii_uppercase())),
                Some(spec)
            );
        });
    }
}
