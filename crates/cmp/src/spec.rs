//! The CMP scenario specification: core count, LLC geometry, per-line
//! codec, heterogeneous technology split, and chip power budget.
//!
//! [`CmpSpec`] follows the `FaultSpec` template exactly: an all-off
//! default whose runs must reproduce the single-core tree byte-for-byte,
//! a compact report/CLI label, and a [`parse`](CmpSpec::parse) that
//! round-trips every label.

use lpmem_compress::CodecKind;
use lpmem_energy::{TechNode, Technology};
use lpmem_partition::Partition;

/// Domain tag terminating every CMP seed-derivation path (per-core kernel
/// seeds, LLC fault domains).
pub const TAG_CMP: u64 = 0xC390;

/// One chip-multiprocessor scenario: N cores behind private L1 D-caches
/// sharing a NUCA LLC whose bank partitions may sit on different
/// technology nodes under a chip power budget.
///
/// `cores == 0` is the disabled configuration ([`CmpSpec::off`]); a
/// disabled spec must leave every existing report byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CmpSpec {
    /// Number of TinyRISC cores. `0` disables the CMP scenario entirely.
    pub cores: u32,
    /// Number of NUCA LLC banks; an active scenario needs at least one
    /// (a 1-bank LLC is a real, shared LLC).
    pub banks: u32,
    /// Capacity of one LLC bank in KiB.
    pub bank_kib: u32,
    /// Set associativity of each LLC bank (uncompressed ways; a
    /// compressed bank holds up to twice as many tags in the same
    /// segment budget).
    pub ways: u32,
    /// Per-line LLC compression codec.
    pub codec: CodecKind,
    /// Technology node per bank partition, in bank order. Empty means
    /// homogeneous at the run's own technology axis; otherwise bank `b`
    /// belongs to partition `b·len/banks`.
    pub techs: Vec<TechNode>,
    /// Chip leakage power budget in µW. `0` means unbudgeted; otherwise
    /// the coldest banks are dark-silicon-gated (greedily, by heat then
    /// bank index) until the LLC's standby power fits the budget.
    pub budget_uw: u64,
}

impl CmpSpec {
    /// The disabled configuration: no cores, no LLC — the differential
    /// baseline that must reproduce every pre-CMP report byte-for-byte.
    pub const fn off() -> CmpSpec {
        CmpSpec {
            cores: 0,
            banks: 0,
            bank_kib: 0,
            ways: 0,
            codec: CodecKind::Off,
            techs: Vec::new(),
            budget_uw: 0,
        }
    }

    /// The headline scenario: four cores, eight compressed 32 KiB banks
    /// split across 0.18 µm and 90 nm partitions, under a 600 µW budget
    /// that forces the coldest leakage-dominated 90 nm banks dark.
    pub fn quad() -> CmpSpec {
        CmpSpec {
            cores: 4,
            banks: 8,
            bank_kib: 32,
            ways: 4,
            codec: CodecKind::Zrun,
            techs: vec![TechNode::T180, TechNode::T90],
            budget_uw: 600,
        }
    }

    /// Whether this spec changes anything relative to the single-core
    /// flows.
    pub fn enabled(&self) -> bool {
        self.cores > 0
    }

    /// Validates an active scenario against the L1 line size its LLC
    /// inherits; a disabled spec is always valid.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self, line_bytes: u32) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        if self.banks == 0 {
            return Err("an active LLC needs at least one bank".to_owned());
        }
        if self.ways == 0 {
            return Err("LLC banks need at least one way".to_owned());
        }
        let bank_bytes = u64::from(self.bank_kib) * 1024;
        let set_bytes = u64::from(line_bytes) * u64::from(self.ways);
        if bank_bytes < set_bytes {
            return Err(format!(
                "bank capacity {bank_bytes} B below one set of {} {line_bytes}-byte lines",
                self.ways
            ));
        }
        if self.techs.len() > self.banks as usize {
            return Err(format!(
                "{} technology partitions over {} banks leaves empty partitions",
                self.techs.len(),
                self.banks
            ));
        }
        Ok(())
    }

    /// Number of technology partitions (1 for a homogeneous LLC).
    pub fn num_partitions(&self) -> usize {
        self.techs.len().max(1)
    }

    /// The bank-to-partition assignment as a [`Partition`] over the bank
    /// sequence — partition `p` covers banks
    /// `ceil(p·banks/P)..ceil((p+1)·banks/P)`, the same machinery the
    /// sleep-aware partitioner uses for its bank ranges.
    ///
    /// # Panics
    ///
    /// Panics when the spec is not a valid active scenario (zero banks,
    /// or more partitions than banks).
    pub fn tech_partition(&self) -> Partition {
        let banks = self.banks as usize;
        let parts = self.num_partitions();
        let cuts: Vec<usize> = (0..=parts).map(|p| (p * banks).div_ceil(parts)).collect();
        Partition::from_cuts(cuts)
    }

    /// The technology of partition `p`: the explicit split when one is
    /// given, otherwise the run's base technology.
    pub fn partition_technology(&self, p: usize, base: &Technology) -> Technology {
        match self.techs.get(p) {
            Some(node) => node.technology(),
            None => base.clone(),
        }
    }

    /// Report/CLI label: `off`, or
    /// `c<cores>b<banks>x<bank_kib>w<ways>[-codec][-t…+t…][-p<budget_uw>]`
    /// with defaulted suffixes omitted.
    pub fn label(&self) -> String {
        if !self.enabled() {
            return "off".to_owned();
        }
        let mut label = format!(
            "c{}b{}x{}w{}",
            self.cores, self.banks, self.bank_kib, self.ways
        );
        if self.codec != CodecKind::Off {
            label.push('-');
            label.push_str(self.codec.name());
        }
        if !self.techs.is_empty() {
            let names: Vec<&str> = self.techs.iter().map(|t| t.name()).collect();
            label.push('-');
            label.push_str(&names.join("+"));
        }
        if self.budget_uw > 0 {
            label.push_str(&format!("-p{}", self.budget_uw));
        }
        label
    }

    /// Parses a label produced by [`label`](CmpSpec::label)
    /// (case-insensitive; the suffix tokens may come in any order).
    pub fn parse(s: &str) -> Option<CmpSpec> {
        let s = s.trim().to_ascii_lowercase();
        if s == "off" {
            return Some(CmpSpec::off());
        }
        let mut tokens = s.split('-');
        let geom = tokens.next()?;
        let rest = geom.strip_prefix('c')?;
        let (cores, rest) = split_number(rest)?;
        let rest = rest.strip_prefix('b')?;
        let (banks, rest) = split_number(rest)?;
        let rest = rest.strip_prefix('x')?;
        let (bank_kib, rest) = split_number(rest)?;
        let rest = rest.strip_prefix('w')?;
        let (ways, rest) = split_number(rest)?;
        if !rest.is_empty() || cores == 0 {
            return None;
        }
        let mut spec = CmpSpec {
            cores,
            banks,
            bank_kib,
            ways,
            ..CmpSpec::off()
        };
        for token in tokens {
            if let Some(budget) = token.strip_prefix('p').and_then(|v| v.parse().ok()) {
                spec.budget_uw = budget;
            } else if token.starts_with('t') {
                spec.techs = token
                    .split('+')
                    .map(TechNode::parse)
                    .collect::<Option<Vec<_>>>()?;
            } else if let Some(codec) = CodecKind::parse(token) {
                spec.codec = codec;
            } else {
                return None;
            }
        }
        Some(spec)
    }
}

/// Splits a leading decimal number off `s`.
fn split_number(s: &str) -> Option<(u32, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        return None;
    }
    Some((s[..end].parse().ok()?, &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_disabled_and_roundtrips() {
        let off = CmpSpec::off();
        assert!(!off.enabled());
        assert_eq!(off.label(), "off");
        assert_eq!(CmpSpec::parse("off"), Some(off));
    }

    #[test]
    fn quad_is_the_headline_scenario() {
        let quad = CmpSpec::quad();
        assert!(quad.enabled());
        assert!(quad.cores >= 4);
        assert_ne!(quad.codec, CodecKind::Off);
        assert!(quad.techs.len() >= 2);
        assert!(quad.budget_uw > 0);
        assert_eq!(quad.label(), "c4b8x32w4-zrun-t180+t90-p600");
        assert_eq!(quad.validate(64), Ok(()));
    }

    #[test]
    fn labels_roundtrip_through_parse() {
        let specs = [
            CmpSpec::off(),
            CmpSpec::quad(),
            CmpSpec {
                cores: 1,
                banks: 1,
                bank_kib: 16,
                ways: 2,
                ..CmpSpec::off()
            },
            CmpSpec {
                cores: 8,
                banks: 16,
                bank_kib: 64,
                ways: 4,
                codec: CodecKind::Fpc,
                techs: vec![TechNode::T180, TechNode::T130, TechNode::T90],
                budget_uw: 12_000,
            },
        ];
        for spec in specs {
            assert_eq!(
                CmpSpec::parse(&spec.label()),
                Some(spec.clone()),
                "{spec:?}"
            );
        }
        assert_eq!(CmpSpec::parse("b8x32w4"), None);
        assert_eq!(CmpSpec::parse("c0b8x32w4"), None);
        assert_eq!(CmpSpec::parse("c4b8x32w4-xyz"), None);
        assert_eq!(CmpSpec::parse("c4b8x32w4-q8"), None);
        lpmem_util::Props::new("cmp spec labels roundtrip").run(|rng| {
            let spec = CmpSpec {
                cores: rng.gen_range(1..=64u32),
                banks: rng.gen_range(0..=64u32),
                bank_kib: rng.next_u32(),
                ways: rng.gen_range(0..=16u32),
                codec: *rng.choose(&CodecKind::ALL).expect("non-empty"),
                techs: (0..rng.bounded_u64(4))
                    .map(|_| *rng.choose(&TechNode::ALL).expect("non-empty"))
                    .collect(),
                budget_uw: if rng.gen_bool(0.5) { 0 } else { rng.next_u64() },
            };
            assert_eq!(CmpSpec::parse(&spec.label()), Some(spec.clone()));
            assert_eq!(
                CmpSpec::parse(&format!(" {} ", spec.label().to_ascii_uppercase())),
                Some(spec)
            );
        });
    }

    #[test]
    fn validate_rejects_broken_geometry() {
        let quad = CmpSpec::quad();
        assert!(CmpSpec {
            ways: 0,
            ..quad.clone()
        }
        .validate(64)
        .is_err());
        assert!(CmpSpec {
            bank_kib: 0,
            ..quad.clone()
        }
        .validate(64)
        .is_err());
        assert!(CmpSpec {
            banks: 0,
            codec: CodecKind::Off,
            techs: Vec::new(),
            budget_uw: 0,
            ..quad.clone()
        }
        .validate(64)
        .is_err());
        assert!(CmpSpec {
            banks: 2,
            techs: vec![TechNode::T180, TechNode::T130, TechNode::T90],
            ..quad.clone()
        }
        .validate(64)
        .is_err());
        assert_eq!(CmpSpec::off().validate(64), Ok(()));
        // One plain bank is a real LLC, and a valid one.
        assert_eq!(CmpSpec::parse("c1b1x32w4").unwrap().validate(64), Ok(()));
    }

    #[test]
    fn tech_partition_covers_all_banks_contiguously() {
        let quad = CmpSpec::quad(); // 8 banks over [t180, t90]
        let partition = quad.tech_partition();
        assert_eq!(partition.num_banks(), 2);
        assert_eq!(partition.cuts(), &[0, 4, 8]);
        // Three-way split over 8 banks: 3 + 3 + 2.
        let tri = CmpSpec {
            techs: vec![TechNode::T180, TechNode::T130, TechNode::T90],
            ..quad
        };
        assert_eq!(tri.tech_partition().cuts(), &[0, 3, 6, 8]);
        let homo = CmpSpec {
            techs: Vec::new(),
            ..tri
        };
        assert_eq!(homo.tech_partition().cuts(), &[0, 8]);
    }

    #[test]
    fn partition_technology_falls_back_to_base() {
        let base = Technology::tech130();
        let homo = CmpSpec {
            techs: Vec::new(),
            ..CmpSpec::quad()
        };
        assert_eq!(homo.partition_technology(0, &base), base);
        let quad = CmpSpec::quad();
        assert_eq!(
            quad.partition_technology(1, &base),
            TechNode::T90.technology()
        );
    }
}
