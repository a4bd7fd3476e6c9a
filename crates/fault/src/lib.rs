//! Deterministic soft-error injection and protection modeling.
//!
//! Aggressive voltage scaling and bank sleep — the energy levers every
//! other crate in this workspace optimizes — spend noise margin, and the
//! DATE 2003 reliability story asks what fraction of the energy saving is
//! bought with silent data corruption. This crate answers it with three
//! pieces:
//!
//! - **Fault models** ([`campaign`]): single-event upsets at the
//!   technology's FIT rate over a bank's powered ticks, plus retention
//!   failures scaling with its drowsy-sleep residency. A campaign skips
//!   from hit word to hit word along a per-bank gap stream, and every
//!   draw comes from a stream derived from logical coordinates
//!   (`[domain, bank, TAG_FAULT_GAP]`, `[domain, bank, word, TAG_FAULT]`),
//!   so campaigns cost O(flips) and are byte-identical at any worker
//!   count.
//! - **Protection schemes** ([`Protection`]): none, parity (detect), and
//!   SECDED(39,32) (correct 1, detect 2) with **real** codeword
//!   arithmetic ([`codec`]) and real costs — encode/decode energy per
//!   access, check-bit cell area, and decode latency.
//! - **Outcome accounting** ([`ReliabilityReport`]): all-integer
//!   injected/masked/detected/corrected/silent counts that merge
//!   commutatively, join `FlowSummary`, and give the design-space
//!   explorer its fourth objective (silent corruptions).
//!
//! See `DESIGN.md` §12 for the model derivation and the differential
//! guarantee (`Protection::None` + zero rate reproduces every pre-fault
//! report byte-for-byte).

pub mod campaign;
pub mod codec;

use lpmem_energy::{AreaReport, Energy, Technology};

pub use campaign::{
    run_campaign, BankExposure, FaultExposure, FaultSpec, ReliabilityReport, TAG_FAULT,
};
pub use codec::{
    parity_decode, parity_encode, secded_decode, secded_encode, DecodeOutcome, PARITY_BITS,
    SECDED_BITS,
};

/// A word-granular memory protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Unprotected storage: every consumed upset is silent.
    None,
    /// One even-parity bit per word: detects odd flip counts, corrects
    /// nothing, misses even flip counts.
    Parity,
    /// SECDED(39,32): corrects single flips, detects doubles; triples
    /// may miscorrect (accounted as silent by the campaign).
    Secded,
}

impl Protection {
    /// Every scheme, in report order.
    pub const ALL: [Protection; 3] = [Protection::None, Protection::Parity, Protection::Secded];

    /// Report/CLI key.
    pub fn name(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::Parity => "parity",
            Protection::Secded => "secded",
        }
    }

    /// Parses a report/CLI key (case-insensitive).
    pub fn parse(s: &str) -> Option<Protection> {
        Protection::ALL
            .into_iter()
            .find(|p| p.name() == s.trim().to_ascii_lowercase())
    }

    /// Check bits stored per 32-bit data word.
    pub fn check_bits(self) -> u32 {
        match self {
            Protection::None => 0,
            Protection::Parity => 1,
            Protection::Secded => 7,
        }
    }

    /// Total codeword bits per 32-bit data word.
    pub fn total_bits(self) -> u32 {
        32 + self.check_bits()
    }

    /// Encoder/decoder logic energy per word access in pJ, scaled off
    /// the technology's word-codec energy: a parity tree is ~31 XOR
    /// gates (a small fraction of a compressor stage), SECDED runs six
    /// such trees plus syndrome decode on every read.
    pub fn access_energy_pj(self, tech: &Technology) -> f64 {
        match self {
            Protection::None => 0.0,
            Protection::Parity => 0.2 * tech.codec_word_pj,
            Protection::Secded => 0.9 * tech.codec_word_pj,
        }
    }

    /// Total encode/decode energy over `accesses` word accesses.
    pub fn access_overhead(self, tech: &Technology, accesses: u64) -> Energy {
        Energy::from_pj(self.access_energy_pj(tech) * accesses as f64)
    }

    /// Extra cycles on every read (SECDED syndrome decode sits on the
    /// load path; parity check overlaps the access).
    pub fn extra_read_cycles(self) -> u64 {
        match self {
            Protection::None | Protection::Parity => 0,
            Protection::Secded => 1,
        }
    }

    /// Silicon-area overhead of protecting `data_bytes` of SRAM:
    /// `prot.checkbits` (the widened cell array) and `prot.logic`
    /// (encoder/decoder periphery, scaled off the macro periphery).
    pub fn area_overhead(self, tech: &Technology, data_bytes: u64) -> AreaReport {
        let mut area = AreaReport::new();
        let cb = f64::from(self.check_bits());
        if cb > 0.0 {
            let extra_bits = data_bytes as f64 * 8.0 * cb / 32.0;
            area.add("prot.checkbits", extra_bits * tech.sram_cell_um2 * 1e-6);
            area.add("prot.logic", tech.sram_periph_mm2 * cb / 32.0);
        }
        area
    }
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for p in Protection::ALL {
            assert_eq!(Protection::parse(p.name()), Some(p));
        }
        assert_eq!(Protection::parse("tmr"), None);
    }

    #[test]
    fn overheads_scale_with_strength() {
        let tech = Technology::tech180();
        assert_eq!(Protection::None.access_energy_pj(&tech), 0.0);
        assert!(
            Protection::Parity.access_energy_pj(&tech) < Protection::Secded.access_energy_pj(&tech)
        );
        assert_eq!(Protection::None.area_overhead(&tech, 4096).total_mm2(), 0.0);
        let parity = Protection::Parity.area_overhead(&tech, 4096).total_mm2();
        let secded = Protection::Secded.area_overhead(&tech, 4096).total_mm2();
        assert!(0.0 < parity && parity < secded);
        assert_eq!(Protection::Secded.extra_read_cycles(), 1);
        assert_eq!(Protection::Parity.extra_read_cycles(), 0);
    }

    #[test]
    fn area_components_are_itemized() {
        let area = Protection::Secded.area_overhead(&Technology::tech90(), 1 << 16);
        assert!(area.component("prot.checkbits") > 0.0);
        assert!(area.component("prot.logic") > 0.0);
        // Check-bit cells: 65536 B × 8 × 7/32 bits × 1.3 µm² = 0.149 mm².
        let expect = (1u64 << 16) as f64 * 8.0 * 7.0 / 32.0 * 1.3 * 1e-6;
        assert!((area.component("prot.checkbits") - expect).abs() < 1e-9);
    }
}
