//! Bus switching-energy model and transition counting.

use crate::{Energy, Technology};

/// A parallel bus whose dynamic energy is `transitions × ½·C·V²`.
///
/// The model is used both for the instruction-memory bus targeted by the
/// DATE 2003 1B.3 functional encodings and for the data bus to off-chip
/// memory targeted by write-back compression.
///
/// ```
/// use lpmem_energy::{BusModel, Technology};
///
/// let bus = BusModel::onchip(&Technology::tech180(), 32);
/// // 0x0 -> 0xF flips four lines.
/// assert_eq!(BusModel::transitions(&[0x0, 0xF]), 4);
/// let e = bus.sequence_energy(&[0x0, 0xF]);
/// assert!(e > lpmem_energy::Energy::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BusModel {
    width_bits: u32,
    cap_pf_per_line: f64,
    vdd: f64,
}

impl BusModel {
    /// An on-chip bus of `width_bits` lines.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero or exceeds 64.
    pub fn onchip(tech: &Technology, width_bits: u32) -> Self {
        Self::with_capacitance(tech, width_bits, tech.onchip_bus_cap_pf)
    }

    /// An off-chip bus of `width_bits` lines.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero or exceeds 64.
    pub fn offchip(tech: &Technology, width_bits: u32) -> Self {
        Self::with_capacitance(tech, width_bits, tech.offchip_bus_cap_pf)
    }

    /// A bus with an explicit per-line capacitance in pF.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero or exceeds 64, or if `cap_pf` is not
    /// positive.
    pub fn with_capacitance(tech: &Technology, width_bits: u32, cap_pf: f64) -> Self {
        assert!(
            width_bits > 0 && width_bits <= 64,
            "bus width must be in 1..=64"
        );
        assert!(cap_pf > 0.0, "capacitance must be positive");
        BusModel {
            width_bits,
            cap_pf_per_line: cap_pf,
            vdd: tech.vdd,
        }
    }

    /// Bus width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Energy of one bit transition on one line.
    pub fn transition_energy(&self) -> Energy {
        Energy::from_pj(0.5 * self.cap_pf_per_line * self.vdd * self.vdd)
    }

    /// Energy of `n` bit transitions.
    pub fn energy_of(&self, transitions: u64) -> Energy {
        self.transition_energy() * transitions as f64
    }

    /// Total energy of driving `words` on the bus in order, counting
    /// transitions between consecutive words (the bus is assumed to hold its
    /// previous value between transfers).
    pub fn sequence_energy(&self, words: &[u64]) -> Energy {
        self.energy_of(Self::transitions(words))
    }

    /// Counts bit transitions between consecutive words of a sequence.
    ///
    /// The first word contributes no transitions (the bus state before the
    /// sequence is taken to equal the first word).
    pub fn transitions(words: &[u64]) -> u64 {
        words
            .windows(2)
            .map(|w| (w[0] ^ w[1]).count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_count_hamming_distances() {
        assert_eq!(BusModel::transitions(&[]), 0);
        assert_eq!(BusModel::transitions(&[0xFF]), 0);
        assert_eq!(BusModel::transitions(&[0b1010, 0b0101]), 4);
        assert_eq!(BusModel::transitions(&[0, 1, 3, 7]), 3);
    }

    #[test]
    fn energy_is_linear_in_transitions() {
        let bus = BusModel::onchip(&Technology::tech180(), 32);
        assert_eq!(bus.energy_of(10), bus.transition_energy() * 10.0);
        assert_eq!(bus.energy_of(0), Energy::ZERO);
    }

    #[test]
    fn offchip_bus_is_more_expensive() {
        let tech = Technology::tech180();
        let on = BusModel::onchip(&tech, 32);
        let off = BusModel::offchip(&tech, 32);
        assert!(off.transition_energy() > on.transition_energy());
    }

    #[test]
    fn sequence_energy_matches_manual_count() {
        let bus = BusModel::onchip(&Technology::tech180(), 8);
        let seq = [0x00u64, 0x0F, 0xF0];
        // 0x00->0x0F: 4 flips; 0x0F->0xF0: 8 flips.
        assert_eq!(bus.sequence_energy(&seq), bus.energy_of(12));
    }

    #[test]
    #[should_panic(expected = "bus width")]
    fn zero_width_panics() {
        BusModel::onchip(&Technology::tech180(), 0);
    }
}
