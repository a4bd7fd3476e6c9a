//! Analytic SRAM and off-chip memory energy models.

use crate::{Energy, Technology};

/// CACTI-style analytic model of an on-chip SRAM macro.
///
/// Per-access energy is `e0 + e1·sqrt(words)`: the intercept covers sense
/// amplifiers and control, the slope the bit-line/word-line capacitance that
/// grows with the macro's linear dimension. This sub-linear growth is the
/// entire reason memory partitioning saves energy — accesses to a small bank
/// are cheaper than accesses to a monolith of the combined size.
///
/// ```
/// use lpmem_energy::{SramModel, Technology};
///
/// let sram = SramModel::new(&Technology::tech180());
/// let one_64k = sram.read_energy(64 << 10);
/// let one_4k = sram.read_energy(4 << 10);
/// assert!(one_4k.as_pj() < 0.5 * one_64k.as_pj());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SramModel {
    e0_pj: f64,
    e1_pj: f64,
    write_factor: f64,
    idle_pj_per_kib: f64,
    cell_um2: f64,
    periph_mm2: f64,
    periph_slope_mm2: f64,
}

impl SramModel {
    /// Builds the model for a technology node.
    pub fn new(tech: &Technology) -> Self {
        SramModel {
            e0_pj: tech.sram_e0_pj,
            e1_pj: tech.sram_e1_pj,
            write_factor: tech.sram_write_factor,
            idle_pj_per_kib: tech.sram_idle_pj_per_kib,
            cell_um2: tech.sram_cell_um2,
            periph_mm2: tech.sram_periph_mm2,
            periph_slope_mm2: tech.sram_periph_slope_mm2,
        }
    }

    /// Silicon area of one macro of `bytes` capacity, in mm²: bit-cell
    /// array plus fixed and size-dependent periphery. Splitting a memory
    /// into banks multiplies the periphery — the area cost of
    /// partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn area_mm2(&self, bytes: u64) -> f64 {
        self.cell_area_mm2(bytes) + self.periphery_area_mm2(bytes)
    }

    /// The bit-cell array part of [`area_mm2`](Self::area_mm2): invariant
    /// under banking (the same bits occupy the same cells however they are
    /// split).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn cell_area_mm2(&self, bytes: u64) -> f64 {
        assert!(bytes > 0, "SRAM macro must have non-zero capacity");
        (bytes * 8) as f64 * self.cell_um2 * 1e-6
    }

    /// The periphery part of [`area_mm2`](Self::area_mm2) (decoder, sense
    /// amps, word/bit-line drivers): paid once **per macro**, which is why
    /// banking costs area.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn periphery_area_mm2(&self, bytes: u64) -> f64 {
        assert!(bytes > 0, "SRAM macro must have non-zero capacity");
        let bits = (bytes * 8) as f64;
        self.periph_mm2 + self.periph_slope_mm2 * bits.sqrt()
    }

    /// Energy of one read access to a macro of `bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn read_energy(&self, bytes: u64) -> Energy {
        assert!(bytes > 0, "SRAM macro must have non-zero capacity");
        let words = (bytes as f64 / 4.0).max(1.0);
        Energy::from_pj(self.e0_pj + self.e1_pj * words.sqrt())
    }

    /// Energy of one write access to a macro of `bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn write_energy(&self, bytes: u64) -> Energy {
        self.read_energy(bytes) * self.write_factor
    }

    /// Idle (leakage + clocking) energy of a powered macro of `bytes`
    /// capacity over `cycles` cycles.
    pub fn idle_energy(&self, bytes: u64, cycles: u64) -> Energy {
        let kib = bytes as f64 / 1024.0;
        Energy::from_pj(self.idle_pj_per_kib * kib * cycles as f64)
    }
}

/// Off-chip (main) memory model: energy is charged per 4-byte beat moved
/// across the external interface, covering command, I/O, and core energy.
#[derive(Debug, Clone, PartialEq)]
pub struct OffChipModel {
    beat_pj: f64,
}

impl OffChipModel {
    /// Builds the model for a technology node.
    pub fn new(tech: &Technology) -> Self {
        OffChipModel {
            beat_pj: tech.offchip_beat_pj,
        }
    }

    /// Energy of moving `beats` 4-byte beats (reads or writes).
    pub fn transfer_energy(&self, beats: u64) -> Energy {
        Energy::from_pj(self.beat_pj * beats as f64)
    }

    /// Energy of one 4-byte beat.
    pub fn beat_energy(&self) -> Energy {
        Energy::from_pj(self.beat_pj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram() -> SramModel {
        SramModel::new(&Technology::tech180())
    }

    #[test]
    fn read_energy_grows_sublinearly() {
        let s = sram();
        let e1 = s.read_energy(1 << 10).as_pj();
        let e4 = s.read_energy(1 << 12).as_pj();
        let e16 = s.read_energy(1 << 14).as_pj();
        assert!(e4 > e1 && e16 > e4);
        // Quadrupling the size should less-than-quadruple the energy.
        assert!(e16 / e1 < 4.0);
    }

    #[test]
    fn write_costs_more_than_read() {
        let s = sram();
        assert!(s.write_energy(4096) > s.read_energy(4096));
    }

    #[test]
    fn partitioning_premise_holds() {
        // Four accesses into four 4 KiB banks must beat four accesses into a
        // 16 KiB monolith (ignoring bank-select overhead, which is charged
        // separately by the partitioner).
        let s = sram();
        let banked = s.read_energy(4 << 10) * 4.0;
        let monolith = s.read_energy(16 << 10) * 4.0;
        assert!(banked < monolith);
    }

    #[test]
    fn idle_energy_scales_with_size_and_time() {
        let s = sram();
        let a = s.idle_energy(1 << 10, 100);
        let b = s.idle_energy(1 << 11, 100);
        let c = s.idle_energy(1 << 10, 200);
        assert!((b.as_pj() - 2.0 * a.as_pj()).abs() < 1e-9);
        assert!((c.as_pj() - 2.0 * a.as_pj()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_panics() {
        sram().read_energy(0);
    }

    #[test]
    fn banking_costs_area() {
        let s = sram();
        // Four 4 KiB banks occupy more silicon than one 16 KiB macro
        // (same cells, 4x the periphery).
        let banked = 4.0 * s.area_mm2(4 << 10);
        let mono = s.area_mm2(16 << 10);
        assert!(banked > mono);
        // But the cell array dominates: the overhead is bounded.
        assert!(banked < 1.8 * mono, "banked {banked} vs mono {mono}");
    }

    #[test]
    fn area_scales_with_capacity() {
        let s = sram();
        assert!(s.area_mm2(64 << 10) > 3.0 * s.area_mm2(16 << 10));
    }

    #[test]
    fn offchip_dwarfs_onchip() {
        let tech = Technology::tech180();
        let off = OffChipModel::new(&tech);
        let on = SramModel::new(&tech);
        assert!(off.beat_energy() > on.read_energy(64 << 10) * 10.0);
    }

    #[test]
    fn offchip_transfer_is_linear_in_beats() {
        let off = OffChipModel::new(&Technology::tech180());
        assert_eq!(off.transfer_energy(8), off.beat_energy() * 8.0);
        assert_eq!(off.transfer_energy(0), Energy::ZERO);
    }
}
