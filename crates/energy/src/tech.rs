//! Technology parameter sets.

/// Every technology-dependent constant used by the workspace, in one place.
///
/// Two presets are provided, [`Technology::tech180`] (0.18 µm, the node of
/// the DATE 2003 1B.1/1B.2 evaluations) and [`Technology::tech130`]
/// (0.13 µm). The values are documented approximations with the correct
/// ratios between components; see `DESIGN.md` §4 for the substitution
/// rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable node name, e.g. `"0.18um"`.
    pub name: String,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// SRAM access energy intercept in pJ (sense amps, control).
    pub sram_e0_pj: f64,
    /// SRAM access energy slope in pJ per sqrt(word): models the bit-line /
    /// word-line lengths growing with the macro's linear dimension.
    pub sram_e1_pj: f64,
    /// Ratio of write energy to read energy for SRAM (> 1).
    pub sram_write_factor: f64,
    /// SRAM leakage/idle energy in pJ per cycle per KiB of powered macro.
    pub sram_idle_pj_per_kib: f64,
    /// Fraction of idle leakage a macro still burns in its sleep
    /// (state-retentive drowsy) mode.
    pub sram_sleep_frac: f64,
    /// Energy to wake a sleeping macro, in pJ per KiB (bit-line recharge).
    pub sram_wake_pj_per_kib: f64,
    /// Extra energy per access in a multi-bank memory (bank decoder and
    /// select wiring), in pJ per access per bank in the system.
    pub bank_select_pj: f64,
    /// Energy per 4-byte off-chip beat (command + I/O + core), in pJ.
    pub offchip_beat_pj: f64,
    /// On-chip bus capacitance per line in pF.
    pub onchip_bus_cap_pf: f64,
    /// Off-chip bus capacitance per line in pF.
    pub offchip_bus_cap_pf: f64,
    /// Energy per lookup of the address-relocation table used by clustering,
    /// in pJ.
    pub relocation_lookup_pj: f64,
    /// Energy of the (de)compressor per 32-bit word processed, in pJ.
    pub codec_word_pj: f64,
    /// Energy to load one 32-bit context word into a reconfigurable fabric,
    /// in pJ.
    pub context_word_pj: f64,
    /// SRAM bit-cell area in µm² per bit.
    pub sram_cell_um2: f64,
    /// Fixed periphery area per SRAM macro (decoder, sense amps) in mm².
    pub sram_periph_mm2: f64,
    /// Periphery area slope in mm² per sqrt(bit) (word/bit-line drivers).
    pub sram_periph_slope_mm2: f64,
    /// Single-event-upset rate of the SRAM array in FIT per Mbit
    /// (failures per 10⁹ device-hours per 2²⁰ bits) at nominal Vdd.
    /// Rises at newer nodes as the critical charge per cell shrinks.
    pub seu_fit_per_mbit: f64,
    /// Multiplier on the per-bit upset rate while a bank sits in its
    /// state-retentive drowsy sleep mode: the lowered retention voltage
    /// costs noise margin, so both SEU susceptibility and retention
    /// failures scale up with sleep residency.
    pub retention_drowsy_mult: f64,
}

impl Technology {
    /// 0.18 µm parameter set (ARM7-class SoC, as in DATE 2003 1B.1/1B.2).
    pub fn tech180() -> Self {
        Technology {
            name: "0.18um".to_owned(),
            vdd: 1.8,
            sram_e0_pj: 2.0,
            sram_e1_pj: 0.60,
            sram_write_factor: 1.2,
            sram_idle_pj_per_kib: 0.002,
            sram_sleep_frac: 0.10,
            sram_wake_pj_per_kib: 0.06,
            bank_select_pj: 0.35,
            offchip_beat_pj: 2500.0,
            onchip_bus_cap_pf: 0.8,
            offchip_bus_cap_pf: 12.0,
            relocation_lookup_pj: 0.45,
            codec_word_pj: 1.1,
            context_word_pj: 6.0,
            sram_cell_um2: 4.5,
            sram_periph_mm2: 0.012,
            sram_periph_slope_mm2: 2.0e-05,
            seu_fit_per_mbit: 400.0,
            retention_drowsy_mult: 3.0,
        }
    }

    /// 0.13 µm parameter set (Lx-ST200-class SoC).
    pub fn tech130() -> Self {
        Technology {
            name: "0.13um".to_owned(),
            vdd: 1.2,
            sram_e0_pj: 1.1,
            sram_e1_pj: 0.32,
            sram_write_factor: 1.2,
            sram_idle_pj_per_kib: 0.004,
            sram_sleep_frac: 0.12,
            sram_wake_pj_per_kib: 0.08,
            bank_select_pj: 0.20,
            offchip_beat_pj: 1600.0,
            onchip_bus_cap_pf: 0.6,
            offchip_bus_cap_pf: 10.0,
            relocation_lookup_pj: 0.25,
            codec_word_pj: 0.6,
            context_word_pj: 3.5,
            sram_cell_um2: 2.4,
            sram_periph_mm2: 0.008,
            sram_periph_slope_mm2: 1.4e-05,
            seu_fit_per_mbit: 700.0,
            retention_drowsy_mult: 5.0,
        }
    }

    /// 90 nm projection (ITRS-2003-era): cheaper dynamic energy but
    /// leakage becomes a first-order term — the regime where bank power
    /// gating and sleep-aware clustering matter (session 1C's "beyond
    /// 90 nm" challenges).
    pub fn tech90() -> Self {
        Technology {
            name: "0.09um".to_owned(),
            vdd: 1.0,
            sram_e0_pj: 0.7,
            sram_e1_pj: 0.20,
            sram_write_factor: 1.2,
            sram_idle_pj_per_kib: 0.08,
            sram_sleep_frac: 0.05,
            sram_wake_pj_per_kib: 0.12,
            bank_select_pj: 0.12,
            offchip_beat_pj: 1100.0,
            onchip_bus_cap_pf: 0.5,
            offchip_bus_cap_pf: 8.0,
            relocation_lookup_pj: 0.15,
            codec_word_pj: 0.35,
            context_word_pj: 2.0,
            sram_cell_um2: 1.3,
            sram_periph_mm2: 0.005,
            sram_periph_slope_mm2: 1.0e-05,
            seu_fit_per_mbit: 1150.0,
            retention_drowsy_mult: 9.0,
        }
    }

    /// Switching energy of one bit transition on a line of capacitance
    /// `cap_pf`, in pJ: `½·C·V²`.
    pub fn transition_pj(&self, cap_pf: f64) -> f64 {
        0.5 * cap_pf * self.vdd * self.vdd
    }
}

impl Default for Technology {
    /// Defaults to the 0.18 µm node used by the headline experiments.
    fn default() -> Self {
        Technology::tech180()
    }
}

/// A named technology node — the enumerable handle over the
/// [`Technology`] presets.
///
/// [`Technology`] itself is a bag of parameters; this enum is the closed,
/// enumerable set of presets a sweep grid, an explorer axis, or a
/// heterogeneous bank assignment can iterate over. Promoted here from the
/// flow layer so crates below `lpmem-core` (the CMP scenario pack's
/// per-partition technology axis, the fleet model) can name nodes without
/// a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechNode {
    /// 0.18 µm (the DATE 2003 headline node).
    T180,
    /// 0.13 µm (Lx-ST200-class).
    T130,
    /// 90 nm projection (leakage-dominated).
    T90,
}

impl TechNode {
    /// Every technology node, in grid order.
    pub const ALL: [TechNode; 3] = [TechNode::T180, TechNode::T130, TechNode::T90];

    /// Short key used in grid syntax and reports.
    pub fn name(self) -> &'static str {
        match self {
            TechNode::T180 => "t180",
            TechNode::T130 => "t130",
            TechNode::T90 => "t90",
        }
    }

    /// The full parameter set of this node.
    pub fn technology(self) -> Technology {
        match self {
            TechNode::T180 => Technology::tech180(),
            TechNode::T130 => Technology::tech130(),
            TechNode::T90 => Technology::tech90(),
        }
    }

    /// Parses a short key (`"t180"`, `"t130"`, `"t90"`).
    pub fn parse(s: &str) -> Option<TechNode> {
        TechNode::ALL
            .into_iter()
            .find(|t| t.name() == s.trim().to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_ratios() {
        for tech in [Technology::tech180(), Technology::tech130()] {
            // Off-chip must dwarf on-chip access energy at realistic sizes.
            let onchip_64k = tech.sram_e0_pj + tech.sram_e1_pj * ((1u64 << 14) as f64).sqrt();
            assert!(
                tech.offchip_beat_pj > 10.0 * onchip_64k,
                "{}: off-chip/on-chip ratio too small",
                tech.name
            );
            assert!(tech.sram_write_factor > 1.0);
            assert!(tech.sram_sleep_frac < 1.0 && tech.sram_sleep_frac > 0.0);
            assert!(tech.offchip_bus_cap_pf > tech.onchip_bus_cap_pf);
        }
    }

    #[test]
    fn newer_node_is_cheaper() {
        let old = Technology::tech180();
        let new = Technology::tech130();
        assert!(new.sram_e0_pj < old.sram_e0_pj);
        assert!(new.offchip_beat_pj < old.offchip_beat_pj);
        assert!(new.vdd < old.vdd);
    }

    #[test]
    fn soft_error_rates_worsen_at_newer_nodes() {
        // Critical charge shrinks with the cell, so the per-Mbit upset
        // rate and the drowsy retention penalty must both be monotonically
        // non-decreasing from 180 nm to 90 nm.
        let nodes = [
            Technology::tech180(),
            Technology::tech130(),
            Technology::tech90(),
        ];
        for pair in nodes.windows(2) {
            assert!(
                pair[1].seu_fit_per_mbit > pair[0].seu_fit_per_mbit,
                "{} vs {}",
                pair[0].name,
                pair[1].name
            );
            assert!(pair[1].retention_drowsy_mult > pair[0].retention_drowsy_mult);
        }
        for t in nodes {
            assert!(t.seu_fit_per_mbit > 0.0);
            assert!(t.retention_drowsy_mult >= 1.0);
        }
    }

    #[test]
    fn tech90_is_leakage_dominated() {
        let t = Technology::tech90();
        // Leakage per KiB-cycle is an order of magnitude above tech180.
        assert!(t.sram_idle_pj_per_kib > 10.0 * Technology::tech180().sram_idle_pj_per_kib);
        // But dynamic access energy is cheaper.
        assert!(t.sram_e0_pj < Technology::tech130().sram_e0_pj);
    }

    #[test]
    fn transition_energy_is_half_cv2() {
        let t = Technology::tech180();
        let e = t.transition_pj(1.0);
        assert!((e - 0.5 * 1.8 * 1.8).abs() < 1e-12);
    }

    #[test]
    fn default_is_tech180() {
        assert_eq!(Technology::default(), Technology::tech180());
    }
}
