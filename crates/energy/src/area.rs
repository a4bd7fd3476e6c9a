//! Named silicon-area breakdowns.
//!
//! The A5 experiment established the workspace's area accounting — bank
//! cell arrays and periphery, the clustering relocation table, codec and
//! encoder gates — as ad-hoc `f64` sums. [`AreaReport`] promotes it to a
//! first-class structure mirroring [`EnergyReport`](crate::EnergyReport):
//! named mm² components that subsystems fill in independently and a
//! design-space explorer can total into an area objective.

use std::collections::BTreeMap;
use std::fmt;

/// A silicon-area breakdown by named component, in mm².
///
/// ```
/// use lpmem_energy::AreaReport;
///
/// let mut a = AreaReport::new();
/// a.add("bank.cells", 0.40);
/// a.add("bank.periphery", 0.05);
/// a.add("bank.periphery", 0.05);
/// assert!((a.total_mm2() - 0.50).abs() < 1e-12);
/// assert!((a.component("bank.periphery") - 0.10).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AreaReport {
    components: BTreeMap<String, f64>,
}

impl AreaReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        AreaReport::default()
    }

    /// Adds area (mm²) to the named component (creating it if new).
    ///
    /// # Panics
    ///
    /// Panics if `mm2` is negative or non-finite — area components are
    /// physical quantities.
    pub fn add(&mut self, component: impl Into<String>, mm2: f64) {
        assert!(
            mm2.is_finite() && mm2 >= 0.0,
            "area must be finite and non-negative"
        );
        *self.components.entry(component.into()).or_insert(0.0) += mm2;
    }

    /// Area of one component in mm² (zero when absent).
    pub fn component(&self, name: &str) -> f64 {
        self.components.get(name).copied().unwrap_or(0.0)
    }

    /// Sum over all components, in mm².
    pub fn total_mm2(&self) -> f64 {
        self.components.values().sum()
    }

    /// Iterates over `(name, mm2)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.components.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another report into this one, summing shared components.
    pub fn merge(&mut self, other: &AreaReport) {
        for (name, mm2) in other.iter() {
            self.add(name, mm2);
        }
    }

    /// `true` when the report has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .components
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(5)
            .max(5);
        for (name, mm2) in &self.components {
            writeln!(f, "  {name:<width$}  {mm2:.4} mm2")?;
        }
        writeln!(f, "  {:-<width$}  ", "")?;
        write!(f, "  {:<width$}  {:.4} mm2", "total", self.total_mm2())
    }
}

impl FromIterator<(String, f64)> for AreaReport {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut r = AreaReport::new();
        for (name, mm2) in iter {
            r.add(name, mm2);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SramModel, Technology};

    #[test]
    fn add_accumulates_per_component() {
        let mut a = AreaReport::new();
        a.add("x", 1.0);
        a.add("x", 2.0);
        a.add("y", 4.0);
        assert_eq!(a.component("x"), 3.0);
        assert_eq!(a.component("missing"), 0.0);
        assert_eq!(a.total_mm2(), 7.0);
    }

    #[test]
    fn merge_sums_shared_components() {
        let mut a = AreaReport::new();
        a.add("banks", 0.25);
        let mut b = AreaReport::new();
        b.add("banks", 0.25);
        b.add("codec", 0.01);
        a.merge(&b);
        assert_eq!(a.component("banks"), 0.5);
        assert_eq!(a.component("codec"), 0.01);
        assert!(!a.is_empty());
    }

    #[test]
    fn display_contains_total_row() {
        let mut a = AreaReport::new();
        a.add("bank.cells", 0.125);
        let s = a.to_string();
        assert!(s.contains("bank.cells"));
        assert!(s.contains("total"));
        assert!(s.contains("mm2"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_area_panics() {
        AreaReport::new().add("x", -1.0);
    }

    #[test]
    fn more_banks_means_more_periphery_area() {
        // The promoted A5 accounting: splitting a memory into ever more
        // banks keeps the cell area constant but multiplies the periphery
        // — total area must grow strictly monotonically in bank count.
        let sram = SramModel::new(&Technology::tech180());
        let total_bytes = 64u64 << 10;
        let mut last = 0.0;
        for banks in [1u64, 2, 4, 8, 16] {
            let mut report = AreaReport::new();
            for _ in 0..banks {
                let b = total_bytes / banks;
                report.add("bank.cells", sram.cell_area_mm2(b));
                report.add("bank.periphery", sram.periphery_area_mm2(b));
            }
            let cells_only = report.component("bank.cells");
            assert!(
                (cells_only - sram.cell_area_mm2(total_bytes)).abs() < 1e-12,
                "cell area is conserved across bankings"
            );
            assert!(
                report.total_mm2() > last,
                "{banks} banks: {} not above {last}",
                report.total_mm2()
            );
            last = report.total_mm2();
        }
    }
}
