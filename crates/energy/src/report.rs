//! Named energy breakdowns.

use std::collections::BTreeMap;
use std::fmt;

use crate::Energy;

/// An energy breakdown by named component.
///
/// Flows accumulate energy into named buckets (`"sram.read"`,
/// `"offchip.writeback"`, `"codec"`, …) and combine reports from different
/// subsystems. The [`Display`](fmt::Display) implementation prints an
/// aligned table with a total row, which is what the `repro` harness shows.
///
/// ```
/// use lpmem_energy::{Energy, EnergyReport};
///
/// let mut r = EnergyReport::new();
/// r.add("sram.read", Energy::from_pj(120.0));
/// r.add("sram.read", Energy::from_pj(30.0));
/// r.add("offchip", Energy::from_nj(1.0));
/// assert_eq!(r.total(), Energy::from_pj(1150.0));
/// assert_eq!(r.component("sram.read"), Energy::from_pj(150.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyReport {
    components: BTreeMap<String, Energy>,
}

impl EnergyReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        EnergyReport::default()
    }

    /// Adds energy to the named component (creating it if new).
    pub fn add(&mut self, component: impl Into<String>, energy: Energy) {
        *self
            .components
            .entry(component.into())
            .or_insert(Energy::ZERO) += energy;
    }

    /// Energy of one component (zero when absent).
    pub fn component(&self, name: &str) -> Energy {
        self.components.get(name).copied().unwrap_or(Energy::ZERO)
    }

    /// Sum over all components.
    pub fn total(&self) -> Energy {
        self.components.values().copied().sum()
    }

    /// Iterates over `(name, energy)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Energy)> {
        self.components.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another report into this one, summing shared components.
    pub fn merge(&mut self, other: &EnergyReport) {
        for (name, energy) in other.iter() {
            self.add(name, energy);
        }
    }

    /// `true` when the report has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .components
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(5)
            .max(5);
        for (name, energy) in &self.components {
            writeln!(f, "  {name:<width$}  {energy}")?;
        }
        writeln!(f, "  {:-<width$}  ", "")?;
        write!(f, "  {:<width$}  {}", "total", self.total())
    }
}

impl FromIterator<(String, Energy)> for EnergyReport {
    fn from_iter<I: IntoIterator<Item = (String, Energy)>>(iter: I) -> Self {
        let mut r = EnergyReport::new();
        for (name, e) in iter {
            r.add(name, e);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_per_component() {
        let mut r = EnergyReport::new();
        r.add("a", Energy::from_pj(1.0));
        r.add("a", Energy::from_pj(2.0));
        r.add("b", Energy::from_pj(4.0));
        assert_eq!(r.component("a"), Energy::from_pj(3.0));
        assert_eq!(r.component("missing"), Energy::ZERO);
        assert_eq!(r.total(), Energy::from_pj(7.0));
    }

    #[test]
    fn merge_sums_shared_components() {
        let mut r = EnergyReport::new();
        r.add("a", Energy::from_pj(1.0));
        let mut s = EnergyReport::new();
        s.add("a", Energy::from_pj(2.0));
        s.add("b", Energy::from_pj(5.0));
        r.merge(&s);
        assert_eq!(r.component("a"), Energy::from_pj(3.0));
        assert_eq!(r.component("b"), Energy::from_pj(5.0));
    }

    #[test]
    fn display_contains_total() {
        let mut r = EnergyReport::new();
        r.add("sram", Energy::from_pj(10.0));
        let s = r.to_string();
        assert!(s.contains("sram"));
        assert!(s.contains("total"));
    }

    #[test]
    fn from_iterator_collects() {
        let r: EnergyReport = vec![
            ("x".to_owned(), Energy::from_pj(1.0)),
            ("x".to_owned(), Energy::from_pj(2.0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(r.component("x"), Energy::from_pj(3.0));
    }
}
