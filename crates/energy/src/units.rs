//! The [`Energy`] unit type.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An amount of energy, stored internally in picojoules.
///
/// `Energy` is a zero-cost newtype ([C-NEWTYPE]) that keeps joules from
/// being confused with counts or areas anywhere in the workspace. It
/// supports the arithmetic an energy accounting flow needs: addition,
/// subtraction, scaling by counts, and ratios.
///
/// ```
/// use lpmem_energy::Energy;
///
/// let per_access = Energy::from_pj(12.5);
/// let total = per_access * 1000.0;
/// assert_eq!(total, Energy::from_nj(12.5));
/// assert!((total / per_access - 1000.0).abs() < 1e-9);
/// ```
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Energy(pj)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nj(nj: f64) -> Self {
        Energy(nj * 1e3)
    }

    /// Creates an energy from microjoules.
    pub fn from_uj(uj: f64) -> Self {
        Energy(uj * 1e6)
    }

    /// Value in picojoules.
    pub fn as_pj(self) -> f64 {
        self.0
    }

    /// Value in nanojoules.
    pub fn as_nj(self) -> f64 {
        self.0 * 1e-3
    }

    /// Value in microjoules.
    pub fn as_uj(self) -> f64 {
        self.0 * 1e-6
    }

    /// `max(self - other, 0)`, for computing non-negative savings.
    pub fn saturating_sub(self, other: Energy) -> Energy {
        Energy((self.0 - other.0).max(0.0))
    }

    /// Relative saving of `self` over `baseline` in `0.0..=1.0`
    /// (negative when `self` costs more). Returns `0.0` for a zero baseline.
    pub fn saving_vs(self, baseline: Energy) -> f64 {
        if baseline.0 == 0.0 {
            0.0
        } else {
            1.0 - self.0 / baseline.0
        }
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    /// Formats with an automatically chosen SI prefix: `12.50 pJ`,
    /// `3.42 nJ`, `1.77 µJ`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.0.abs();
        if pj < 1e3 {
            write!(f, "{:.2} pJ", self.0)
        } else if pj < 1e6 {
            write!(f, "{:.2} nJ", self.as_nj())
        } else {
            write!(f, "{:.2} µJ", self.as_uj())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        assert_eq!(Energy::from_nj(1.0).as_pj(), 1000.0);
        assert_eq!(Energy::from_uj(1.0).as_nj(), 1000.0);
        assert_eq!(Energy::from_pj(250.0).as_nj(), 0.25);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Energy::from_pj(10.0);
        let b = Energy::from_pj(4.0);
        assert_eq!(a + b, Energy::from_pj(14.0));
        assert_eq!(a - b, Energy::from_pj(6.0));
        assert_eq!(a * 2.0, Energy::from_pj(20.0));
        assert_eq!(2.0 * a, Energy::from_pj(20.0));
        assert_eq!(a / 2.0, Energy::from_pj(5.0));
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_energies() {
        let total: Energy = (1..=4).map(|i| Energy::from_pj(i as f64)).sum();
        assert_eq!(total, Energy::from_pj(10.0));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = Energy::from_pj(3.0);
        let b = Energy::from_pj(5.0);
        assert_eq!(a.saturating_sub(b), Energy::ZERO);
        assert_eq!(b.saturating_sub(a), Energy::from_pj(2.0));
    }

    #[test]
    fn saving_vs_baseline() {
        let opt = Energy::from_pj(75.0);
        let base = Energy::from_pj(100.0);
        assert!((opt.saving_vs(base) - 0.25).abs() < 1e-12);
        assert_eq!(opt.saving_vs(Energy::ZERO), 0.0);
    }

    #[test]
    fn display_picks_si_prefix() {
        assert_eq!(Energy::from_pj(12.5).to_string(), "12.50 pJ");
        assert_eq!(Energy::from_pj(3_420.0).to_string(), "3.42 nJ");
        assert_eq!(Energy::from_uj(1.77).to_string(), "1.77 µJ");
    }
}
