//! Deterministic pseudo-random number generation.
//!
//! Two generators, both tiny, fast, and dependency-free:
//!
//! * [`SplitMix64`] — a 64-bit state-increment generator. Used to expand
//!   seeds (its successive outputs are well-distributed even for adjacent
//!   seeds) and for cheap auxiliary streams.
//! * [`Rng`] — xoshiro256++, seeded through SplitMix64. The workhorse
//!   generator behind every synthetic workload and property test in the
//!   workspace.
//!
//! Determinism is a hard guarantee: the same seed always produces the same
//! stream, on every platform, forever. Trace generators, kernels, and
//! property tests all lean on this for reproducibility.

use std::ops::{Range, RangeInclusive};

/// SplitMix64: the seed-expansion PRNG (Steele, Lea & Flood).
///
/// Every output is a bijective mix of a counter, so even seeds 0, 1, 2, …
/// yield decorrelated streams — exactly what seeding needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives a decorrelated child seed from a base seed and a coordinate
    /// path (e.g. the axes of a sweep grid).
    ///
    /// Each coordinate is folded through a full SplitMix64 round, so the
    /// derivation is order-sensitive (`[1, 2]` and `[2, 1]` yield different
    /// seeds), collision-resistant for adjacent coordinates, and depends
    /// only on `(base, path)` — never on evaluation order. This is the
    /// per-task seeding scheme of the experiment sweep engine: a task's
    /// stream is pinned by its grid coordinates alone, so results are
    /// bit-identical regardless of worker count or interleaving.
    pub fn derive(base: u64, path: &[u64]) -> u64 {
        let mut seed = SplitMix64::new(base).next_u64();
        for &coord in path {
            seed = SplitMix64::new(seed ^ coord.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        seed
    }
}

/// xoshiro256++ (Blackman & Vigna): 256-bit state, 64-bit output,
/// period 2²⁵⁶ − 1, excellent statistical quality for simulation work.
///
/// Seeded via [`SplitMix64`] so that *any* `u64` seed — including 0 —
/// yields a valid, decorrelated state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose state is expanded from `seed` with
    /// [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32-bit output (upper half of the 64-bit stream).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u64` in `[0, n)` via Lemire's unbiased multiply-shift
    /// rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn bounded_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "bounded_u64 needs a non-empty range");
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen_f64() < p
    }

    /// Uniform sample from an integer range (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample(self)
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }

    /// Index drawn with probability proportional to `weights[i]`.
    ///
    /// Returns `None` if `weights` is empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last non-zero weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range called with an empty range");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(width) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "gen_range called with an empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Full 64-bit domain: every output is in range.
                    rng.next_u64() as $t
                } else {
                    (start as i128 + rng.bounded_u64(span as u64) as i128) as $t
                }
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn derive_is_deterministic_and_path_sensitive() {
        // Same (base, path) -> same seed, forever.
        assert_eq!(
            SplitMix64::derive(7, &[1, 2, 3]),
            SplitMix64::derive(7, &[1, 2, 3])
        );
        // Any coordinate change, base change, or reordering changes the seed.
        assert_ne!(
            SplitMix64::derive(7, &[1, 2, 3]),
            SplitMix64::derive(8, &[1, 2, 3])
        );
        assert_ne!(
            SplitMix64::derive(7, &[1, 2, 3]),
            SplitMix64::derive(7, &[1, 2, 4])
        );
        assert_ne!(
            SplitMix64::derive(7, &[1, 2]),
            SplitMix64::derive(7, &[2, 1])
        );
        // The empty path still decorrelates from the raw base.
        assert_ne!(SplitMix64::derive(7, &[]), 7);
    }

    #[test]
    fn derive_spreads_adjacent_coordinates() {
        // Adjacent grid coordinates must yield well-spread seeds: all
        // distinct, and no seed sharing its low 32 bits with another.
        let mut seeds = Vec::new();
        for flow in 0..4u64 {
            for kernel in 0..8u64 {
                seeds.push(SplitMix64::derive(2003, &[flow, kernel]));
            }
        }
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
        let low: std::collections::HashSet<u32> = seeds.iter().map(|&s| s as u32).collect();
        assert_eq!(low.len(), seeds.len(), "low halves must not collide");
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        let mut c = Rng::seed_from_u64(100);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(-100..100);
            assert!((-100..100).contains(&v));
            let u: u8 = rng.gen_range(10..=20);
            assert!((10..=20).contains(&u));
            let w = rng.gen_range(0..1u64);
            assert_eq!(w, 0);
        }
    }

    #[test]
    fn gen_range_covers_extremes() {
        let mut rng = Rng::seed_from_u64(8);
        let mut seen_min = false;
        let mut seen_max = false;
        for _ in 0..2_000 {
            match rng.gen_range(0..=7u32) {
                0 => seen_min = true,
                7 => seen_max = true,
                _ => {}
            }
        }
        assert!(seen_min && seen_max);
        // The full-domain inclusive range must not panic.
        let _ = rng.gen_range(u64::MIN..=u64::MAX);
        let _ = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(11);
        let mut bins = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            bins[rng.gen_range(0..8usize)] += 1;
        }
        let expect = n as f64 / 8.0;
        for (i, &count) in bins.iter().enumerate() {
            let dev = (f64::from(count) - expect).abs() / expect;
            assert!(dev < 0.05, "bin {i} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(5);
        let hits = (0..50_000).filter(|_| rng.gen_bool(0.3)).count();
        let ratio = hits as f64 / 50_000.0;
        assert!((ratio - 0.3).abs() < 0.02, "ratio = {ratio}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        Rng::seed_from_u64(17).shuffle(&mut a);
        Rng::seed_from_u64(17).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same shuffle");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..50).collect::<Vec<u32>>(),
            "must stay a permutation"
        );
        assert_ne!(a, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn shuffle_positions_are_roughly_uniform() {
        // Where does element 0 land? Over many seeds, every slot should be
        // hit approximately equally often.
        let n = 8;
        let trials = 16_000;
        let mut slots = vec![0u32; n];
        for seed in 0..trials {
            let mut v: Vec<usize> = (0..n).collect();
            Rng::seed_from_u64(seed).shuffle(&mut v);
            slots[v.iter().position(|&x| x == 0).unwrap()] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, &count) in slots.iter().enumerate() {
            let dev = (f64::from(count) - expect).abs() / expect;
            assert!(dev < 0.10, "slot {i} deviates {dev:.3}");
        }
    }

    #[test]
    fn choose_and_weighted_choice() {
        let mut rng = Rng::seed_from_u64(23);
        assert_eq!(rng.choose::<u32>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));

        // A dominant weight must dominate the draw.
        let common = (0..5_000)
            .filter(|_| rng.weighted_index(&[1.0, 99.0]) == Some(1))
            .count();
        assert!(common > 4_700, "common drawn {common}/5000");

        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[0.0, 1.0, 0.0]), Some(1));
        assert_eq!(rng.weighted_index(&[1.0, f64::NAN]), None);
        assert_eq!(rng.weighted_index(&[-1.0, 2.0]), None);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5..5u32);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_panics() {
        Rng::seed_from_u64(0).gen_bool(1.5);
    }
}
