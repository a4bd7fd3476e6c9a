//! Reservoir-sampling properties: fixed-seed determinism, sample-size
//! bounds, and inclusion-probability sanity via plain counting bounds (no
//! chi-square machinery — a 5-sigma binomial interval is enough to catch
//! any real bias).

use std::collections::BTreeSet;

use lpmem_trace::Reservoir;
use lpmem_util::prop::binomial_bounds;
use lpmem_util::Props;

#[test]
fn same_seed_same_sample_different_seed_different_stream() {
    let fill = |seed: u64| {
        let mut r = Reservoir::new(8, seed);
        for i in 0..500u32 {
            r.push(i);
        }
        r.into_items()
    };
    assert_eq!(fill(42), fill(42));
    assert_ne!(fill(42), fill(43));
}

#[test]
fn sample_size_is_min_of_seen_and_capacity() {
    Props::new("reservoir size bound").cases(64).run(|rng| {
        let cap = 1 + rng.gen_range(0..32usize);
        let n = rng.gen_range(0..500u32);
        let mut r = Reservoir::new(cap, rng.next_u64());
        for i in 0..n {
            r.push(i);
        }
        assert_eq!(r.seen(), u64::from(n));
        assert_eq!(r.items().len(), cap.min(n as usize));
        // Distinct inputs stay distinct: no slot is double-filled.
        let unique: BTreeSet<u32> = r.items().iter().copied().collect();
        assert_eq!(unique.len(), r.items().len());
        // Every sampled item was actually pushed.
        assert!(r.items().iter().all(|&x| x < n));
    });
}

#[test]
fn below_capacity_the_sample_is_the_stream() {
    let mut r = Reservoir::new(100, 7);
    for i in 0..60u32 {
        r.push(i);
    }
    assert_eq!(r.into_items(), (0..60).collect::<Vec<u32>>());
}

#[test]
fn inclusion_probability_is_uniform_within_counting_bounds() {
    // k = 8 of n = 64: every item should be kept with probability 1/8.
    // Over 2000 independent seeds the inclusion count of any fixed item
    // is Binomial(2000, 1/8): mean 250, sd ~14.8. Its 5-sigma interval
    // (250 ± 74) is wide enough to never flake yet tight enough to catch
    // position bias (early items under naive replacement would sit far
    // outside it, as would late items under no replacement: 2000 or 0).
    const K: usize = 8;
    const N: u32 = 64;
    const RUNS: u64 = 2000;
    let mut included = [0u32; N as usize];
    for seed in 0..RUNS {
        let mut r = Reservoir::new(K, seed);
        for i in 0..N {
            r.push(i);
        }
        for &item in r.items() {
            included[item as usize] += 1;
        }
    }
    let bounds = binomial_bounds(RUNS, K as f64 / f64::from(N), 5.0);
    for (item, &count) in included.iter().enumerate() {
        assert!(
            bounds.contains(&f64::from(count)),
            "item {item} included {count} times, outside {bounds:?}"
        );
    }
    // Counting cross-check: total inclusions are exactly RUNS * K.
    assert_eq!(
        included.iter().map(|&c| u64::from(c)).sum::<u64>(),
        RUNS * K as u64
    );
}
