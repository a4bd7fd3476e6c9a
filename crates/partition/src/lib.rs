//! Energy-driven memory partitioning.
//!
//! Given a [`BlockProfile`] (per-block access counts over a contiguous
//! address range), this crate synthesizes a **multi-bank memory
//! architecture**: a division of the block sequence into up to `K`
//! contiguous banks. Each access activates only its bank, and smaller banks
//! cost less energy per access (see `lpmem_energy::SramModel`), so a good
//! partition isolates hot regions in small banks. This is the substrate the
//! DATE 2003 1B.1 paper builds on; its contribution — address clustering —
//! lives in `lpmem-cluster` and *feeds* this partitioner.
//!
//! Three synthesis algorithms are provided:
//!
//! * [`optimal_partition`] — exact dynamic programming, `O(n²·K)`;
//! * [`greedy_partition`] — iterative best-split baseline;
//! * [`Partition::monolithic`] — the single-bank reference design.
//!
//! The profile-based [`PartitionCost`] scores dynamic energy; the
//! trace-driven, power-gating-aware evaluator lives in [`sleep`].
//!
//! # Example
//!
//! ```
//! use lpmem_energy::Technology;
//! use lpmem_partition::{optimal_partition, PartitionCost};
//! use lpmem_trace::BlockProfile;
//!
//! // A hot region (blocks 0-1) next to cold storage.
//! let profile = BlockProfile::from_counts(0, 4096, vec![9000, 8000, 10, 10, 10, 10])?;
//! let cost = PartitionCost::new(&Technology::tech180());
//! let (partition, eval) = optimal_partition(&profile, 4, &cost);
//! assert!(partition.num_banks() > 1);
//! let mono_eval = cost.evaluate(&profile, &lpmem_partition::Partition::monolithic(profile.num_blocks()));
//! assert!(eval.total() < mono_eval.total());
//! # Ok::<(), lpmem_trace::TraceError>(())
//! ```

#![warn(missing_docs)]

pub mod sleep;

use lpmem_energy::{AreaReport, Energy, EnergyReport, SramModel, Technology};
use lpmem_trace::BlockProfile;

/// A division of `n` profile blocks into contiguous banks.
///
/// Stored as ascending cut points `0 = c₀ < c₁ < … < c_k = n`; bank `i`
/// covers blocks `c_i..c_{i+1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    cuts: Vec<usize>,
}

impl Partition {
    /// Builds a partition from ascending cut points. The first cut must be
    /// `0` and the last `n` (the number of blocks).
    ///
    /// # Panics
    ///
    /// Panics if `cuts` has fewer than two points or is not strictly
    /// ascending from zero.
    pub fn from_cuts(cuts: Vec<usize>) -> Self {
        assert!(cuts.len() >= 2, "a partition needs at least one bank");
        assert_eq!(cuts[0], 0, "first cut must be 0");
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "cuts must be strictly ascending"
        );
        Partition { cuts }
    }

    /// The single-bank partition of `n` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn monolithic(n: usize) -> Self {
        Partition::from_cuts(vec![0, n])
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Iterates over bank block ranges.
    pub fn banks(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.cuts.windows(2).map(|w| w[0]..w[1])
    }

    /// The cut points.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// Total blocks covered.
    pub fn num_blocks(&self) -> usize {
        *self.cuts.last().expect("partition always has cuts")
    }
}

/// Per-bank energy summary within a [`PartitionEvaluation`].
#[derive(Debug, Clone, PartialEq)]
pub struct BankInfo {
    /// Block range of the bank.
    pub blocks: std::ops::Range<usize>,
    /// Bank capacity in bytes.
    pub bytes: u64,
    /// Accesses that hit this bank.
    pub accesses: u64,
    /// Dynamic access energy of this bank.
    pub energy: Energy,
}

/// Result of evaluating a partition: total energy breakdown plus per-bank
/// detail.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionEvaluation {
    /// Energy breakdown (`bank.read`, `bank.write`, `bank.select`,
    /// `sram.idle`).
    pub report: EnergyReport,
    /// Per-bank summaries in address order.
    pub banks: Vec<BankInfo>,
}

impl PartitionEvaluation {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.report.total()
    }
}

/// The cost model shared by all partitioning algorithms.
///
/// Energy of a partition with banks `b` and total bank count `k`:
///
/// ```text
/// Σ_b  reads_b·E_read(S_b) + writes_b·E_write(S_b)      (bank access)
/// + accesses_total · select_pj · k                      (decoder/select)
/// + Σ_b idle(S_b, cycles)                               (leakage, cycles = accesses)
/// ```
#[derive(Debug, Clone)]
pub struct PartitionCost {
    sram: SramModel,
    select_pj: f64,
    idle_per_kib_pj: f64,
}

impl PartitionCost {
    /// Builds the cost model for a technology node.
    pub fn new(tech: &Technology) -> Self {
        PartitionCost {
            sram: SramModel::new(tech),
            select_pj: tech.bank_select_pj,
            idle_per_kib_pj: tech.sram_idle_pj_per_kib,
        }
    }

    /// Full evaluation of a partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly
    /// `profile.num_blocks()` blocks.
    pub fn evaluate(&self, profile: &BlockProfile, partition: &Partition) -> PartitionEvaluation {
        assert_eq!(
            partition.num_blocks(),
            profile.num_blocks(),
            "partition must cover the whole profile"
        );
        let mut report = EnergyReport::new();
        let mut banks = Vec::with_capacity(partition.num_banks());
        let total_accesses = profile.total_accesses();
        let mut read_e = Energy::ZERO;
        let mut write_e = Energy::ZERO;
        for range in partition.banks() {
            let bytes = (range.len() as u64) * profile.block_size();
            let counts = &profile.counts()[range.clone()];
            let wr: u64 = profile.write_counts()[range.clone()].iter().sum();
            let accesses: u64 = counts.iter().sum();
            let rd = accesses - wr;
            let e_r = self.sram.read_energy(bytes) * rd as f64;
            let e_w = self.sram.write_energy(bytes) * wr as f64;
            read_e += e_r;
            write_e += e_w;
            banks.push(BankInfo {
                blocks: range,
                bytes,
                accesses,
                energy: e_r + e_w,
            });
        }
        report.add("bank.read", read_e);
        report.add("bank.write", write_e);
        report.add(
            "bank.select",
            Energy::from_pj(self.select_pj * partition.num_banks() as f64 * total_accesses as f64),
        );
        let total_kib = (profile.num_blocks() as u64 * profile.block_size()) as f64 / 1024.0;
        report.add(
            "sram.idle",
            Energy::from_pj(self.idle_per_kib_pj * total_kib * total_accesses as f64),
        );
        PartitionEvaluation { report, banks }
    }

    /// Select-overhead energy for `k` banks over `accesses` accesses.
    fn select_energy(&self, k: usize, accesses: u64) -> Energy {
        Energy::from_pj(self.select_pj * k as f64 * accesses as f64)
    }

    /// Total silicon area of the banked memory in mm²: the sum of the
    /// per-bank macro areas (each bank pays its own periphery — the area
    /// price of partitioning).
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly
    /// `profile.num_blocks()` blocks.
    pub fn area_mm2(&self, profile: &BlockProfile, partition: &Partition) -> f64 {
        self.area_report(profile, partition).total_mm2()
    }

    /// The named area breakdown of the banked memory — the A5 accounting
    /// promoted to a first-class [`AreaReport`]: `bank.cells` (invariant
    /// under banking) and `bank.periphery` (paid once per bank, the area
    /// price of partitioning).
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover exactly
    /// `profile.num_blocks()` blocks.
    pub fn area_report(&self, profile: &BlockProfile, partition: &Partition) -> AreaReport {
        assert_eq!(
            partition.num_blocks(),
            profile.num_blocks(),
            "partition must cover the whole profile"
        );
        let mut report = AreaReport::new();
        for range in partition.banks() {
            let bytes = range.len() as u64 * profile.block_size();
            report.add("bank.cells", self.sram.cell_area_mm2(bytes));
            report.add("bank.periphery", self.sram.periphery_area_mm2(bytes));
        }
        report
    }
}

/// Exact energy-optimal partitioning into at most `max_banks` contiguous
/// banks, via dynamic programming over (prefix length, bank count).
///
/// Returns the partition together with its evaluation.
///
/// # Panics
///
/// Panics if `max_banks` is zero.
pub fn optimal_partition(
    profile: &BlockProfile,
    max_banks: usize,
    cost: &PartitionCost,
) -> (Partition, PartitionEvaluation) {
    assert!(max_banks > 0, "need at least one bank");
    let n = profile.num_blocks();
    let k_max = max_banks.min(n);

    // bank_cost[i][j] for i < j: energy of a bank covering blocks i..j.
    // Computed lazily below via closure over prefix sums.
    let block_size = profile.block_size();
    let mut pref_r = vec![0u64; n + 1];
    let mut pref_w = vec![0u64; n + 1];
    for i in 0..n {
        let w = profile.write_counts()[i];
        let c = profile.counts()[i];
        pref_r[i + 1] = pref_r[i] + (c - w);
        pref_w[i + 1] = pref_w[i] + w;
    }
    let bank_cost = |i: usize, j: usize| -> f64 {
        let bytes = (j - i) as u64 * block_size;
        let r = (pref_r[j] - pref_r[i]) as f64;
        let w = (pref_w[j] - pref_w[i]) as f64;
        cost.sram.read_energy(bytes).as_pj() * r + cost.sram.write_energy(bytes).as_pj() * w
    };

    // dp[k][j]: min energy of splitting blocks 0..j into exactly k banks.
    let inf = f64::INFINITY;
    let mut dp = vec![vec![inf; n + 1]; k_max + 1];
    let mut prev = vec![vec![0usize; n + 1]; k_max + 1];
    dp[0][0] = 0.0;
    for k in 1..=k_max {
        for j in k..=n {
            for i in (k - 1)..j {
                if dp[k - 1][i] == inf {
                    continue;
                }
                let c = dp[k - 1][i] + bank_cost(i, j);
                if c < dp[k][j] {
                    dp[k][j] = c;
                    prev[k][j] = i;
                }
            }
        }
    }

    // Choose the bank count including the per-access select overhead.
    let accesses = profile.total_accesses();
    let mut best_k = 1;
    let mut best = f64::INFINITY;
    for (k, row) in dp.iter().enumerate().skip(1) {
        if row[n] == inf {
            continue;
        }
        let total = row[n] + cost.select_energy(k, accesses).as_pj();
        if total < best {
            best = total;
            best_k = k;
        }
    }

    // Reconstruct cuts.
    let mut cuts = vec![n];
    let mut j = n;
    for k in (1..=best_k).rev() {
        j = prev[k][j];
        cuts.push(j);
    }
    cuts.reverse();
    debug_assert_eq!(cuts[0], 0);
    let partition = Partition::from_cuts(cuts);
    let eval = cost.evaluate(profile, &partition);
    (partition, eval)
}

/// Greedy baseline: starting from the monolith, repeatedly apply the single
/// best bank split until `max_banks` is reached or no split lowers total
/// energy.
///
/// # Panics
///
/// Panics if `max_banks` is zero.
pub fn greedy_partition(
    profile: &BlockProfile,
    max_banks: usize,
    cost: &PartitionCost,
) -> (Partition, PartitionEvaluation) {
    assert!(max_banks > 0, "need at least one bank");
    let n = profile.num_blocks();
    let mut partition = Partition::monolithic(n);
    let mut best_eval = cost.evaluate(profile, &partition);
    loop {
        if partition.num_banks() >= max_banks {
            break;
        }
        let mut improved: Option<(Partition, PartitionEvaluation)> = None;
        for (bi, range) in partition.banks().enumerate() {
            for cut in range.start + 1..range.end {
                let mut cuts = partition.cuts().to_vec();
                cuts.insert(bi + 1, cut);
                let cand = Partition::from_cuts(cuts);
                let eval = cost.evaluate(profile, &cand);
                let current_best = improved
                    .as_ref()
                    .map(|(_, e)| e.total())
                    .unwrap_or(best_eval.total());
                if eval.total() < current_best {
                    improved = Some((cand, eval));
                }
            }
        }
        match improved {
            Some((p, e)) => {
                partition = p;
                best_eval = e;
            }
            None => break,
        }
    }
    (partition, best_eval)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(counts: Vec<u64>) -> BlockProfile {
        BlockProfile::from_counts(0, 4096, counts).unwrap()
    }

    fn cost() -> PartitionCost {
        PartitionCost::new(&Technology::tech180())
    }

    #[test]
    fn partition_accessors() {
        let p = Partition::from_cuts(vec![0, 2, 5]);
        assert_eq!(p.num_banks(), 2);
        assert_eq!(p.num_blocks(), 5);
        let banks: Vec<_> = p.banks().collect();
        assert_eq!(banks, vec![0..2, 2..5]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_cuts_panic() {
        Partition::from_cuts(vec![0, 3, 3]);
    }

    #[test]
    fn hot_region_gets_its_own_bank() {
        let p = profile(vec![10_000, 9_000, 5, 5, 5, 5, 5, 5]);
        let (part, _) = optimal_partition(&p, 4, &cost());
        // The hot prefix must be separated from the cold tail.
        assert!(part.cuts().contains(&2), "cuts: {:?}", part.cuts());
    }

    #[test]
    fn optimal_beats_monolith_on_peaky_profile() {
        let p = profile(vec![10_000, 9_000, 5, 5, 5, 5, 5, 5]);
        let c = cost();
        let (_, opt) = optimal_partition(&p, 8, &c);
        let mono = c.evaluate(&p, &Partition::monolithic(8));
        assert!(opt.total() < mono.total());
    }

    #[test]
    fn uniform_profile_prefers_few_banks() {
        // With uniform traffic, select overhead dominates: expect few banks.
        let p = profile(vec![100; 16]);
        let (part_many, eval) = optimal_partition(&p, 16, &cost());
        // Whatever k is chosen must be no worse than forcing 16 banks.
        let forced = Partition::from_cuts((0..=16).collect());
        let forced_eval = cost().evaluate(&p, &forced);
        assert!(eval.total() <= forced_eval.total());
        assert!(part_many.num_banks() <= 16);
    }

    #[test]
    fn k1_equals_monolith() {
        let p = profile(vec![5, 100, 3, 80]);
        let c = cost();
        let (part, eval) = optimal_partition(&p, 1, &c);
        assert_eq!(part, Partition::monolithic(4));
        assert_eq!(
            eval.total(),
            c.evaluate(&p, &Partition::monolithic(4)).total()
        );
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        let profiles = vec![
            vec![1000, 2, 3, 999, 1, 2, 1000, 4],
            vec![10, 10, 10, 10],
            vec![5000, 1, 1, 1, 1, 1, 1, 4000, 1, 1, 1, 1],
        ];
        let c = cost();
        for counts in profiles {
            let p = profile(counts);
            let (_, opt) = optimal_partition(&p, 6, &c);
            let (_, greedy) = greedy_partition(&p, 6, &c);
            assert!(opt.total().as_pj() <= greedy.total().as_pj() + 1e-6);
        }
    }

    #[test]
    fn optimal_matches_exhaustive_on_small_input() {
        // Enumerate all partitions of 6 blocks into <= 3 banks.
        let p = profile(vec![500, 20, 700, 3, 3, 900]);
        let c = cost();
        let (_, opt) = optimal_partition(&p, 3, &c);
        let n = 6;
        let mut best = f64::INFINITY;
        // All cut subsets of {1..5} of size <= 2.
        for mask in 0u32..(1 << (n - 1)) {
            if mask.count_ones() > 2 {
                continue;
            }
            let mut cuts = vec![0];
            for b in 0..n - 1 {
                if mask & (1 << b) != 0 {
                    cuts.push(b + 1);
                }
            }
            cuts.push(n);
            let eval = c.evaluate(&p, &Partition::from_cuts(cuts));
            best = best.min(eval.total().as_pj());
        }
        assert!((opt.total().as_pj() - best).abs() < 1e-6);
    }

    #[test]
    fn evaluation_reports_per_bank_detail() {
        let p = profile(vec![100, 0, 50]);
        let c = cost();
        let eval = c.evaluate(&p, &Partition::from_cuts(vec![0, 1, 3]));
        assert_eq!(eval.banks.len(), 2);
        assert_eq!(eval.banks[0].accesses, 100);
        assert_eq!(eval.banks[1].accesses, 50);
        assert_eq!(eval.banks[0].bytes, 4096);
        assert_eq!(eval.banks[1].bytes, 8192);
        assert!(eval.report.component("bank.select") > Energy::ZERO);
    }

    #[test]
    fn area_grows_with_bank_count() {
        let p = profile(vec![100; 16]);
        let c = cost();
        let mono = c.area_mm2(&p, &Partition::monolithic(16));
        let eight = c.area_mm2(&p, &Partition::from_cuts((0..=16).step_by(2).collect()));
        assert!(eight > mono);
    }

    #[test]
    fn area_report_breaks_down_the_total() {
        let p = profile(vec![100; 16]);
        let c = cost();
        let mono = Partition::monolithic(16);
        let eight = Partition::from_cuts((0..=16).step_by(2).collect());
        for part in [&mono, &eight] {
            let report = c.area_report(&p, part);
            assert!((report.total_mm2() - c.area_mm2(&p, part)).abs() < 1e-12);
        }
        // Cells are conserved across bankings; periphery is what grows.
        let rm = c.area_report(&p, &mono);
        let r8 = c.area_report(&p, &eight);
        assert!((rm.component("bank.cells") - r8.component("bank.cells")).abs() < 1e-12);
        assert!(r8.component("bank.periphery") > rm.component("bank.periphery"));
    }

    #[test]
    #[should_panic(expected = "cover the whole profile")]
    fn mismatched_partition_panics() {
        let p = profile(vec![1, 2, 3]);
        cost().evaluate(&p, &Partition::monolithic(2));
    }
}
