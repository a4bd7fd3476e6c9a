//! Trace-driven, sleep-aware evaluation of a partitioned memory.
//!
//! The profile-based cost model in the crate root scores only *dynamic*
//! access energy, for which per-block access counts are a sufficient
//! statistic. Real multi-bank memories also gate idle banks into a
//! state-retentive **sleep** mode, and how much sleep a bank gets depends
//! on the *temporal* structure of the trace: a bank whose accesses are
//! clumped in time sleeps in long stretches, while a bank poked every few
//! cycles never sleeps at all. This is the mechanism that makes
//! affinity-aware address clustering (grouping *co-accessed* blocks into
//! the same bank) worth more than frequency sorting alone.
//!
//! The model: logical time advances one tick per trace event. A bank is
//! *active* on the tick it is accessed; after [`SleepPolicy::timeout`]
//! consecutive idle ticks it enters sleep, where it leaks only
//! `sleep_frac` of its idle power; the next access pays a wake penalty
//! proportional to the bank size.

use lpmem_energy::{Energy, EnergyReport, SramModel, Technology};
use lpmem_trace::{BlockProfile, Trace};

use crate::Partition;

/// Bank power-gating policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepPolicy {
    /// Idle ticks (trace events) before a bank is put to sleep.
    pub timeout: u64,
    /// Sleep leakage as a fraction of idle leakage.
    pub sleep_frac: f64,
    /// Wake penalty in pJ per KiB of bank.
    pub wake_pj_per_kib: f64,
}

impl SleepPolicy {
    /// The policy implied by a technology's parameters with the given
    /// timeout.
    ///
    /// # Panics
    ///
    /// Panics if `timeout` is zero.
    pub fn from_tech(tech: &Technology, timeout: u64) -> Self {
        assert!(timeout > 0, "timeout must be at least one tick");
        SleepPolicy {
            timeout,
            sleep_frac: tech.sram_sleep_frac,
            wake_pj_per_kib: tech.sram_wake_pj_per_kib,
        }
    }
}

/// Result of a sleep-aware evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepEvaluation {
    /// Energy breakdown: `bank.read`, `bank.write`, `bank.select`,
    /// `leak.idle`, `leak.sleep`, `wakeups`.
    pub report: EnergyReport,
    /// Wake-up count per bank.
    pub wakeups: Vec<u64>,
    /// Fraction of bank-ticks spent asleep, in `0.0..=1.0`.
    pub sleep_fraction: f64,
    /// Ticks each bank spent in drowsy sleep (exact integer counts; the
    /// retention-failure model in `lpmem-fault` scales on these).
    pub bank_sleep_ticks: Vec<u64>,
    /// Logical trace ticks the evaluation covered (data events replayed).
    pub total_ticks: u64,
}

impl SleepEvaluation {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.report.total()
    }
}

/// Replays `trace` against `partition` (whose banks cover the blocks of
/// `profile`) under a sleep policy.
///
/// Accesses outside the profile's range are ignored (they belong to other
/// memories). Instruction fetches are ignored; this models the data-memory
/// system, like the profile-based evaluator.
///
/// # Panics
///
/// Panics if the partition does not cover exactly `profile.num_blocks()`
/// blocks.
pub fn evaluate_with_sleep(
    trace: &Trace,
    profile: &BlockProfile,
    partition: &Partition,
    tech: &Technology,
    policy: &SleepPolicy,
) -> SleepEvaluation {
    assert_eq!(
        partition.num_blocks(),
        profile.num_blocks(),
        "partition must cover the whole profile"
    );
    let sram = SramModel::new(tech);
    let num_banks = partition.num_banks();
    let block_size = profile.block_size();
    let base = profile.base();
    let shift = block_size.trailing_zeros();

    // block -> bank lookup.
    let mut bank_of = vec![0usize; profile.num_blocks()];
    let mut bank_bytes = Vec::with_capacity(num_banks);
    for (bi, range) in partition.banks().enumerate() {
        for b in range.clone() {
            bank_of[b] = bi;
        }
        bank_bytes.push(range.len() as u64 * block_size);
    }
    let bank_kib: Vec<f64> = bank_bytes.iter().map(|&b| b as f64 / 1024.0).collect();
    let read_e: Vec<Energy> = bank_bytes.iter().map(|&b| sram.read_energy(b)).collect();
    let write_e: Vec<Energy> = bank_bytes.iter().map(|&b| sram.write_energy(b)).collect();

    let mut last_access = vec![0i64; num_banks];
    let mut asleep = vec![false; num_banks];
    let mut wakeups = vec![0u64; num_banks];
    // Idle/sleep energy is integrated lazily per bank on access and at the
    // end, to keep the loop O(events) rather than O(events × banks).
    let mut leak_idle_pj = 0.0;
    let mut leak_sleep_pj = 0.0;
    let mut wake_pj = 0.0;
    let mut access_read = Energy::ZERO;
    let mut access_write = Energy::ZERO;
    let mut accesses = 0u64;
    let mut bank_sleep_ticks = vec![0u64; num_banks];

    let idle_pj_per_kib = tech.sram_idle_pj_per_kib;
    // Integrates a bank's leakage from its last access to tick `now`.
    let settle = |bank: usize,
                  now: i64,
                  last_access: &[i64],
                  asleep: &mut [bool],
                  leak_idle_pj: &mut f64,
                  leak_sleep_pj: &mut f64,
                  sleep_ticks: &mut [u64],
                  kib: &[f64]| {
        let idle_span = (now - last_access[bank]).max(0) as u64;
        let awake = idle_span.min(policy.timeout);
        let sleeping = idle_span - awake;
        *leak_idle_pj += idle_pj_per_kib * kib[bank] * awake as f64;
        *leak_sleep_pj += idle_pj_per_kib * policy.sleep_frac * kib[bank] * sleeping as f64;
        sleep_ticks[bank] += sleeping;
        if sleeping > 0 {
            asleep[bank] = true;
        }
    };

    let mut now: i64 = 0;
    for ev in trace.iter().filter(|e| e.kind.is_data()) {
        if ev.addr < base {
            now += 1;
            continue;
        }
        let block = ((ev.addr - base) >> shift) as usize;
        if block >= bank_of.len() {
            now += 1;
            continue;
        }
        let bank = bank_of[block];
        settle(
            bank,
            now,
            &last_access,
            &mut asleep,
            &mut leak_idle_pj,
            &mut leak_sleep_pj,
            &mut bank_sleep_ticks,
            &bank_kib,
        );
        if asleep[bank] {
            wakeups[bank] += 1;
            wake_pj += policy.wake_pj_per_kib * bank_kib[bank];
            asleep[bank] = false;
        }
        if ev.kind == lpmem_trace::AccessKind::Write {
            access_write += write_e[bank];
        } else {
            access_read += read_e[bank];
        }
        accesses += 1;
        last_access[bank] = now;
        now += 1;
    }
    // Settle every bank to the end of the trace.
    for bank in 0..num_banks {
        settle(
            bank,
            now,
            &last_access,
            &mut asleep,
            &mut leak_idle_pj,
            &mut leak_sleep_pj,
            &mut bank_sleep_ticks,
            &bank_kib,
        );
    }

    let mut report = EnergyReport::new();
    report.add("bank.read", access_read);
    report.add("bank.write", access_write);
    report.add(
        "bank.select",
        Energy::from_pj(tech.bank_select_pj * num_banks as f64 * accesses as f64),
    );
    report.add("leak.idle", Energy::from_pj(leak_idle_pj));
    report.add("leak.sleep", Energy::from_pj(leak_sleep_pj));
    report.add("wakeups", Energy::from_pj(wake_pj));
    let total_ticks = now.max(1) as u64;
    let total_bank_ticks = total_ticks * num_banks as u64;
    let sleep_ticks: u64 = bank_sleep_ticks.iter().sum();
    SleepEvaluation {
        report,
        wakeups,
        sleep_fraction: sleep_ticks as f64 / total_bank_ticks as f64,
        bank_sleep_ticks,
        total_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_trace::MemEvent;

    fn tech() -> Technology {
        Technology::tech180()
    }

    /// Alternating accesses to two blocks in [0, 2) over 1 KiB blocks.
    fn ping_pong(n: usize) -> Trace {
        (0..n)
            .map(|i| MemEvent::read(if i % 2 == 0 { 0 } else { 1024 }))
            .collect()
    }

    /// Phase-structured: all accesses to block 0, then all to block 1.
    fn phased(n: usize) -> Trace {
        (0..n)
            .map(|i| MemEvent::read(if i < n / 2 { 0 } else { 1024 }))
            .collect()
    }

    fn two_bank_setup(trace: &Trace) -> (BlockProfile, Partition) {
        let profile = BlockProfile::from_trace(trace, 1024).unwrap();
        let partition = Partition::from_cuts(vec![0, 1, profile.num_blocks()]);
        (profile, partition)
    }

    #[test]
    fn phased_traffic_sleeps_ping_pong_does_not() {
        let policy = SleepPolicy::from_tech(&tech(), 16);
        let pp = ping_pong(10_000);
        let (p1, part1) = two_bank_setup(&pp);
        let ev_pp = evaluate_with_sleep(&pp, &p1, &part1, &tech(), &policy);

        let ph = phased(10_000);
        let (p2, part2) = two_bank_setup(&ph);
        let ev_ph = evaluate_with_sleep(&ph, &p2, &part2, &tech(), &policy);

        assert_eq!(
            ev_pp.sleep_fraction, 0.0,
            "ping-pong banks never idle long enough"
        );
        assert!(
            ev_ph.sleep_fraction > 0.4,
            "phased banks sleep: {}",
            ev_ph.sleep_fraction
        );
        // Same access counts, same banks: the phased trace must be cheaper.
        assert!(ev_ph.total() < ev_pp.total());
    }

    #[test]
    fn wakeups_are_counted_per_bank() {
        let policy = SleepPolicy::from_tech(&tech(), 4);
        // Bank 1 is touched once, long after bank 0 traffic put it to sleep.
        let mut evs: Vec<MemEvent> = (0..100).map(|_| MemEvent::read(0)).collect();
        evs.push(MemEvent::read(1024));
        let trace: Trace = evs.into();
        let (profile, partition) = two_bank_setup(&trace);
        let ev = evaluate_with_sleep(&trace, &profile, &partition, &tech(), &policy);
        assert_eq!(ev.wakeups[0], 0);
        assert_eq!(ev.wakeups[1], 1);
        assert!(ev.report.component("wakeups") > Energy::ZERO);
    }

    #[test]
    fn sleep_never_increases_total_leakage() {
        let trace = phased(5_000);
        let (profile, partition) = two_bank_setup(&trace);
        let lazy = SleepPolicy::from_tech(&tech(), 1_000_000); // effectively no sleep
        let eager = SleepPolicy::from_tech(&tech(), 8);
        let e_lazy = evaluate_with_sleep(&trace, &profile, &partition, &tech(), &lazy);
        let e_eager = evaluate_with_sleep(&trace, &profile, &partition, &tech(), &eager);
        let leak = |e: &SleepEvaluation| {
            e.report.component("leak.idle")
                + e.report.component("leak.sleep")
                + e.report.component("wakeups")
        };
        assert!(leak(&e_eager) < leak(&e_lazy));
    }

    #[test]
    fn access_energy_matches_profile_based_evaluator() {
        use crate::PartitionCost;
        let trace = phased(2_000);
        let (profile, partition) = two_bank_setup(&trace);
        let policy = SleepPolicy::from_tech(&tech(), 16);
        let sleep_eval = evaluate_with_sleep(&trace, &profile, &partition, &tech(), &policy);
        let flat_eval = PartitionCost::new(&tech()).evaluate(&profile, &partition);
        // The dynamic components are identical; only leakage modelling
        // differs.
        for comp in ["bank.read", "bank.write", "bank.select"] {
            let a = sleep_eval.report.component(comp).as_pj();
            let b = flat_eval.report.component(comp).as_pj();
            assert!((a - b).abs() < 1e-6, "{comp}: {a} vs {b}");
        }
    }

    #[test]
    fn bank_sleep_ticks_back_the_fraction() {
        let trace = phased(10_000);
        let (profile, partition) = two_bank_setup(&trace);
        let policy = SleepPolicy::from_tech(&tech(), 16);
        let ev = evaluate_with_sleep(&trace, &profile, &partition, &tech(), &policy);
        let total: u64 = ev.bank_sleep_ticks.iter().sum();
        assert!(total > 0, "phased trace must sleep");
        let expect = total as f64 / (ev.total_ticks * ev.bank_sleep_ticks.len() as u64) as f64;
        assert_eq!(ev.sleep_fraction, expect);
    }

    #[test]
    fn monolith_never_sleeps_under_steady_traffic() {
        let trace = phased(4_000);
        let profile = BlockProfile::from_trace(&trace, 1024).unwrap();
        let partition = Partition::monolithic(profile.num_blocks());
        let policy = SleepPolicy::from_tech(&tech(), 16);
        let ev = evaluate_with_sleep(&trace, &profile, &partition, &tech(), &policy);
        assert_eq!(ev.sleep_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "timeout")]
    fn zero_timeout_panics() {
        SleepPolicy::from_tech(&tech(), 0);
    }
}
