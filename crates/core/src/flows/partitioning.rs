//! The 1B.1 flow: monolithic vs. partitioned vs. clustered+partitioned
//! data memory.

use lpmem_cluster::{cluster_blocks, AddressMap, ClusterConfig, Objective};
use lpmem_energy::{AreaReport, Energy, Technology};
use lpmem_partition::sleep::{evaluate_with_sleep, SleepPolicy};
use lpmem_partition::{optimal_partition, Partition, PartitionCost};
use lpmem_trace::{BlockProfile, MemEvent, Trace};

use crate::FlowError;

/// Parameters of the partitioning flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitioningConfig {
    /// Profile block size in bytes (the partitioning granularity).
    pub block_size: u64,
    /// Maximum number of banks the partitioner may synthesize.
    pub max_banks: usize,
    /// Address-clustering parameters.
    pub cluster: ClusterConfig,
}

impl Default for PartitioningConfig {
    /// 2 KiB blocks, up to 8 banks, default clustering — the headline (T1)
    /// configuration.
    fn default() -> Self {
        PartitioningConfig {
            block_size: 2048,
            max_banks: 8,
            cluster: ClusterConfig::default(),
        }
    }
}

/// Result of the three-way partitioning comparison for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitioningOutcome {
    /// Workload label.
    pub name: String,
    /// Energy of the single-bank memory.
    pub monolithic: Energy,
    /// Energy of the optimally partitioned memory (no clustering).
    pub partitioned: Energy,
    /// Energy of the partitioned memory after address clustering,
    /// **including** the relocation-table lookup overhead.
    pub clustered: Energy,
    /// Banks chosen without clustering.
    pub partitioned_banks: usize,
    /// Banks chosen with clustering.
    pub clustered_banks: usize,
    /// Whether clustering was adopted (it is rejected when the relocation
    /// overhead outweighs the gain, as a designer would).
    pub clustering_adopted: bool,
    /// Number of profile blocks.
    pub blocks: usize,
    /// Data accesses evaluated.
    pub accesses: u64,
    /// Silicon-area breakdown of the **adopted** design: per-bank cell
    /// arrays and periphery, plus the relocation table when clustering
    /// was adopted with a non-identity map (the promoted A5 accounting).
    pub area: AreaReport,
}

impl PartitioningOutcome {
    /// Fractional energy reduction of clustering vs. plain partitioning
    /// (the paper's headline metric: avg ≈ 25%, max ≈ 57%).
    pub fn reduction_vs_partitioned(&self) -> f64 {
        self.clustered.saving_vs(self.partitioned)
    }

    /// Fractional energy reduction of plain partitioning vs. the monolith.
    pub fn partitioning_gain(&self) -> f64 {
        self.partitioned.saving_vs(self.monolithic)
    }

    /// Fractional reduction of the full flow vs. the monolith.
    pub fn reduction_vs_monolithic(&self) -> f64 {
        self.clustered.saving_vs(self.monolithic)
    }
}

/// Runs the three-way comparison on the data side of a trace.
///
/// # Errors
///
/// Returns [`FlowError::EmptyInput`] when the trace has no data accesses
/// and propagates profile-construction errors.
pub fn run_partitioning(
    name: &str,
    trace: &Trace,
    cfg: &PartitioningConfig,
    tech: &Technology,
) -> Result<PartitioningOutcome, FlowError> {
    let data = trace.data_only();
    if data.is_empty() {
        return Err(FlowError::EmptyInput("trace has no data accesses"));
    }
    let profile = BlockProfile::from_trace(&data, cfg.block_size)?;
    let cost = PartitionCost::new(tech);
    let accesses = profile.total_accesses();

    let monolithic = cost.evaluate(&profile, &Partition::monolithic(profile.num_blocks()));
    let (part_plain, eval_plain) = optimal_partition(&profile, cfg.max_banks, &cost);

    // The synthesis flow evaluates both clustering objectives and keeps the
    // cheaper design (the affinity chain trades a little dynamic energy for
    // temporal grouping, which only pays under power gating — see A4).
    let objectives: &[Objective] = match cfg.cluster.objective {
        Objective::FrequencyOnly => &[Objective::FrequencyOnly],
        Objective::FrequencyAffinity => &[Objective::FrequencyOnly, Objective::FrequencyAffinity],
    };
    let mut best: Option<(AddressMap, Partition, Energy)> = None;
    for &objective in objectives {
        let cluster_cfg = ClusterConfig {
            objective,
            ..cfg.cluster.clone()
        };
        let map = cluster_blocks(&profile, Some(&data), &cluster_cfg);
        let remapped = map.apply(&profile)?;
        let (part, eval) = optimal_partition(&remapped, cfg.max_banks, &cost);
        let total = eval.total() + map.lookup_energy(accesses, tech);
        if best.as_ref().map(|(_, _, b)| total < *b).unwrap_or(true) {
            best = Some((map, part, total));
        }
    }
    let (map_clustered, part_clustered, with_clustering) =
        best.expect("at least one objective is evaluated");

    // Adopt clustering only when it pays for its relocation table — the
    // synthesis flow would otherwise keep the plain partitioned design.
    let adopted = with_clustering < eval_plain.total();
    let (clustered, clustered_banks) = if adopted {
        (with_clustering, part_clustered.num_banks())
    } else {
        (eval_plain.total(), part_plain.num_banks())
    };

    // Area of the design the flow actually ships: the adopted banking,
    // plus the relocation table if clustering (with a real remap) won.
    let adopted_part = if adopted {
        &part_clustered
    } else {
        &part_plain
    };
    let mut area = cost.area_report(&profile, adopted_part);
    if adopted && !map_clustered.is_identity() {
        area.add("relocation.table", map_clustered.table_area_mm2(tech));
    }

    Ok(PartitioningOutcome {
        name: name.to_owned(),
        monolithic: monolithic.total(),
        partitioned: eval_plain.total(),
        clustered,
        partitioned_banks: part_plain.num_banks(),
        clustered_banks,
        clustering_adopted: adopted,
        blocks: profile.num_blocks(),
        accesses,
        area,
    })
}

/// Result of the sleep-aware three-way comparison (experiment **A4**):
/// plain partitioning vs. frequency-only clustering vs. affinity-aware
/// clustering, all evaluated with the trace-driven power-gating model.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepPartitioningOutcome {
    /// Workload label.
    pub name: String,
    /// Sleep-aware energy of the plain optimal partition.
    pub partitioned: Energy,
    /// Sleep-aware energy with frequency-only clustering (incl. relocation
    /// overhead).
    pub freq_only: Energy,
    /// Sleep-aware energy with affinity clustering (incl. relocation
    /// overhead).
    pub affinity: Energy,
    /// Fraction of bank-ticks asleep under each variant.
    pub sleep_fractions: [f64; 3],
}

impl SleepPartitioningOutcome {
    /// Reduction of affinity clustering vs. plain partitioning.
    pub fn affinity_reduction(&self) -> f64 {
        self.affinity.saving_vs(self.partitioned)
    }

    /// Reduction of frequency-only clustering vs. plain partitioning.
    pub fn freq_only_reduction(&self) -> f64 {
        self.freq_only.saving_vs(self.partitioned)
    }
}

/// Remaps every data event of a trace through an [`AddressMap`].
fn remap_trace(trace: &Trace, map: &AddressMap) -> Trace {
    trace
        .iter()
        .map(|ev| MemEvent {
            addr: map.remap_addr(ev.addr),
            ..*ev
        })
        .collect()
}

/// Runs the sleep-aware comparison (see [`SleepPartitioningOutcome`]).
///
/// `timeout` is the bank power-gating timeout in trace ticks.
///
/// # Errors
///
/// Returns [`FlowError::EmptyInput`] when the trace has no data accesses
/// and propagates profile-construction errors.
pub fn run_partitioning_sleep(
    name: &str,
    trace: &Trace,
    cfg: &PartitioningConfig,
    tech: &Technology,
    timeout: u64,
) -> Result<SleepPartitioningOutcome, FlowError> {
    let data = trace.data_only();
    if data.is_empty() {
        return Err(FlowError::EmptyInput("trace has no data accesses"));
    }
    let profile = BlockProfile::from_trace(&data, cfg.block_size)?;
    let cost = PartitionCost::new(tech);
    let policy = SleepPolicy::from_tech(tech, timeout);
    let accesses = profile.total_accesses();

    let (plain_part, _) = optimal_partition(&profile, cfg.max_banks, &cost);
    let plain = evaluate_with_sleep(&data, &profile, &plain_part, tech, &policy);

    let variant = |objective: Objective| -> Result<(Energy, f64), FlowError> {
        let cluster_cfg = ClusterConfig {
            objective,
            ..cfg.cluster.clone()
        };
        let map = cluster_blocks(&profile, Some(&data), &cluster_cfg);
        let remapped_profile = map.apply(&profile)?;
        let remapped_trace = remap_trace(&data, &map);
        let (part, _) = optimal_partition(&remapped_profile, cfg.max_banks, &cost);
        let eval = evaluate_with_sleep(&remapped_trace, &remapped_profile, &part, tech, &policy);
        Ok((
            eval.total() + map.lookup_energy(accesses, tech),
            eval.sleep_fraction,
        ))
    };
    let (freq_only, sf1) = variant(Objective::FrequencyOnly)?;
    let (affinity, sf2) = variant(Objective::FrequencyAffinity)?;

    Ok(SleepPartitioningOutcome {
        name: name.to_owned(),
        partitioned: plain.total(),
        freq_only,
        affinity,
        sleep_fractions: [plain.sleep_fraction, sf1, sf2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_trace::gen::HotColdGen;

    fn scattered_trace() -> Trace {
        HotColdGen::new(1 << 17, 6, 0.92)
            .block_size(2048)
            .seed(11)
            .events(60_000)
            .collect()
    }

    #[test]
    fn clustering_wins_on_scattered_hot_set() {
        let trace = scattered_trace();
        let out = run_partitioning(
            "hotcold",
            &trace,
            &PartitioningConfig::default(),
            &Technology::tech180(),
        )
        .unwrap();
        assert!(out.partitioned < out.monolithic);
        assert!(out.clustered < out.partitioned, "{out:?}");
        assert!(
            out.reduction_vs_partitioned() > 0.10,
            "{}",
            out.reduction_vs_partitioned()
        );
    }

    #[test]
    fn empty_data_trace_is_rejected() {
        let trace: Trace = vec![lpmem_trace::MemEvent::fetch(0)].into();
        let err = run_partitioning(
            "empty",
            &trace,
            &PartitioningConfig::default(),
            &Technology::tech180(),
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::EmptyInput(_)));
    }

    #[test]
    fn outcome_metrics_are_consistent() {
        let trace = scattered_trace();
        let out = run_partitioning(
            "hotcold",
            &trace,
            &PartitioningConfig::default(),
            &Technology::tech180(),
        )
        .unwrap();
        let r = out.reduction_vs_partitioned();
        let expect = 1.0 - out.clustered.as_pj() / out.partitioned.as_pj();
        assert!((r - expect).abs() < 1e-12);
        assert!(out.reduction_vs_monolithic() >= out.partitioning_gain());
    }

    #[test]
    fn outcome_carries_adopted_area() {
        let trace = scattered_trace();
        let out = run_partitioning(
            "hotcold",
            &trace,
            &PartitioningConfig::default(),
            &Technology::tech180(),
        )
        .unwrap();
        assert!(out.area.component("bank.cells") > 0.0);
        assert!(out.area.component("bank.periphery") > 0.0);
        // On this workload clustering wins with a real remap, so the
        // relocation table must be accounted for.
        assert!(out.clustering_adopted);
        assert!(out.area.component("relocation.table") > 0.0, "{}", out.area);
        assert!(out.area.total_mm2() > out.area.component("bank.cells"));
    }

    #[test]
    fn sleep_flow_reports_sleep_fractions() {
        let trace = scattered_trace();
        let out = run_partitioning_sleep(
            "hotcold",
            &trace,
            &PartitioningConfig::default(),
            &Technology::tech180(),
            32,
        )
        .unwrap();
        // Clustered variants must not lose to plain partitioning here.
        assert!(out.affinity <= out.partitioned, "{out:?}");
        assert!(out
            .sleep_fractions
            .iter()
            .all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn works_on_kernel_traces() {
        let run = lpmem_isa::Kernel::Histogram.run(16, 3).unwrap();
        let out = run_partitioning(
            "histogram",
            &run.trace,
            &PartitioningConfig::default(),
            &Technology::tech180(),
        )
        .unwrap();
        assert!(out.clustered <= out.partitioned);
        assert!(out.accesses > 0);
    }
}
