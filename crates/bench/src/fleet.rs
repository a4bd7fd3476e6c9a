//! Fleet-scale streaming simulation: N device instances, bounded memory,
//! byte-stable reports (DESIGN.md §11, ROADMAP item 2).
//!
//! A [`FleetSpec`] describes a *population* of devices: how many, how many
//! events each produces, and a [`WorkloadMix`] giving the probability of
//! each [`DeviceArchetype`]. Every device draws its class, its parameter
//! *drift*, and its generator seed from coordinates via
//! [`SplitMix64::derive`] — never from execution order — and streams its
//! events straight through the online statistics of `lpmem_trace::stream`.
//! **No trace is ever materialized on this path**: per-device state is
//! `O(footprint + window)` and per-shard state is a few hundred integers,
//! so a million-device sweep runs in tens of megabytes.
//!
//! Aggregation is sharded: devices are grouped into fixed-size shards,
//! shards fan out over [`lpmem_util::pool::parallel_map`], and shard
//! aggregates merge with integer-only, commutative arithmetic. The merged
//! [`FleetReport::jsonl`] is therefore byte-identical at any worker count
//! and under any shard permutation (floats appear only at render time,
//! derived from fully-merged integers). Device-level detail survives as a
//! bottom-k *priority sample*: each device gets a coordinate-derived
//! priority, each shard keeps its own k lowest-priority candidates, and
//! the merge re-selects the k lowest overall. Because every shard retains
//! a full k candidates, the merged sample *equals* the fleet-wide
//! bottom-k — no re-sharding or merge order can change it (pinned by a
//! property test in `tests/properties.rs`). Each sampled device carries a
//! reservoir-sampled address profile.

use std::time::Instant;

use lpmem_core::flows::{
    run_campaign, BankExposure, FaultExposure, FaultSpec, ReliabilityReport, TechNode,
};
use lpmem_core::{DeviceArchetype, WorkloadMix};
use lpmem_trace::{Reservoir, StreamingStackDistance, StreamingWorkingSet};
use lpmem_util::json::JsonObject;
use lpmem_util::pool::parallel_map;
use lpmem_util::{Rng, SplitMix64};

/// Number of device classes (= [`DeviceArchetype::ALL`] length).
pub const NUM_CLASSES: usize = DeviceArchetype::ALL.len();

/// Log2 stack-distance buckets per class: bucket 0 is distance 0, bucket
/// `i >= 1` covers distances in `[2^(i-1), 2^i)`, and the last bucket
/// holds the clamp at `StackDistanceHistogram::MAX_TRACKED`.
pub const DIST_BUCKETS: usize = 18;

/// Derivation tags for the per-device seed tree (`derive(base, [device, TAG])`).
const TAG_PICK: u64 = 0;
const TAG_GEN: u64 = 1;
const TAG_RESERVOIR: u64 = 2;
const TAG_PRIORITY: u64 = 3;

/// Addresses kept in each device's reservoir-sampled profile.
const PROFILE_ADDRS: usize = 4;

/// A fleet population description. All fields are inputs to the report;
/// two equal specs produce byte-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Device instances to simulate.
    pub devices: u64,
    /// Events each device streams.
    pub events_per_device: usize,
    /// Probability mix over device archetypes.
    pub mix: WorkloadMix,
    /// Base seed; every per-device seed is derived from it.
    pub base_seed: u64,
    /// Stack-distance / working-set block granularity (bytes).
    pub block_size: u64,
    /// Spatial-locality window (bytes).
    pub spatial_window: u64,
    /// Working-set window (events).
    pub ws_window: usize,
    /// Devices kept in the bottom-k priority sample.
    pub samples: usize,
    /// Devices per aggregation shard (one pool task each).
    pub shard_devices: u64,
    /// Fault-campaign mode: each device's touched footprint is exposed to
    /// the spec's upset rate under its protection ([`FaultSpec::off`] for
    /// the classic locality-only fleet, whose report bytes are unchanged).
    pub fault: FaultSpec,
    /// Technology node pricing the fault campaign's FIT rate.
    pub tech: TechNode,
}

impl FleetSpec {
    /// A small default fleet (callers override `devices` for real sweeps).
    pub fn new(mix: WorkloadMix) -> Self {
        FleetSpec {
            devices: 1024,
            events_per_device: 256,
            mix,
            base_seed: 2003,
            block_size: 64,
            spatial_window: 64,
            ws_window: 64,
            samples: 8,
            shard_devices: 1024,
            fault: FaultSpec::off(),
            tech: TechNode::T180,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("devices must be > 0".into());
        }
        if self.events_per_device == 0 {
            return Err("events per device must be > 0".into());
        }
        if self.block_size == 0 || !self.block_size.is_power_of_two() {
            return Err(format!(
                "block size {} is not a non-zero power of two",
                self.block_size
            ));
        }
        if self.spatial_window == 0 {
            return Err("spatial window must be > 0".into());
        }
        if self.ws_window == 0 {
            return Err("working-set window must be > 0".into());
        }
        if self.shard_devices == 0 {
            return Err("shard size must be > 0".into());
        }
        Ok(())
    }

    /// Number of aggregation shards the fleet splits into.
    pub fn num_shards(&self) -> u64 {
        self.devices.div_ceil(self.shard_devices)
    }
}

/// Streamed statistics of one simulated device — integers only, so shard
/// folds are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceStats {
    /// Device id (0-based fleet coordinate).
    pub device: u64,
    /// Archetype index (into [`DeviceArchetype::ALL`]).
    pub class: usize,
    /// Parameter drift drawn for this device.
    pub drift: u64,
    /// Events streamed.
    pub events: u64,
    /// First-touch accesses (= block footprint).
    pub cold: u64,
    /// Reuse accesses.
    pub reuses: u64,
    /// Sum of (clamped) stack distances over reuses.
    pub dist_sum: u64,
    /// Log2 stack-distance histogram.
    pub dist_hist: [u64; DIST_BUCKETS],
    /// Consecutive access pairs within the spatial window.
    pub near_pairs: u64,
    /// Consecutive access pairs total (`events - 1`).
    pub pairs: u64,
    /// Complete working-set windows.
    pub ws_windows: u64,
    /// Summed distinct blocks over complete windows.
    pub ws_distinct_sum: u64,
    /// Largest distinct-block count of any window (incl. the tail).
    pub ws_max: u64,
    /// Sampling priority (derived; smallest k devices enter the report).
    pub priority: u64,
    /// Reservoir-sampled event addresses (profile of this device).
    pub profile_addrs: Vec<u64>,
    /// Campaign outcome (all-zero when the spec's fault axis is off).
    pub reliability: ReliabilityReport,
}

fn dist_bucket(d: usize) -> usize {
    if d == 0 {
        0
    } else {
        (DIST_BUCKETS - 1).min(usize::BITS as usize - d.leading_zeros() as usize)
    }
}

/// Simulates one device: derives its class/drift/seed from `(base_seed,
/// device)` and streams its events through the online statistics. Never
/// materializes a trace.
///
/// The spec must be valid (see [`FleetSpec::validate`]); `run_fleet`
/// validates once up front.
pub fn simulate_device(spec: &FleetSpec, device: u64) -> DeviceStats {
    let mut pick_rng = Rng::seed_from_u64(SplitMix64::derive(spec.base_seed, &[device, TAG_PICK]));
    let class = spec.mix.pick(&mut pick_rng);
    let drift = pick_rng.bounded_u64(12);
    let gen_seed = SplitMix64::derive(spec.base_seed, &[device, TAG_GEN]);

    let mut sd = StreamingStackDistance::new(spec.block_size).expect("spec validated by caller");
    let mut ws = StreamingWorkingSet::new(spec.block_size, spec.ws_window)
        .expect("spec validated by caller");
    let mut profile = Reservoir::new(
        PROFILE_ADDRS,
        SplitMix64::derive(spec.base_seed, &[device, TAG_RESERVOIR]),
    );
    let mut near_pairs = 0u64;
    let mut prev_addr: Option<u64> = None;
    for ev in class.events(gen_seed, spec.events_per_device, drift) {
        if let Some(prev) = prev_addr {
            if prev.abs_diff(ev.addr) <= spec.spatial_window {
                near_pairs += 1;
            }
        }
        prev_addr = Some(ev.addr);
        profile.push(ev.addr);
        ws.push(ev);
        sd.push(ev);
    }

    let hist = sd.finish();
    let mut dist_hist = [0u64; DIST_BUCKETS];
    let mut dist_sum = 0u64;
    let mut reuses = 0u64;
    for (d, &count) in hist.buckets().iter().enumerate() {
        if count > 0 {
            dist_hist[dist_bucket(d)] += count;
            dist_sum += d as u64 * count;
            reuses += count;
        }
    }
    let wsr = ws.finish();

    // Fault-campaign mode: the device's touched block footprint is the
    // exposed memory, its stream length the exposure time, its reuses the
    // consuming reads. The campaign seed tree hangs off (base_seed,
    // device-as-domain), so campaigns are coordinate-stable like
    // everything else on this path.
    let reliability = if spec.fault.enabled() {
        let exposure = FaultExposure {
            domain: device,
            banks: vec![BankExposure {
                words: hist.cold_accesses() * (spec.block_size / 4),
                active_ticks: hist.total_accesses(),
                sleep_ticks: 0,
                reads: reuses,
                writes: hist.cold_accesses(),
            }],
        };
        run_campaign(
            &spec.fault,
            &spec.tech.technology(),
            &exposure,
            spec.base_seed,
        )
    } else {
        ReliabilityReport::default()
    };

    DeviceStats {
        device,
        class: class.index(),
        drift,
        events: hist.total_accesses(),
        cold: hist.cold_accesses(),
        reuses,
        dist_sum,
        dist_hist,
        near_pairs,
        pairs: hist.total_accesses().saturating_sub(1),
        ws_windows: wsr.windows,
        ws_distinct_sum: wsr.distinct_sum,
        ws_max: wsr.max_distinct.max(wsr.tail_distinct),
        priority: SplitMix64::derive(spec.base_seed, &[device, TAG_PRIORITY]),
        profile_addrs: profile.into_items(),
        reliability,
    }
}

/// Integer aggregate over all devices of one class. Merging is
/// commutative and associative (sums and maxima of integers), so any
/// shard order produces the same aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassAgg {
    /// Devices of this class.
    pub devices: u64,
    /// Events streamed by this class.
    pub events: u64,
    /// Cold (first-touch) accesses.
    pub cold: u64,
    /// Reuse accesses.
    pub reuses: u64,
    /// Sum of stack distances over reuses.
    pub dist_sum: u64,
    /// Log2 stack-distance histogram.
    pub dist_hist: [u64; DIST_BUCKETS],
    /// Spatially-near consecutive pairs.
    pub near_pairs: u64,
    /// Consecutive pairs total.
    pub pairs: u64,
    /// Complete working-set windows.
    pub ws_windows: u64,
    /// Summed distinct blocks over complete windows.
    pub ws_distinct_sum: u64,
    /// Largest working set seen on any device of the class.
    pub ws_max: u64,
    /// Largest block footprint seen on any device of the class.
    pub max_footprint: u64,
    /// Summed campaign outcomes (all-zero outside fault mode).
    pub reliability: ReliabilityReport,
}

impl ClassAgg {
    /// Mean stack distance over the class's reuses; `None` when the class
    /// saw no reuse (an empty class).
    pub fn mean_stack_distance(&self) -> Option<f64> {
        (self.reuses > 0).then(|| self.dist_sum as f64 / self.reuses as f64)
    }

    /// Share of consecutive access pairs that are spatially near; `None`
    /// when the class streamed no pair (an empty class).
    pub fn spatial_locality(&self) -> Option<f64> {
        (self.pairs > 0).then(|| self.near_pairs as f64 / self.pairs as f64)
    }

    /// Folds one device into the aggregate.
    pub fn absorb(&mut self, d: &DeviceStats) {
        self.devices += 1;
        self.events += d.events;
        self.cold += d.cold;
        self.reuses += d.reuses;
        self.dist_sum += d.dist_sum;
        for (b, &c) in d.dist_hist.iter().enumerate() {
            self.dist_hist[b] += c;
        }
        self.near_pairs += d.near_pairs;
        self.pairs += d.pairs;
        self.ws_windows += d.ws_windows;
        self.ws_distinct_sum += d.ws_distinct_sum;
        self.ws_max = self.ws_max.max(d.ws_max);
        self.max_footprint = self.max_footprint.max(d.cold);
        self.reliability.merge(&d.reliability);
    }

    /// Merges another aggregate (commutative, associative).
    pub fn merge(&mut self, o: &ClassAgg) {
        self.devices += o.devices;
        self.events += o.events;
        self.cold += o.cold;
        self.reuses += o.reuses;
        self.dist_sum += o.dist_sum;
        for (b, &c) in o.dist_hist.iter().enumerate() {
            self.dist_hist[b] += c;
        }
        self.near_pairs += o.near_pairs;
        self.pairs += o.pairs;
        self.ws_windows += o.ws_windows;
        self.ws_distinct_sum += o.ws_distinct_sum;
        self.ws_max = self.ws_max.max(o.ws_max);
        self.max_footprint = self.max_footprint.max(o.max_footprint);
        self.reliability.merge(&o.reliability);
    }
}

/// One device's record in the bottom-k priority sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRec {
    /// Derived sampling priority (the sort/selection key).
    pub priority: u64,
    /// Device id.
    pub device: u64,
    /// Archetype index.
    pub class: usize,
    /// Parameter drift.
    pub drift: u64,
    /// Cold accesses (footprint).
    pub cold: u64,
    /// Reuse accesses.
    pub reuses: u64,
    /// Sum of stack distances.
    pub dist_sum: u64,
    /// Spatially-near pairs.
    pub near_pairs: u64,
    /// Largest working set.
    pub ws_max: u64,
    /// Reservoir-sampled address profile.
    pub profile_addrs: Vec<u64>,
}

impl SampleRec {
    fn from_device(d: &DeviceStats) -> Self {
        SampleRec {
            priority: d.priority,
            device: d.device,
            class: d.class,
            drift: d.drift,
            cold: d.cold,
            reuses: d.reuses,
            dist_sum: d.dist_sum,
            near_pairs: d.near_pairs,
            ws_max: d.ws_max,
            profile_addrs: d.profile_addrs.clone(),
        }
    }
}

/// One shard's contribution: per-class integer aggregates plus its local
/// bottom-k sample candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetShard {
    /// Per-class aggregates, indexed by archetype.
    pub per_class: [ClassAgg; NUM_CLASSES],
    /// The shard's k lowest-priority devices.
    pub samples: Vec<SampleRec>,
}

/// Simulates one shard of devices (`[start, start + count)` of the fleet
/// coordinate space). Pure function of `(spec, shard index)`.
pub fn simulate_shard(spec: &FleetSpec, shard: u64) -> FleetShard {
    let start = shard * spec.shard_devices;
    let end = (start + spec.shard_devices).min(spec.devices);
    let mut per_class = [ClassAgg::default(); NUM_CLASSES];
    let mut samples: Vec<SampleRec> = Vec::new();
    for device in start..end {
        let stats = simulate_device(spec, device);
        per_class[stats.class].absorb(&stats);
        // Shard-local bottom-k: keep the list sorted and bounded.
        if samples.len() < spec.samples
            || samples.last().is_some_and(|worst| {
                (stats.priority, stats.device) < (worst.priority, worst.device)
            })
        {
            let rec = SampleRec::from_device(&stats);
            let at = samples
                .binary_search_by_key(&(rec.priority, rec.device), |s| (s.priority, s.device))
                .unwrap_or_else(|i| i);
            samples.insert(at, rec);
            samples.truncate(spec.samples);
        }
    }
    FleetShard { per_class, samples }
}

/// The merged fleet report. Everything [`FleetReport::jsonl`] renders is a
/// pure function of the spec — timings live in separate fields and never
/// enter the JSONL.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The spec that produced the report.
    pub spec: FleetSpec,
    /// Per-class merged aggregates, indexed by archetype.
    pub per_class: [ClassAgg; NUM_CLASSES],
    /// Fleet-wide bottom-k priority sample, sorted by (priority, device).
    pub samples: Vec<SampleRec>,
    /// Workers used (reporting only).
    pub workers: usize,
    /// End-to-end wall time in nanoseconds (reporting only).
    pub elapsed_ns: u64,
}

impl FleetReport {
    /// Merges shard results. Class aggregates merge commutatively and the
    /// global sample re-selects the k smallest priorities, so any shard
    /// permutation yields the same report.
    pub fn from_shards(spec: FleetSpec, shards: Vec<FleetShard>) -> FleetReport {
        let mut per_class = [ClassAgg::default(); NUM_CLASSES];
        let mut samples: Vec<SampleRec> = Vec::new();
        for shard in &shards {
            for (c, agg) in shard.per_class.iter().enumerate() {
                per_class[c].merge(agg);
            }
            samples.extend(shard.samples.iter().cloned());
        }
        samples.sort_by_key(|s| (s.priority, s.device));
        samples.truncate(spec.samples);
        FleetReport {
            spec,
            per_class,
            samples,
            workers: 1,
            elapsed_ns: 0,
        }
    }

    /// Total events streamed across the fleet.
    pub fn total_events(&self) -> u64 {
        self.per_class.iter().map(|c| c.events).sum()
    }

    /// Fleet-wide campaign outcome (all-zero outside fault mode).
    pub fn total_reliability(&self) -> ReliabilityReport {
        let mut total = ReliabilityReport::default();
        for c in &self.per_class {
            total.merge(&c.reliability);
        }
        total
    }

    /// The machine-readable report: one `fleet` header line, one `class`
    /// line per archetype (in [`DeviceArchetype::ALL`] order), and one
    /// `sample` line per sampled device. Byte-identical for a given spec
    /// at any worker count; every float is derived from fully-merged
    /// integers at render time.
    pub fn jsonl(&self) -> String {
        let faults = self.spec.fault.enabled();
        let mut out = String::new();
        let mut header = JsonObject::new()
            .str("kind", "fleet")
            .u64("devices", self.spec.devices)
            .u64("events_per_device", self.spec.events_per_device as u64)
            .u64("events", self.total_events())
            .str("mix", self.spec.mix.name())
            .u64("seed", self.spec.base_seed)
            .u64("block_size", self.spec.block_size)
            .u64("spatial_window", self.spec.spatial_window)
            .u64("ws_window", self.spec.ws_window as u64)
            .u64("samples", self.samples.len() as u64);
        // Campaign fields appear only in fault mode, so the classic
        // locality report keeps its historical bytes (golden-pinned).
        if faults {
            header = header
                .str("faults", &self.spec.fault.label())
                .str("tech", self.spec.tech.name());
        }
        out.push_str(&header.finish());
        out.push('\n');
        for (c, agg) in self.per_class.iter().enumerate() {
            let hist = agg
                .dist_hist
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let mut row = JsonObject::new()
                .str("kind", "class")
                .str("class", DeviceArchetype::ALL[c].name())
                .u64("devices", agg.devices)
                .u64("events", agg.events)
                .u64("cold", agg.cold)
                .u64("reuses", agg.reuses)
                .u64("dist_sum", agg.dist_sum)
                .u64("near_pairs", agg.near_pairs)
                .u64("pairs", agg.pairs)
                .u64("ws_windows", agg.ws_windows)
                .u64("ws_distinct_sum", agg.ws_distinct_sum)
                .u64("ws_max", agg.ws_max)
                .u64("max_footprint", agg.max_footprint)
                // An empty class has no ratio: JSON `null`.
                .f64(
                    "mean_stack_distance",
                    agg.mean_stack_distance().unwrap_or(f64::NAN),
                )
                .f64(
                    "spatial_locality",
                    agg.spatial_locality().unwrap_or(f64::NAN),
                )
                .f64(
                    "ws_mean",
                    agg.ws_distinct_sum as f64 / agg.ws_windows as f64,
                );
            if faults {
                row = agg.reliability.json_fields(row);
            }
            out.push_str(&row.str("dist_hist", &hist).finish());
            out.push('\n');
        }
        for s in &self.samples {
            let addrs = s
                .profile_addrs
                .iter()
                .map(|a| format!("{a:#x}"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(
                &JsonObject::new()
                    .str("kind", "sample")
                    .u64("priority", s.priority)
                    .u64("device", s.device)
                    .str("class", DeviceArchetype::ALL[s.class].name())
                    .u64("drift", s.drift)
                    .u64("cold", s.cold)
                    .u64("reuses", s.reuses)
                    .u64("dist_sum", s.dist_sum)
                    .u64("near_pairs", s.near_pairs)
                    .u64("ws_max", s.ws_max)
                    .str("profile", &addrs)
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Devices simulated per second of wall time (0 when untimed).
    pub fn devices_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.spec.devices as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Events streamed per second of wall time (0 when untimed).
    pub fn events_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_events() as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// Runs the fleet: shards fan out over the worker pool, shard
/// aggregates merge into one report. The JSONL body is independent of
/// `workers`.
///
/// # Errors
///
/// Returns the spec validation error, if any.
pub fn run_fleet(spec: &FleetSpec, workers: usize) -> Result<FleetReport, String> {
    spec.validate()?;
    let started = Instant::now();
    let shards: Vec<u64> = (0..spec.num_shards()).collect();
    let results = parallel_map(shards, workers, |shard| simulate_shard(spec, shard));
    let mut report = FleetReport::from_shards(spec.clone(), results);
    report.workers = workers.max(1);
    report.elapsed_ns = started.elapsed().as_nanos() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        let mut spec = FleetSpec::new(WorkloadMix::uniform());
        spec.devices = 96;
        spec.events_per_device = 128;
        spec.shard_devices = 16;
        spec
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut s = small_spec();
        s.block_size = 48;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.devices = 0;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.ws_window = 0;
        assert!(s.validate().is_err());
        assert!(small_spec().validate().is_ok());
    }

    #[test]
    fn dist_buckets_are_log2() {
        assert_eq!(dist_bucket(0), 0);
        assert_eq!(dist_bucket(1), 1);
        assert_eq!(dist_bucket(2), 2);
        assert_eq!(dist_bucket(3), 2);
        assert_eq!(dist_bucket(4), 3);
        assert_eq!(dist_bucket(65_535), 16);
        assert_eq!(dist_bucket(65_536), 17);
    }

    #[test]
    fn device_stats_are_coordinate_stable() {
        let spec = small_spec();
        let a = simulate_device(&spec, 17);
        let b = simulate_device(&spec, 17);
        assert_eq!(a, b);
        // Device identity, not position, drives the stream.
        let c = simulate_device(&spec, 18);
        assert_ne!(
            (a.class, a.drift, a.priority),
            (c.class, c.drift, c.priority)
        );
    }

    #[test]
    fn device_accounting_is_consistent() {
        let spec = small_spec();
        for device in 0..24 {
            let d = simulate_device(&spec, device);
            assert_eq!(d.events, spec.events_per_device as u64);
            assert_eq!(d.cold + d.reuses, d.events, "device {device}");
            assert_eq!(d.dist_hist.iter().sum::<u64>(), d.reuses);
            assert_eq!(d.pairs, d.events - 1);
            assert!(d.near_pairs <= d.pairs);
            assert!(d.profile_addrs.len() <= PROFILE_ADDRS);
        }
    }

    #[test]
    fn shard_merge_equals_flat_aggregation() {
        let spec = small_spec();
        let shards: Vec<FleetShard> = (0..spec.num_shards())
            .map(|s| simulate_shard(&spec, s))
            .collect();
        let merged = FleetReport::from_shards(spec.clone(), shards);
        // Flat single-shard run over the same devices.
        let mut flat_spec = spec.clone();
        flat_spec.shard_devices = spec.devices;
        let flat = FleetReport::from_shards(flat_spec.clone(), vec![simulate_shard(&flat_spec, 0)]);
        assert_eq!(merged.per_class, flat.per_class);
        assert_eq!(merged.samples, flat.samples);
    }

    #[test]
    fn fault_mode_accounts_and_plain_bytes_lack_campaign_fields() {
        use lpmem_core::flows::Protection;
        let plain = run_fleet(&small_spec(), 2).unwrap();
        assert!(plain.total_reliability().is_empty());
        assert!(!plain.jsonl().contains("\"injected\""));
        assert!(!plain.jsonl().contains("\"faults\""));

        // Short streams expose few word-ticks, so accelerate well past
        // the campaign default for a statistically real upset population.
        let mut spec = small_spec();
        spec.fault = FaultSpec {
            rate_scale: FaultSpec::DEFAULT_ACCEL.saturating_mul(10_000),
            protection: Protection::Secded,
        };
        let faulted = run_fleet(&spec, 2).unwrap();
        let total = faulted.total_reliability();
        assert!(total.injected > 0, "accelerated rate must inject");
        assert_eq!(
            total.injected,
            total.masked + total.detected + total.corrected + total.silent,
            "every injected bit lands in exactly one outcome"
        );
        let jsonl = faulted.jsonl();
        assert!(jsonl.contains("\"faults\":\"secded:"));
        assert!(jsonl.contains("\"injected\""));
        // Campaigns are coordinate-derived: worker count changes nothing.
        assert_eq!(jsonl, run_fleet(&spec, 1).unwrap().jsonl());
        assert_eq!(jsonl, run_fleet(&spec, 8).unwrap().jsonl());
        // The locality statistics are untouched by the fault axis.
        for (f, p) in faulted.per_class.iter().zip(plain.per_class.iter()) {
            assert_eq!((f.devices, f.events, f.cold), (p.devices, p.events, p.cold));
        }
    }

    #[test]
    fn report_covers_every_device_exactly_once() {
        let spec = small_spec();
        let report = run_fleet(&spec, 2).unwrap();
        let devices: u64 = report.per_class.iter().map(|c| c.devices).sum();
        assert_eq!(devices, spec.devices);
        assert_eq!(
            report.total_events(),
            spec.devices * spec.events_per_device as u64
        );
        assert_eq!(report.samples.len(), spec.samples);
    }
}
