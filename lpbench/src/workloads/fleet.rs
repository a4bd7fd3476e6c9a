//! `fleet_stream` and `fleet_secded`: fleet campaigns over the uniform
//! device mix at 256 events per device.
//!
//! `fleet_stream` has faults off: `trace::stream` and the workload
//! generators dominate, and it is the bypass workload for the fault
//! campaign, whose code path it shares. `fleet_secded` exposes every
//! device to accelerated upsets under SECDED at 90 nm: the campaign
//! dominates per-device time.

use std::time::Instant;

use lpmem_bench::fleet::{simulate_device, ClassAgg, FleetShard, SampleRec, NUM_CLASSES};
use lpmem_bench::{run_fleet, FleetReport, FleetSpec};
use lpmem_core::flows::{
    run_campaign, BankExposure, FaultExposure, FaultSpec, Protection, TechNode,
};
use lpmem_core::WorkloadMix;
use lpmem_util::pool::parallel_map_with;

use crate::spans::Recorder;
use crate::stats::{digest, elapsed_ns};
use crate::{Config, Pass, Traced, Workload};

/// A fleet workload.
pub struct Fleet {
    seed: u64,
    workers: usize,
    devices: u64,
    fault: FaultSpec,
    tech: TechNode,
}

impl Fleet {
    /// `fleet_stream`: 49,152 devices per pass (48 shards of 1,024),
    /// faults off.
    pub fn stream(cfg: &Config) -> Self {
        Fleet {
            seed: cfg.seed,
            workers: cfg.workers,
            devices: if cfg.small { 2_048 } else { 49_152 },
            fault: FaultSpec::off(),
            tech: TechNode::T180,
        }
    }

    /// `fleet_secded`: 8,192 devices per pass (8 shards, so both workers
    /// stay busy) under accelerated SECDED campaigns at 90 nm.
    pub fn secded(cfg: &Config) -> Self {
        Fleet {
            seed: cfg.seed,
            workers: cfg.workers,
            devices: if cfg.small { 256 } else { 8_192 },
            fault: FaultSpec::accelerated(Protection::Secded),
            tech: TechNode::T90,
        }
    }
}

impl Workload for Fleet {
    type Ready = FleetSpec;

    fn setup(&self) -> Result<FleetSpec, String> {
        let mut spec = FleetSpec::new(WorkloadMix::uniform());
        spec.devices = self.devices;
        spec.events_per_device = 256;
        spec.base_seed = self.seed;
        spec.fault = self.fault;
        spec.tech = self.tech;
        spec.validate()?;
        Ok(spec)
    }

    fn pass(&self, mut ready: Vec<FleetSpec>) -> Pass {
        let spec = ready.pop().expect("one set-up per pass");
        match run_fleet(&spec, self.workers) {
            Ok(report) => summarize(&report),
            Err(e) => failed_pass(&spec, e),
        }
    }

    fn traced_pass(
        &self,
        mut ready: Vec<FleetSpec>,
        main: &mut Recorder,
        _probes: &mut Recorder,
    ) -> Traced {
        let spec = ready.pop().expect("one set-up per pass");
        let t = Instant::now();
        let shards: Vec<u64> = (0..spec.num_shards()).collect();
        let (shards, recorders) =
            parallel_map_with(shards, self.workers, |rec: &mut Recorder, shard| {
                replay_shard(rec, &spec, shard)
            });
        for r in recorders {
            main.absorb(r);
        }
        let pass = summarize(&FleetReport::from_shards(spec, shards));
        Traced {
            pass,
            main_ns: elapsed_ns(t),
            threads: self.workers,
        }
    }
}

fn failed_pass(spec: &FleetSpec, e: String) -> Pass {
    let mut pass = Pass {
        items: spec.devices,
        failed: spec.devices,
        ..Pass::default()
    };
    pass.problems.push(e);
    pass
}

/// Checks and counts a fleet report; both modes share it, so a traced
/// pass must reproduce the untraced report byte for byte.
fn summarize(report: &FleetReport) -> Pass {
    let spec = &report.spec;
    let mut pass = Pass {
        items: spec.devices,
        sim_events: report.total_events(),
        ..Pass::default()
    };
    let devices: u64 = report.per_class.iter().map(|c| c.devices).sum();
    if devices != spec.devices {
        pass.fail(format!(
            "classes hold {devices} devices, fleet has {}",
            spec.devices
        ));
    }
    let expected = spec.devices * spec.events_per_device as u64;
    if report.total_events() != expected {
        pass.fail(format!(
            "classes hold {} events, expected {expected}",
            report.total_events()
        ));
    }
    for (c, agg) in report.per_class.iter().enumerate() {
        let r = &agg.reliability;
        if r.injected != r.masked + r.detected + r.corrected + r.silent {
            pass.fail(format!(
                "class {c}: injected {} != masked + detected + corrected + silent",
                r.injected
            ));
        }
    }
    let r = report.total_reliability();
    for (k, v) in [
        ("events", report.total_events()),
        ("injected", r.injected),
        ("masked", r.masked),
        ("detected", r.detected),
        ("corrected", r.corrected),
        ("silent", r.silent),
    ] {
        pass.counters.insert(k.into(), v.to_string());
    }
    pass.digest = Some(digest(report.jsonl().as_bytes()));
    pass
}

/// One shard as `simulate_shard` computes it, with the device stream and
/// the fault campaign timed apart: the stream runs with faults off, and
/// the campaign runs on the exposure `simulate_device` derives from the
/// streamed statistics.
fn replay_shard(rec: &mut Recorder, spec: &FleetSpec, shard: u64) -> FleetShard {
    let off = FleetSpec {
        fault: FaultSpec::off(),
        ..spec.clone()
    };
    let tech = spec.tech.technology();
    let bits = u64::from(spec.fault.protection.total_bits());
    let start = shard * spec.shard_devices;
    let end = (start + spec.shard_devices).min(spec.devices);
    let mut per_class = [ClassAgg::default(); NUM_CLASSES];
    let mut samples: Vec<SampleRec> = Vec::new();
    for device in start..end {
        let mut stats = rec.span("trace.stream", device, |_| simulate_device(&off, device));
        rec.count("fleet.devices", 1);
        if spec.fault.enabled() {
            let exposure = FaultExposure {
                domain: device,
                banks: vec![BankExposure {
                    words: stats.cold * (spec.block_size / 4),
                    active_ticks: stats.events,
                    sleep_ticks: 0,
                    reads: stats.reuses,
                    writes: stats.cold,
                }],
            };
            stats.reliability = rec.span("fault.campaign", device, |_| {
                run_campaign(&spec.fault, &tech, &exposure, spec.base_seed)
            });
            let words: u64 = exposure.banks.iter().map(|b| b.words).sum();
            rec.count("fault.bit_trials", words * bits);
            rec.count("fault.flips_injected", stats.reliability.injected);
        }
        per_class[stats.class].absorb(&stats);
        // The shard's bottom-k priority sample, kept as `simulate_shard`
        // keeps it.
        if samples.len() < spec.samples
            || samples.last().is_some_and(|worst| {
                (stats.priority, stats.device) < (worst.priority, worst.device)
            })
        {
            let rec = SampleRec {
                priority: stats.priority,
                device: stats.device,
                class: stats.class,
                drift: stats.drift,
                cold: stats.cold,
                reuses: stats.reuses,
                dist_sum: stats.dist_sum,
                near_pairs: stats.near_pairs,
                ws_max: stats.ws_max,
                profile_addrs: stats.profile_addrs.clone(),
            };
            let at = samples
                .binary_search_by_key(&(rec.priority, rec.device), |s| (s.priority, s.device))
                .unwrap_or_else(|i| i);
            samples.insert(at, rec);
            samples.truncate(spec.samples);
        }
    }
    FleetShard { per_class, samples }
}
