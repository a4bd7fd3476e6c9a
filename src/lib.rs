//! # lpmem — energy-efficient embedded memory-system optimization
//!
//! `lpmem` is a full reproduction of the DATE 2003 Session 1B
//! (*Energy-Efficient Memory Systems*) line of work, built as a Rust
//! workspace with every substrate implemented from scratch:
//!
//! * **address clustering** for memory partitioning
//!   ([`cluster`], [`partition`] — 1B.1);
//! * **energy-driven differential write-back compression**
//!   ([`compress`] — 1B.2);
//! * **application-specific instruction-bus encoding**
//!   ([`buscode`] — 1B.3);
//! * **two-level on-chip data scheduling** for multi-context
//!   reconfigurable fabrics ([`sched`] — 1B.4);
//! * substrates: trace analysis ([`trace`]), a TinyRISC ISA simulator with
//!   a verified benchmark-kernel suite ([`isa`]), a data-carrying cache
//!   simulator ([`mem`]), and analytic energy models ([`energy`]);
//! * ready-made evaluation flows tying it all together ([`core`]);
//! * multi-objective design-space exploration over the cross-flow
//!   configuration space, with a deterministic Pareto engine
//!   ([`explore`]).
//!
//! This crate re-exports the whole workspace; depend on it for everything,
//! or on the individual `lpmem-*` crates for narrower footprints. See
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! reproduction results.
//!
//! # Quickstart
//!
//! ```
//! use lpmem::prelude::*;
//!
//! // Run a verified TinyRISC kernel and optimize its data memory.
//! let run = Kernel::Histogram.run(16, 42)?;
//! let outcome = run_partitioning(
//!     "histogram",
//!     &run.trace,
//!     &PartitioningConfig::default(),
//!     &Technology::tech180(),
//! )?;
//! println!(
//!     "monolithic {} -> partitioned {} -> clustered {}",
//!     outcome.monolithic, outcome.partitioned, outcome.clustered
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use lpmem_buscode as buscode;
pub use lpmem_cluster as cluster;
pub use lpmem_compress as compress;
pub use lpmem_core as core;
pub use lpmem_energy as energy;
pub use lpmem_explore as explore;
pub use lpmem_isa as isa;
pub use lpmem_mem as mem;
pub use lpmem_partition as partition;
pub use lpmem_sched as sched;
pub use lpmem_trace as trace;

/// The most commonly used items in one import.
pub mod prelude {
    pub use lpmem_buscode::{BusInvert, RegionEncoder, XorTransform};
    pub use lpmem_cluster::{cluster_blocks, AddressMap, ClusterConfig, Objective};
    pub use lpmem_compress::{DiffCodec, FpcCodec, LineCodec, RawCodec, ZeroRunCodec};
    pub use lpmem_core::flows::buscoding::{run_buscoding, BusCodingOutcome};
    pub use lpmem_core::flows::compression::{
        run_compression_kernel, run_compression_trace, CompressionConfig, CompressionOutcome,
        PlatformKind,
    };
    pub use lpmem_core::flows::partitioning::{
        run_partitioning, PartitioningConfig, PartitioningOutcome,
    };
    pub use lpmem_core::flows::scheduling::{dsp_pipeline_app, run_scheduling, SchedulingOutcome};
    pub use lpmem_core::flows::system::{run_system, run_system_trace, SystemOutcome};
    pub use lpmem_core::flows::{
        CmpReport, CmpSpec, CodecKind, FaultSpec, FlowSpec, FlowSummary, Protection,
        ReliabilityReport, Scenario, TechNode, VariantSpec,
    };
    pub use lpmem_core::{workloads, DeviceArchetype, FlowError, WorkloadMix};
    pub use lpmem_energy::{
        AreaReport, BusModel, Energy, EnergyReport, OffChipModel, SramModel, Technology,
    };
    pub use lpmem_explore::{
        DesignPoint, DesignSpace, Evaluator, Evolutionary, Exhaustive, Frontier, Objectives,
        SearchConfig, SearchStrategy, Workload,
    };
    pub use lpmem_isa::{assemble, Kernel, KernelRun, Machine, Program};
    pub use lpmem_mem::{Cache, CacheConfig, FlatMemory};
    pub use lpmem_partition::{greedy_partition, optimal_partition, Partition, PartitionCost};
    pub use lpmem_sched::{greedy_schedule, naive_schedule, AppSpec, ContextSpec, SchedPlatform};
    pub use lpmem_trace::{
        AccessKind, BlockProfile, LocalityReport, MemEvent, Reservoir, StackDistanceHistogram,
        StreamingLocality, StreamingStackDistance, StreamingWorkingSet, Trace, WorkingSetReport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let trace: Trace = lpmem_trace::gen::HotColdGen::new(1 << 16, 4, 0.9)
            .seed(1)
            .events(5_000)
            .collect();
        let profile = BlockProfile::from_trace(&trace, 2048).unwrap();
        let cost = PartitionCost::new(&Technology::tech180());
        let (partition, eval) = optimal_partition(&profile, 8, &cost);
        assert!(partition.num_banks() >= 1);
        assert!(eval.total() > Energy::ZERO);
    }
}
