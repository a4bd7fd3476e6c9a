//! Umbrella API of the `lpmem` workspace: ready-made evaluation *flows*
//! that tie the substrates (traces, TinyRISC, caches, energy models) to the
//! four DATE 2003 Session 1B optimizations.
//!
//! | Flow | Paper | Entry point |
//! |------|-------|-------------|
//! | Memory partitioning ± address clustering | 1B.1 | [`flows::partitioning::run_partitioning`] |
//! | Write-back data compression | 1B.2 | [`flows::compression::run_compression_kernel`] |
//! | Instruction-bus functional encoding | 1B.3 | [`flows::buscoding::run_buscoding`] |
//! | Two-level data scheduling | 1B.4 | [`flows::scheduling::run_scheduling`] |
//!
//! Each flow returns an *outcome* struct carrying the baseline and the
//! optimized energy (or transition) numbers plus the derived savings — the
//! rows the experiment harness prints. Harnesses that sweep scenarios run
//! every flow through one entry point instead:
//! [`flows::FlowSpec::run`] on a [`flows::Scenario`] (kernel, scale, seed,
//! technology, variant, fault and CMP axes).
//!
//! # Example: the 1B.1 headline experiment on one kernel
//!
//! ```
//! use lpmem_core::flows::partitioning::{run_partitioning, PartitioningConfig};
//! use lpmem_energy::Technology;
//! use lpmem_isa::Kernel;
//!
//! let run = Kernel::Histogram.run(16, 1)?;
//! let outcome = run_partitioning(
//!     "histogram",
//!     &run.trace,
//!     &PartitioningConfig::default(),
//!     &Technology::tech180(),
//! )?;
//! assert!(outcome.clustered <= outcome.partitioned);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod flows;
pub mod workloads;

pub use workloads::{DeviceArchetype, WorkloadMix};

/// Errors surfaced by the evaluation flows.
#[derive(Debug)]
pub enum FlowError {
    /// Trace/profile construction failed.
    Trace(lpmem_trace::TraceError),
    /// Cache configuration was invalid.
    Mem(lpmem_mem::MemError),
    /// Kernel assembly or execution failed.
    Isa(lpmem_isa::IsaError),
    /// Scheduling specification or evaluation failed.
    Sched(lpmem_sched::SchedError),
    /// The flow's input was unusable (e.g. a trace with no data accesses).
    EmptyInput(&'static str),
    /// A scenario specification is invalid for the platform it runs on.
    InvalidSpec(String),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Trace(e) => write!(f, "trace error: {e}"),
            FlowError::Mem(e) => write!(f, "memory error: {e}"),
            FlowError::Isa(e) => write!(f, "isa error: {e}"),
            FlowError::Sched(e) => write!(f, "scheduling error: {e}"),
            FlowError::EmptyInput(what) => write!(f, "empty input: {what}"),
            FlowError::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Trace(e) => Some(e),
            FlowError::Mem(e) => Some(e),
            FlowError::Isa(e) => Some(e),
            FlowError::Sched(e) => Some(e),
            FlowError::EmptyInput(_) | FlowError::InvalidSpec(_) => None,
        }
    }
}

impl From<lpmem_trace::TraceError> for FlowError {
    fn from(e: lpmem_trace::TraceError) -> Self {
        FlowError::Trace(e)
    }
}

impl From<lpmem_mem::MemError> for FlowError {
    fn from(e: lpmem_mem::MemError) -> Self {
        FlowError::Mem(e)
    }
}

impl From<lpmem_isa::IsaError> for FlowError {
    fn from(e: lpmem_isa::IsaError) -> Self {
        FlowError::Isa(e)
    }
}

impl From<lpmem_sched::SchedError> for FlowError {
    fn from(e: lpmem_sched::SchedError) -> Self {
        FlowError::Sched(e)
    }
}
