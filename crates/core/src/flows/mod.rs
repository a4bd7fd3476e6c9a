//! The evaluation flows: one per Session 1B paper, plus the combined
//! whole-system study.

pub mod buscoding;
pub mod cmp;
pub mod compression;
pub mod partitioning;
pub mod scheduling;
pub mod spec;
pub mod system;

pub use cmp::{cmp_core_run, cmp_core_runs, run_cmp};
pub use spec::{data_memory_exposure, FlowSpec, FlowSummary, Scenario, TechNode, VariantSpec};

// Reliability surface, re-exported so harness crates reach the fault
// axis through the same uniform flow module as everything else.
pub use lpmem_fault::{
    run_campaign, BankExposure, FaultExposure, FaultSpec, Protection, ReliabilityReport,
};

// CMP scenario surface, re-exported the same way; `CodecKind` is also
// the single-core write-back codec choice.
pub use lpmem_cmp::{CmpReport, CmpSpec};
pub use lpmem_compress::CodecKind;
