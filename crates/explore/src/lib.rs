//! Multi-objective design-space exploration for the `lpmem` workspace.
//!
//! The four Session 1B flows each optimize one knob of the same embedded
//! memory platform. This crate searches the **cross-flow configuration
//! space** — scratchpad banking, clustering granularity, D-cache geometry,
//! write-back codec, instruction-bus encoding, scheduler L0 capacity — and
//! emits the Pareto frontier over three minimized objectives: energy (pJ),
//! silicon area (mm², via the promoted [`lpmem_energy::AreaReport`]
//! accounting), and memory cycles.
//!
//! The pieces:
//!
//! * [`DesignPoint`] / [`DesignSpace`] — the axis encoding, with stable
//!   keys, validity checks, and embeddings of the sweep grid's variants;
//! * [`Evaluator`] — maps a point through the existing flows
//!   ([`run_partitioning`](lpmem_core::flows::partitioning::run_partitioning),
//!   [`run_compression_trace`](lpmem_core::flows::compression::run_compression_trace),
//!   the bus encoders, the greedy scheduler) and scores it as
//!   [`Objectives`];
//! * [`Exhaustive`] and [`Evolutionary`] — two [`SearchStrategy`]
//!   implementations fanning candidate evaluation across the
//!   [`lpmem_util::pool`] worker pool, with every random draw
//!   seeded by logical coordinates so frontiers are **byte-identical at
//!   any worker count**;
//! * [`Frontier`] — non-dominated archive with NSGA-II helpers
//!   ([`frontier::non_dominated_ranks`], [`frontier::crowding_distances`])
//!   and deterministic JSONL dumps.
//!
//! # Example
//!
//! ```
//! use lpmem_explore::{DesignSpace, Evaluator, Exhaustive, SearchConfig, SearchStrategy, Workload};
//!
//! let space = DesignSpace::small();
//! let evaluator = Evaluator::new(Workload { scale: 16, iterations: 8, ..Workload::default() })?;
//! let cfg = SearchConfig { budget: 8, ..Default::default() };
//! let out = Exhaustive.search(&space, &evaluator, &cfg)?;
//! assert!(!out.frontier.is_empty());
//! # Ok::<(), lpmem_core::FlowError>(())
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod frontier;
pub mod point;
pub mod search;

pub use eval::{Evaluation, Evaluator, Objectives, Workload};
pub use frontier::Frontier;
pub use point::{CacheGeom, DesignPoint, DesignSpace};
pub use search::{
    parse_strategy, Evolutionary, Exhaustive, SearchConfig, SearchOutcome, SearchStrategy,
};
