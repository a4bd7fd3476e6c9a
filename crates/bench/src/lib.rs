//! Experiment harness: one function per table/figure of the reproduced
//! evaluations (see `DESIGN.md` §2 for the experiment index).
//!
//! Every experiment returns a [`Table`] whose `Display` rendering is what
//! the `repro` binary prints and what `EXPERIMENTS.md` records. The same
//! functions back the std-only benches, so "the benchmark suite" and "the
//! reproduction harness" cannot drift apart.

pub mod benchrun;
pub mod cli;
pub mod experiments;
pub mod fleet;
pub mod metrics;
pub mod sweep;
pub mod table;

pub use fleet::{run_fleet, FleetReport, FleetSpec};
pub use metrics::Metrics;
pub use sweep::{run_sweep, SweepGrid, SweepReport};
pub use table::Table;
