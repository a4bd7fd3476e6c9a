//! Experiment harness: one function per table/figure of the reproduced
//! evaluations (see `DESIGN.md` §2 for the experiment index).
//!
//! Every experiment returns a [`Table`] whose `Display` rendering is what
//! the `repro` binary prints and what `EXPERIMENTS.md` records. Timings
//! of the flows behind them are lpbench's per-layer metrics (`lpbench/`),
//! which call the same flow functions.

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
