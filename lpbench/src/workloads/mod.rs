//! The six workloads. Each module says why its workload exists and which
//! layer it stresses.

pub mod dse;
pub mod fleet;
pub mod grid;
pub mod lint;
