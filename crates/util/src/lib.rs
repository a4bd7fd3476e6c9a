//! In-tree testkit for the lpmem workspace: everything the crates need to
//! build, test, and benchmark **hermetically** — with zero external
//! dependencies and no registry access.
//!
//! Five pillars:
//!
//! * [`rng`] — deterministic PRNG: a [`SplitMix64`](rng::SplitMix64) core
//!   used for seeding and a [`Rng`](rng::Rng) (xoshiro256++) stream with
//!   `rand`-style helpers (ranges, booleans, shuffles, weighted choice).
//! * [`prop`] — a seeded property-test harness replacing `proptest`:
//!   configurable case counts, deterministic case seeds, and failing-seed
//!   reporting on panic so any violation is reproducible.
//! * [`bench`] — a std-only timing harness replacing `criterion`:
//!   warmup + median-of-N sampling, runnable as a normal binary.
//! * [`pool`] — a shared-cursor thread pool over a fixed task list whose
//!   [`parallel_map`](pool::parallel_map) preserves input order at any
//!   worker count (the substrate of every byte-identical parallel report).
//! * [`json`] — a deterministic JSON-object serializer for the
//!   machine-readable JSONL reports.
//!
//! ```
//! use lpmem_util::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let die = rng.gen_range(1..=6u32);
//! assert!((1..=6).contains(&die));
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;

pub use json::JsonObject;
pub use pool::{parallel_map, parallel_map_with, try_parallel_map_with, TaskPanic};
pub use prop::Props;
pub use rng::{Rng, SplitMix64};
