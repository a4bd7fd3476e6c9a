//! Chip-multiprocessor scenario pack: N TinyRISC cores behind private L1
//! D-caches sharing a compressed NUCA last-level cache whose bank
//! partitions sit on heterogeneous technology nodes under a chip power
//! budget.
//!
//! The DATE 2003 source sessions evaluate a single ARM7-class core; this
//! crate scales the same energy models to the chip-multiprocessor regime
//! the "Semiconductor Challenges" framing points at, following two
//! follow-on lines of work: compressed NUCA LLCs (per-line
//! `lpmem-compress` codecs let a bank hold up to twice the lines in the
//! same segment budget) and dark-silicon heterogeneous banking (each LLC
//! bank partition gets its own `TechNode`, and a chip power budget gates
//! the coldest banks into retention sleep via the `partition::sleep`
//! machinery).
//!
//! Three layers:
//!
//! - [`CmpSpec`] — the off-by-default scenario knob, following the
//!   `FaultSpec` template (label/parse round-trip, `off()` must leave
//!   every existing report byte-identical);
//! - [`NucaLlc`] — tag/segment bookkeeping of the shared cache:
//!   line-interleaved bank mapping, compressed placement, global-LRU
//!   replacement on the interleaved logical clock;
//! - [`simulate_cmp`] — the round-robin interleaved replay of the cores'
//!   data traces through private L1s (`lpmem-mem`) into the LLC, with
//!   dark-silicon gating, integer-first counters, energy/area pricing
//!   (`lpmem-energy`), and an optional fault campaign (`lpmem-fault`)
//!   over the LLC arrays.
//!
//! The flow/sweep/explore wiring lives in `lpmem-core` (`run_cmp`) and
//! the harness crates, exactly as `lpmem-fault` is wired. See
//! `DESIGN.md` §13 for the model derivation and the degeneracy
//! guarantees.

#![warn(missing_docs)]

pub mod llc;
pub mod sim;
pub mod spec;

pub use llc::{LlcAccess, LlcBankStats, LlcConfig, NucaLlc, SEGMENTS_PER_LINE};
pub use sim::{simulate_cmp, CmpOutcome, CmpReport, CoreRun};
pub use spec::{CmpSpec, TAG_CMP};
