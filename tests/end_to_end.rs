//! End-to-end reproduction checks: the headline *shapes* of all four
//! DATE 2003 Session 1B results, and of the capstone that composes them,
//! must hold. Each test builds the `repro` table and requires the named
//! claims it carries; the claims themselves live with the experiments.

use std::sync::OnceLock;

use lpmem_bench::{experiments, Table};

/// Requires `table` to carry at least one claim starting with `prefix`,
/// and every such claim to hold.
fn assert_claims(table: &Table, prefix: &str) {
    let mut checked = 0;
    for (name, holds) in table.claims.iter().filter(|(n, _)| n.starts_with(prefix)) {
        assert!(*holds, "{}: claim failed: {name}", table.id);
        checked += 1;
    }
    assert!(checked > 0, "{} has no {prefix:?} claim", table.id);
}

/// T1 covers both workload suites; its two tests share one run.
fn t1() -> &'static Table {
    static T1: OnceLock<Table> = OnceLock::new();
    T1.get_or_init(experiments::t1)
}

#[test]
fn t1_shape_holds_on_composite_suite() {
    assert_claims(t1(), "composite: ");
}

#[test]
fn t1_shape_holds_on_scattered_suite() {
    assert_claims(t1(), "scattered: ");
}

#[test]
fn t2_shape_compression_saves_energy_and_vliw_beats_risc() {
    assert_claims(&experiments::t2(), "");
}

#[test]
fn t3_shape_functional_encoding_halves_transitions_and_beats_businvert() {
    assert_claims(&experiments::t3(), "");
}

#[test]
fn t4_shape_scheduler_beats_naive_and_cuts_reconfig_energy() {
    assert_claims(&experiments::t4(), "");
}

#[test]
fn sys_shape_optimizations_compose() {
    assert_claims(&experiments::sys(), "");
}
