//! EXPERIMENTS.md quotes the `repro` tables. Every quoted table must match
//! the committed transcript `golden/repro.txt` byte for byte, and
//! `scripts/verify.sh` checks that transcript against a fresh release run,
//! so a documented number cannot drift from what the harness prints.

use lpmem_bench::experiments::EXPERIMENTS;

const DOC: &str = include_str!("../../../EXPERIMENTS.md");
const GOLDEN: &str = include_str!("golden/repro.txt");

/// The `text` blocks of `doc` that quote a repro table, with the table's
/// lowercased id (`== T1 — …` quotes `t1`).
fn quoted_tables(doc: &str) -> Vec<(String, &str)> {
    doc.split("```text\n")
        .skip(1)
        .filter_map(|rest| {
            let block = &rest[..rest.find("\n```")?];
            let id = block.strip_prefix("== ")?.split(" — ").next()?;
            let id = id.to_ascii_lowercase();
            let known = EXPERIMENTS.iter().any(|(known, _)| *known == id);
            known.then_some((id, block))
        })
        .collect()
}

#[test]
fn every_quoted_repro_table_appears_verbatim_in_the_golden() {
    let quoted = quoted_tables(DOC);
    for (id, block) in &quoted {
        assert!(
            GOLDEN.split("\n\n").any(|table| table.trim_end() == *block),
            "EXPERIMENTS.md's {id} table differs from golden/repro.txt:\n{block}"
        );
    }
    let mut ids: Vec<&str> = quoted.iter().map(|(id, _)| id.as_str()).collect();
    ids.sort_unstable();
    let mut want = EXPERIMENTS.map(|(id, _)| id);
    want.sort_unstable();
    assert_eq!(ids, want, "EXPERIMENTS.md quotes every experiment once");
}
