//! Plain-text result tables.

use std::fmt;

/// A rendered experiment result: header, aligned rows, and summary notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id from `DESIGN.md` §2 (e.g. `"T1"`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// What the paper reports for this table/figure (the target shape).
    pub paper_target: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
    /// Summary lines (averages, maxima, verdicts).
    pub notes: Vec<String>,
    /// Named shape claims and whether each holds (checked, not rendered).
    pub claims: Vec<(String, bool)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: &'static str,
        title: impl Into<String>,
        paper_target: impl Into<String>,
        header: Vec<&str>,
    ) -> Self {
        Table {
            id,
            title: title.into(),
            paper_target: paper_target.into(),
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a summary note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a named shape claim and whether it holds.
    pub fn claim(&mut self, name: impl Into<String>, holds: bool) {
        self.claims.push((name.into(), holds));
    }

    /// The claims that do not hold, each as `<id>: <name>`.
    pub fn failed_claims(&self) -> impl Iterator<Item = String> + '_ {
        let failed = self.claims.iter().filter(|(_, holds)| !holds);
        failed.map(|(name, _)| format!("{}: {name}", self.id))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        writeln!(f, "   paper: {}", self.paper_target)?;
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "   {}", render(&self.header, &widths))?;
        let total = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "   {}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "   {}", render(row, &widths))?;
        }
        for note in &self.notes {
            writeln!(f, "   >> {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T0", "demo", "n/a", vec!["name", "value"]);
        t.push_row(vec!["a".into(), "1.5".into()]);
        t.push_row(vec!["b".into(), "25.0%".into()]);
        t.note("done");
        t
    }

    #[test]
    fn display_contains_everything() {
        let s = sample().to_string();
        assert!(s.contains("T0"));
        assert!(s.contains("name"));
        assert!(s.contains("25.0%"));
        assert!(s.contains(">> done"));
    }

    #[test]
    fn false_claims_are_reported_by_table_id_and_name() {
        let mut t = sample();
        t.claim("values ascend", true);
        t.claim("a leads", false);
        assert_eq!(t.failed_claims().collect::<Vec<_>>(), ["T0: a leads"]);
        assert_eq!(t.to_string(), sample().to_string()); // claims are not rendered
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        sample().push_row(vec!["only-one".into()]);
    }
}
