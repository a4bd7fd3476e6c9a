//! Shared plumbing for the std-only benches.
//!
//! Every bench target under `benches/` is a plain binary (`harness =
//! false`) that measures with [`lpmem_util::bench`] and renders a
//! [`Table`]. No external bench framework, no network, no registry:
//! `cargo bench -p lpmem-bench` works fully offline.
//!
//! Set `LPMEM_BENCH_QUICK=1` for a fast smoke pass (used by CI to check
//! the benches still run without paying for full sampling).

use lpmem_util::bench::{benchmark, format_ns, Measurement, Options};

use crate::table::Table;

/// Sampling options: full by default, smoke-sized when
/// `LPMEM_BENCH_QUICK` is set.
pub fn options() -> Options {
    if std::env::var_os("LPMEM_BENCH_QUICK").is_some() {
        Options::quick()
    } else {
        Options::default()
    }
}

/// A results table with the standard bench header.
pub fn table(id: &'static str, title: impl Into<String>) -> Table {
    Table::new(
        id,
        title,
        "n/a (microbenchmark)",
        vec!["case", "median", "min", "max", "thrpt"],
    )
}

/// Measures `f` and appends a row. `throughput` is the number of
/// `unit`-elements one iteration processes (e.g. events, bytes); pass
/// `None` to report iterations/second instead.
pub fn run_case<R>(
    table: &mut Table,
    opts: &Options,
    name: &str,
    throughput: Option<(u64, &str)>,
    f: impl FnMut() -> R,
) {
    let m = benchmark(name, opts, f);
    table.push_row(measurement_row(&m, throughput));
}

/// One bench case for [`run_cases`]: a named closure with an optional
/// throughput annotation, boxed so a bench binary can build its whole
/// suite up front.
pub struct BenchCase {
    /// Row label.
    pub name: String,
    /// `(elements, unit)` one iteration processes; `None` reports
    /// iterations/second.
    pub throughput: Option<(u64, &'static str)>,
    /// The workload to measure.
    pub run: Box<dyn FnMut()>,
}

impl BenchCase {
    /// Builds a case. The closure's return value is black-boxed by the
    /// timer, so `f` can return its result directly.
    pub fn new<R>(
        name: impl Into<String>,
        throughput: Option<(u64, &'static str)>,
        mut f: impl FnMut() -> R + 'static,
    ) -> Self {
        BenchCase {
            name: name.into(),
            throughput,
            run: Box::new(move || {
                lpmem_util::bench::black_box(f());
            }),
        }
    }
}

/// Measures every case in suite order on the calling thread and appends
/// the rows. Microbenchmark timing wants an unloaded machine, so the cases
/// never share it with each other.
pub fn run_cases(table: &mut Table, opts: &Options, cases: Vec<BenchCase>) {
    for mut case in cases {
        let m = benchmark(&case.name, opts, &mut case.run);
        table.push_row(measurement_row(&m, case.throughput));
    }
}

fn measurement_row(m: &Measurement, throughput: Option<(u64, &str)>) -> Vec<String> {
    let thrpt = match throughput {
        Some((elements, unit)) => format_rate(m.elems_per_sec(elements), unit),
        None => format_rate(m.iters_per_sec(), "iter"),
    };
    vec![
        m.name.clone(),
        m.human_median(),
        format_ns(m.min_ns),
        format_ns(m.max_ns),
        thrpt,
    ]
}

fn format_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G{unit}/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M{unit}/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} K{unit}/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} {unit}/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_pick_sensible_units() {
        assert_eq!(format_rate(2.5e9, "elem"), "2.50 Gelem/s");
        assert_eq!(format_rate(2.5e6, "B"), "2.50 MB/s");
        assert_eq!(format_rate(2.5e3, "iter"), "2.50 Kiter/s");
        assert_eq!(format_rate(12.0, "iter"), "12.0 iter/s");
    }

    #[test]
    fn run_case_appends_well_formed_rows() {
        let mut t = table("B0", "demo");
        let opts = Options::quick();
        run_case(&mut t, &opts, "noop", None, || 1u32 + 1);
        run_case(&mut t, &opts, "bytes", Some((64, "B")), || 1u32 + 1);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][4].contains("iter/s"));
        assert!(t.rows[1][4].contains("B/s"));
    }

    #[test]
    fn run_cases_keeps_suite_order() {
        let mut t = table("B0", "demo");
        let opts = Options::quick();
        let cases = vec![
            BenchCase::new("first", None, || 1u32 + 1),
            BenchCase::new("second", Some((32, "B")), || 2u32 * 2),
            BenchCase::new("third", None, || 3u32 - 1),
        ];
        run_cases(&mut t, &opts, cases);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "first");
        assert_eq!(t.rows[1][0], "second");
        assert_eq!(t.rows[2][0], "third");
        assert!(t.rows[1][4].contains("B/s"));
    }
}
