//! The argument and output layer shared by the `lpmem-bench` binaries:
//! [`main`] prints any error as `<prog>: <msg>` and exits 2, [`Args`]
//! reads typed flag values and comma lists, [`write_output`] writes a
//! report to a file or, for the path `-`, to stdout, and [`write_bench`]
//! lays a bench report out in the envelope every `BENCH_*.json` shares.

use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// Runs a binary's body on its arguments. An argument that is not valid
/// UTF-8, or an error from the body, prints `<prog>: <msg>` and exits 2.
pub fn main(prog: &str, body: impl FnOnce(Args) -> Result<(), String>) -> ExitCode {
    let args = std::env::args_os().skip(1).map(|a| {
        a.into_string()
            .map_err(|a| format!("argument {a:?} is not valid UTF-8"))
    });
    match args
        .collect::<Result<Vec<_>, _>>()
        .and_then(|a| body(Args(a.into_iter())))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{prog}: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The command-line arguments still to be read.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed as a number.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} expects a number, got {v:?}"))
    }

    /// The value following `flag`, parsed as a positive integer.
    pub fn positive(&mut self, flag: &str) -> Result<usize, String> {
        match self.value(flag)?.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} needs a positive integer")),
        }
    }

    /// The value following `flag`, parsed by `parse` (`FaultSpec::parse`, …).
    pub fn parsed<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.value(flag)?;
        parse(&v).ok_or_else(|| format!("{flag}: unknown value {v:?}"))
    }

    /// The comma list following `flag`, each element parsed by `parse`.
    /// Blank elements are skipped; a list with no element is an error.
    pub fn list<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let v = self.value(flag)?;
        let items = v
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| parse(s).ok_or_else(|| format!("{flag}: unknown value {s:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        if items.is_empty() {
            return Err(format!("{flag} needs at least one value"));
        }
        Ok(items)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Whether `arg` is a flag (`-x`, `--name`) rather than a positional
/// argument. A lone `-` is positional.
pub fn is_flag(arg: &str) -> bool {
    arg.len() > 1 && arg.starts_with('-')
}

/// The error for an argument a binary does not accept.
pub fn unknown(arg: &str) -> String {
    format!("unknown argument {arg:?} (see the module docs)")
}

/// Joins list items with commas, as `--list` output prints an axis.
pub fn join(items: impl Iterator<Item = impl Into<String>>) -> String {
    items.map(Into::into).collect::<Vec<_>>().join(",")
}

/// Writes `text` to the file at `path` and says so on stdout, or, when
/// `path` is `-`, writes `text` itself to stdout.
pub fn write_output(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        let mut out = std::io::stdout();
        return out
            .write_all(text.as_bytes())
            .map_err(|e| format!("cannot write to stdout: {e}"));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// One record of a bench report: its counters, a pure function of the
/// inputs, and its timings, everything read from a clock plus the worker
/// count (only the timings depend on it). Each is a flat JSON object.
pub struct BenchRecord {
    /// The deterministic fields, equal run to run at any worker count.
    pub counters: String,
    /// The clock-derived fields and the worker count.
    pub timings: String,
}

impl BenchRecord {
    /// The record's two objects as `"counters":…,"timings":…`.
    fn fields(&self) -> String {
        format!(
            "\"counters\":{},\"timings\":{}",
            self.counters, self.timings
        )
    }
}

/// Writes a bench report via [`write_output`] in the one envelope every
/// `BENCH_*.json` shares: `{"schema":"lpmem-bench-v2","bench":<bench>,
/// "counters":…,"timings":…,"rows":[{"counters":…,"timings":…},…]}`.
pub fn write_bench(
    path: &str,
    bench: &str,
    top: &BenchRecord,
    rows: &[BenchRecord],
) -> Result<(), String> {
    let rows: Vec<String> = rows.iter().map(|r| format!("{{{}}}", r.fields())).collect();
    write_output(
        path,
        &format!(
            "{{\"schema\":\"lpmem-bench-v2\",\"bench\":\"{bench}\",{},\"rows\":[{}]}}\n",
            top.fields(),
            rows.join(",")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args(
            list.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    #[test]
    fn typed_readers_parse_or_explain() {
        let mut a = args(&["7", "x", "0", "2.5"]);
        assert_eq!(a.num::<u64>("--seed"), Ok(7));
        assert!(a.num::<u64>("--seed").unwrap_err().contains("--seed"));
        assert!(a.positive("--threads").is_err());
        assert_eq!(a.num::<f64>("--check-speedup"), Ok(2.5));
        assert_eq!(a.value("--jsonl"), Err("--jsonl needs a value".to_owned()));
    }

    #[test]
    fn lists_skip_blanks_and_reject_empty_or_unknown_elements() {
        let parse = |s: &str| s.trim().parse::<u32>().ok();
        assert_eq!(args(&["1,,2 ,"]).list("--n", parse), Ok(vec![1, 2]));
        assert!(args(&[","]).list("--n", parse).is_err());
        assert!(args(&["1,x"])
            .list("--n", parse)
            .unwrap_err()
            .contains("\"x\""));
    }

    #[test]
    fn flags_are_told_from_positionals() {
        assert!(is_flag("--quick") && is_flag("-q"));
        assert!(!is_flag("-") && !is_flag("fir") && !is_flag(""));
    }
}
