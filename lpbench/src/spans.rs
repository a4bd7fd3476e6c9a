//! The span recorder of the traced run.
//!
//! A span records a name, its start and end, the span that caused it and
//! the work item it belongs to. Counters are recorded at the same
//! boundaries. Everything stays in memory until the run ends; the untraced
//! run never creates a recorder, so its timings carry no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric-style name, `<layer>.<call>`.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The work item (task, device shard, search) the span belongs to.
    pub item: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        u64::try_from(self.end.duration_since(self.start).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Spans and counters of one thread. Worker threads each fill their own
/// recorder; [`Recorder::absorb`] merges them afterwards.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// Times `f` as a span named `name` for work item `item`. Spans opened
    /// inside `f` through the recorder it receives become its children.
    pub fn span<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            item,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// Moves another recorder's spans and counters into this one, keeping
    /// parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A counter's value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the time its child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            *out.entry(s.name).or_default() += s.ns().saturating_sub(*c);
        }
        out
    }

    /// Total duration of every span named `name`, children included.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Writes every span as one JSON line (times in nanoseconds from
    /// `epoch`), then one line per counter.
    pub fn write_jsonl(
        &self,
        epoch: Instant,
        out: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        for (i, s) in self.spans.iter().enumerate() {
            let mut line = lpmem_util::JsonObject::new()
                .u64("span", i as u64)
                .str("name", s.name)
                .u64("start_ns", ns(s.start))
                .u64("end_ns", ns(s.end))
                .u64("item", s.item);
            if let Some(p) = s.parent {
                line = line.u64("parent", p as u64);
            }
            writeln!(out, "{}", line.finish())?;
        }
        for (k, v) in &self.counters {
            let line = lpmem_util::JsonObject::new()
                .str("counter", k)
                .u64("value", *v);
            writeln!(out, "{}", line.finish())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::default();
        r.span("outer", 1, |r| {
            spin(200_000);
            r.span("inner", 1, |_| spin(2_000_000));
        });
        let own = r.self_ns();
        assert!(own["inner"] >= 2_000_000);
        assert!(own["outer"] < own["inner"], "{own:?}");
        assert_eq!(r.total_ns("outer"), own["outer"] + own["inner"]);
        assert_eq!(r.spans()[1].parent, Some(0));
    }

    #[test]
    fn absorb_rebases_parents_and_sums_counters() {
        let mut a = Recorder::default();
        a.span("a", 0, |r| r.count("n", 2));
        let mut b = Recorder::default();
        b.span("b", 7, |r| {
            r.count("n", 3);
            r.span("c", 7, |_| ());
        });
        a.absorb(b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.calls("c"), 1);
    }
}
