//! Run metrics for the sweep engine: per-flow aggregates and a
//! fixed-bucket latency histogram.
//!
//! The engine folds every task into one [`Metrics`] in grid order after
//! the workers finish, so the floating-point energy sums add up in the
//! same order, and come out bit-identical, at any worker count.

use std::collections::BTreeMap;

use lpmem_core::flows::FlowSummary;

use crate::table::Table;

/// Upper bounds (exclusive, in nanoseconds) of the latency buckets; the
/// last bucket is open-ended. A 1–3–10 ladder from 0.1 ms to 100 ms —
/// fixed so histograms from different runs compare bucket by bucket.
pub const BUCKET_BOUNDS_NS: [u64; 7] = [
    100_000,     // < 0.1 ms
    300_000,     // < 0.3 ms
    1_000_000,   // < 1 ms
    3_000_000,   // < 3 ms
    10_000_000,  // < 10 ms
    30_000_000,  // < 30 ms
    100_000_000, // < 100 ms
];

/// Number of histogram buckets (the bounds plus the open-ended tail).
pub const NUM_BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1;

/// A fixed-bucket histogram of per-task wall times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; NUM_BUCKETS],
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket index a latency falls into.
    pub fn bucket_of(ns: u64) -> usize {
        BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns < b)
            .unwrap_or(NUM_BUCKETS - 1)
    }

    /// Human-readable label of a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= NUM_BUCKETS`.
    pub fn label(bucket: usize) -> String {
        assert!(bucket < NUM_BUCKETS, "bucket {bucket} out of range");
        let ms = |ns: u64| {
            let v = ns as f64 / 1e6;
            if v < 1.0 {
                format!("{v:.1}ms")
            } else {
                format!("{v:.0}ms")
            }
        };
        if bucket < BUCKET_BOUNDS_NS.len() {
            format!("<{}", ms(BUCKET_BOUNDS_NS[bucket]))
        } else {
            format!(
                ">={}",
                ms(*BUCKET_BOUNDS_NS.last().expect("non-empty bounds"))
            )
        }
    }

    /// Records one task latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// Total recorded tasks.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Aggregates for one flow across every task the sweep ran for it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowMetrics {
    /// Tasks completed (including failed ones).
    pub tasks: u64,
    /// Tasks whose flow returned an error.
    pub errors: u64,
    /// Summed wall time of this flow's tasks, in nanoseconds.
    pub wall_ns: u64,
    /// Summed baseline energy in pJ.
    pub baseline_pj: f64,
    /// Summed optimized energy in pJ.
    pub optimized_pj: f64,
}

impl FlowMetrics {
    /// Aggregate fractional saving over all this flow's tasks.
    pub fn saving(&self) -> f64 {
        if self.baseline_pj == 0.0 {
            0.0
        } else {
            1.0 - self.optimized_pj / self.baseline_pj
        }
    }
}

/// The sweep's run metrics: task counts, per-flow aggregates, summed busy
/// time, and the task-latency histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Tasks completed.
    pub tasks: u64,
    /// Tasks whose flow errored.
    pub errors: u64,
    /// Summed per-task wall time across all workers ("CPU busy" time),
    /// in nanoseconds.
    pub busy_ns: u64,
    /// Per-flow aggregates, keyed by flow name.
    pub per_flow: BTreeMap<String, FlowMetrics>,
    /// Task-latency histogram.
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one finished task: its flow, wall time, and outcome
    /// (`None` when the flow errored).
    pub fn record(&mut self, flow: &str, wall_ns: u64, outcome: Option<&FlowSummary>) {
        self.tasks += 1;
        self.busy_ns += wall_ns;
        self.latency.record(wall_ns);
        let fm = self.per_flow.entry(flow.to_owned()).or_default();
        fm.tasks += 1;
        fm.wall_ns += wall_ns;
        match outcome {
            Some(s) => {
                fm.baseline_pj += s.baseline.as_pj();
                fm.optimized_pj += s.optimized.as_pj();
            }
            None => {
                self.errors += 1;
                fm.errors += 1;
            }
        }
    }

    /// Renders the per-flow aggregate table (the sweep's headline output).
    pub fn flow_table(&self, elapsed_ns: u64, workers: usize) -> Table {
        let mut t = Table::new(
            "SWEEP",
            format!("sweep run metrics ({workers} workers)"),
            "n/a (run instrumentation)",
            vec![
                "flow",
                "tasks",
                "errors",
                "busy",
                "avg task",
                "energy saved",
                "saving",
            ],
        );
        for (flow, fm) in &self.per_flow {
            let avg_ns = if fm.tasks == 0 {
                0.0
            } else {
                fm.wall_ns as f64 / fm.tasks as f64
            };
            let saved = lpmem_energy::Energy::from_pj(fm.baseline_pj - fm.optimized_pj);
            t.push_row(vec![
                flow.clone(),
                fm.tasks.to_string(),
                fm.errors.to_string(),
                format_ms(fm.wall_ns),
                format_ms(avg_ns as u64),
                saved.to_string(),
                format!("{:.1}%", 100.0 * fm.saving()),
            ]);
        }
        let elapsed_s = elapsed_ns as f64 / 1e9;
        let busy_s = self.busy_ns as f64 / 1e9;
        let speedup = if elapsed_s > 0.0 {
            busy_s / elapsed_s
        } else {
            0.0
        };
        t.note(format!(
            "{} tasks ({} errors) | wall {:.2} s | busy {:.2} s | parallel speedup {:.2}x",
            self.tasks, self.errors, elapsed_s, busy_s, speedup
        ));
        t
    }

    /// Renders the latency histogram as a table.
    pub fn latency_table(&self) -> Table {
        let mut t = Table::new(
            "SWEEP-LAT",
            "task latency histogram",
            "n/a (run instrumentation)",
            vec!["bucket", "tasks", "share"],
        );
        let total = self.latency.total().max(1);
        for (i, &count) in self.latency.counts().iter().enumerate() {
            t.push_row(vec![
                LatencyHistogram::label(i),
                count.to_string(),
                format!("{:.1}%", 100.0 * count as f64 / total as f64),
            ]);
        }
        t
    }
}

fn format_ms(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else {
        format!("{ms:.1} ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_core::flows::FlowSpec;
    use lpmem_energy::Energy;
    use lpmem_util::Props;

    fn summary(flow: FlowSpec, baseline_pj: f64, optimized_pj: f64) -> FlowSummary {
        FlowSummary {
            flow,
            workload: "w".into(),
            baseline: Energy::from_pj(baseline_pj),
            optimized: Energy::from_pj(optimized_pj),
            events: 1,
            reliability: None,
            cmp: None,
        }
    }

    #[test]
    fn bucket_bounds_are_sorted_and_cover_everything() {
        assert!(BUCKET_BOUNDS_NS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(99_999), 0);
        assert_eq!(LatencyHistogram::bucket_of(100_000), 1);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), NUM_BUCKETS - 1);
        for i in 0..NUM_BUCKETS {
            assert!(!LatencyHistogram::label(i).is_empty());
        }
    }

    #[test]
    fn record_tracks_errors_and_flows() {
        let mut m = Metrics::new();
        let s = summary(FlowSpec::Partitioning, 100.0, 75.0);
        m.record("partitioning", 1_000, Some(&s));
        m.record("partitioning", 2_000, None);
        m.record(
            "buscoding",
            500,
            Some(&summary(FlowSpec::BusCoding, 10.0, 5.0)),
        );
        assert_eq!(m.tasks, 3);
        assert_eq!(m.errors, 1);
        assert_eq!(m.busy_ns, 3_500);
        assert_eq!(m.latency.total(), 3);
        let p = &m.per_flow["partitioning"];
        assert_eq!((p.tasks, p.errors), (2, 1));
        assert!((p.saving() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tables_render_all_flows_and_buckets() {
        let mut m = Metrics::new();
        m.record(
            "system",
            50_000_000,
            Some(&summary(FlowSpec::System, 4.0, 3.0)),
        );
        let ft = m.flow_table(100_000_000, 2);
        assert_eq!(ft.rows.len(), 1);
        assert!(ft.to_string().contains("system"));
        let lt = m.latency_table();
        assert_eq!(lt.rows.len(), NUM_BUCKETS);
        let counted: u64 = lt.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        assert_eq!(counted, 1);
    }

    // Property: histogram bucket counts always sum to the task count, for
    // any latency stream.
    #[test]
    fn prop_histogram_counts_sum_to_task_count() {
        Props::new("histogram sums to task count")
            .cases(128)
            .run(|rng| {
                let mut m = Metrics::new();
                let n = rng.gen_range(0..200usize);
                for _ in 0..n {
                    // Latencies spanning every bucket, ns to minutes.
                    let ns = rng.gen_range(0..200_000_000_000u64);
                    let ok = rng.gen_bool(0.9);
                    let s = summary(FlowSpec::Compression, 2.0, 1.0);
                    m.record("compression", ns, if ok { Some(&s) } else { None });
                }
                assert_eq!(m.latency.total(), n as u64);
                assert_eq!(m.tasks, n as u64);
                let per_flow_tasks: u64 = m.per_flow.values().map(|f| f.tasks).sum();
                assert_eq!(per_flow_tasks, n as u64);
            });
    }
}
