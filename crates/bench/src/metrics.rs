//! Run metrics for the sweep engine: per-flow aggregates.
//!
//! The engine folds every task into one [`Metrics`] in grid order after
//! the workers finish, so the floating-point energy sums add up in the
//! same order, and come out bit-identical, at any worker count.

use std::collections::BTreeMap;

use lpmem_core::flows::FlowSummary;

use crate::table::Table;

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

/// The sweep's run metrics: task counts, per-flow aggregates and summed
/// busy time.
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
        let p = &m.per_flow["partitioning"];
        assert_eq!((p.tasks, p.errors), (2, 1));
        assert!((p.saving() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn flow_table_renders_every_flow() {
        let mut m = Metrics::new();
        m.record(
            "system",
            50_000_000,
            Some(&summary(FlowSpec::System, 4.0, 3.0)),
        );
        let ft = m.flow_table(100_000_000, 2);
        assert_eq!(ft.rows.len(), 1);
        assert!(ft.to_string().contains("system"));
    }

    // Property: per-flow task counts always sum to the task count, for
    // any latency stream.
    #[test]
    fn prop_flow_counts_sum_to_task_count() {
        Props::new("flow counts sum to task count")
            .cases(128)
            .run(|rng| {
                let mut m = Metrics::new();
                let n = rng.gen_range(0..200usize);
                for _ in 0..n {
                    // Latencies from nanoseconds to minutes.
                    let ns = rng.gen_range(0..200_000_000_000u64);
                    let ok = rng.gen_bool(0.9);
                    let s = summary(FlowSpec::Compression, 2.0, 1.0);
                    m.record("compression", ns, if ok { Some(&s) } else { None });
                }
                assert_eq!(m.tasks, n as u64);
                let per_flow_tasks: u64 = m.per_flow.values().map(|f| f.tasks).sum();
                assert_eq!(per_flow_tasks, n as u64);
            });
    }
}
