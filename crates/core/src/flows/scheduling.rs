//! The 1B.4 flow: two-level data scheduling for multi-context
//! reconfigurable fabrics.

use lpmem_energy::{Energy, Technology};
use lpmem_sched::{
    external_only_schedule, greedy_schedule, naive_schedule, AppSpec, ContextSpec, SchedPlatform,
};

use crate::FlowError;

/// Builds a DSP-pipeline application in the style of the 1B.4 evaluation: a
/// chain of contexts where each stage consumes its predecessor's frame
/// buffer and a small hot coefficient table, repeated over `iterations`
/// loop iterations (frames).
///
/// `stages` contexts are produced; `seed` perturbs sizes and traffic so a
/// suite of distinct applications can be generated deterministically.
///
/// # Errors
///
/// Propagates [`lpmem_sched::SchedError`] (never expected for valid
/// arguments).
///
/// # Panics
///
/// Panics if `stages` is zero.
pub fn dsp_pipeline_app(stages: usize, iterations: u64, seed: u64) -> Result<AppSpec, FlowError> {
    assert!(stages > 0, "pipeline needs at least one stage");
    // Simple deterministic LCG so the builder needs no external RNG.
    // lpmem-lint: allow(D03, reason = "Knuth LCG constants mixing one seed into one state, not a seed-path derivation; the app stream is pinned by goldens")
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = |lo: u64, hi: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (state >> 33) % (hi - lo)
    };

    let mut arrays: Vec<(String, u64)> = Vec::new();
    // Frame buffers between stages (stage i reads buf[i], writes buf[i+1]).
    for i in 0..=stages {
        arrays.push((format!("buf{i}"), 1024 * next(2, 8)));
    }
    // One small, hot coefficient table per stage.
    for i in 0..stages {
        arrays.push((format!("coef{i}"), 64 * next(2, 8)));
    }
    let mut contexts = Vec::with_capacity(stages);
    for i in 0..stages {
        let buf_in = i;
        let buf_out = i + 1;
        let coef = stages + 1 + i;
        let reads_in = next(2_000, 8_000);
        let writes_out = next(1_000, 4_000);
        let coef_reads = next(4_000, 16_000);
        contexts.push(ContextSpec::new(
            next(64, 512),
            vec![
                (buf_in, reads_in, 0),
                (buf_out, 0, writes_out),
                (coef, coef_reads, 0),
            ],
        ));
    }
    let named: Vec<(&str, u64)> = arrays.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    Ok(AppSpec::with_iterations(named, contexts, iterations)?)
}

/// Result of the scheduling comparison for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingOutcome {
    /// Application label.
    pub name: String,
    /// Energy of the external-only design (no on-chip data).
    pub external_only: Energy,
    /// Energy of the naive all-L1 placement.
    pub naive: Energy,
    /// Energy of the benefit-aware greedy schedule.
    pub greedy: Energy,
    /// Reconfiguration energy under the naive schedule.
    pub naive_reconfig: Energy,
    /// Reconfiguration energy under the greedy schedule (with
    /// configuration caching).
    pub greedy_reconfig: Energy,
    /// Contexts in the application.
    pub contexts: usize,
    /// Loop iterations.
    pub iterations: u64,
}

impl SchedulingOutcome {
    /// Fractional saving of the greedy scheduler vs. the naive placement.
    pub fn saving_vs_naive(&self) -> f64 {
        self.greedy.saving_vs(self.naive)
    }

    /// Fractional reconfiguration-energy saving (the paper's second
    /// claim).
    pub fn reconfig_saving(&self) -> f64 {
        self.greedy_reconfig.saving_vs(self.naive_reconfig)
    }
}

/// Evaluates the greedy scheduler against the naive and external-only
/// baselines on one application.
///
/// # Errors
///
/// Propagates schedule evaluation errors (a failure here indicates a bug in
/// a scheduler, since both baselines are feasible by construction).
pub fn run_scheduling(
    name: &str,
    app: &AppSpec,
    platform: &SchedPlatform,
) -> Result<SchedulingOutcome, FlowError> {
    let greedy = platform.evaluate(app, &greedy_schedule(app, platform))?;
    let naive = platform.evaluate(app, &naive_schedule(app, platform))?;
    let external = platform.evaluate(app, &external_only_schedule(app))?;
    Ok(SchedulingOutcome {
        name: name.to_owned(),
        external_only: external.total(),
        naive: naive.total(),
        greedy: greedy.total(),
        naive_reconfig: naive.component("reconfig"),
        greedy_reconfig: greedy.component("reconfig"),
        contexts: app.num_contexts(),
        iterations: app.iterations(),
    })
}

/// The L1 capacity of every scheduling platform the flows, the explorer
/// and the experiments build: 16 KiB.
pub const L1_BYTES: u64 = 16 << 10;

/// The default fabric of the T4 experiment: 1 KiB L0, [`L1_BYTES`] L1.
pub fn default_platform(tech: &Technology) -> SchedPlatform {
    SchedPlatform::new(tech, 1 << 10, L1_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_builder_is_deterministic() {
        let a = dsp_pipeline_app(4, 16, 7).unwrap();
        let b = dsp_pipeline_app(4, 16, 7).unwrap();
        let c = dsp_pipeline_app(4, 16, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_contexts(), 4);
        assert_eq!(a.num_arrays(), 4 + 1 + 4);
    }

    #[test]
    fn greedy_beats_baselines_on_pipelines() {
        let tech = Technology::tech180();
        let platform = default_platform(&tech);
        for seed in 0..5 {
            let app = dsp_pipeline_app(4, 32, seed).unwrap();
            let out = run_scheduling(&format!("dsp{seed}"), &app, &platform).unwrap();
            assert!(out.greedy <= out.naive, "seed {seed}: {out:?}");
            assert!(out.greedy < out.external_only * 0.6, "seed {seed}");
        }
    }

    #[test]
    fn config_caching_cuts_reconfig_energy() {
        let tech = Technology::tech180();
        let platform = default_platform(&tech);
        let app = dsp_pipeline_app(3, 64, 1).unwrap();
        let out = run_scheduling("dsp", &app, &platform).unwrap();
        assert!(
            out.reconfig_saving() > 0.5,
            "reconfig saving {}",
            out.reconfig_saving()
        );
    }
}
