//! `dse_converge` and `dse_cmp`: evolutionary design-space searches.
//!
//! `dse_converge` searches `DesignSpace::full()` (20,736 points). The
//! search converges, proposals collide with points already seen, and
//! candidate generation dominates: it stresses `explore::search` with a
//! warm memo. `dse_cmp` searches `DesignSpace::cmp()` (29.9M points), where
//! proposals almost never collide and cold CMP sub-flow evaluations
//! dominate: it stresses `explore::eval` and `cmp`.
//!
//! A pass runs several searches, each from its own seed derived from the
//! run seed and on its own fresh evaluator, because a single search's
//! cost depends strongly on its seed.

use std::collections::HashSet;
use std::time::Instant;

use lpmem_core::flows::{run_cmp, FaultSpec, VariantSpec};
use lpmem_explore::{
    DesignPoint, DesignSpace, Evaluator, Evolutionary, Exhaustive, SearchConfig, SearchOutcome,
    SearchStrategy, Workload as DseWorkload,
};
use lpmem_util::{Rng, SplitMix64};

use crate::spans::Recorder;
use crate::stats::{digest, elapsed_ns};
use crate::{Config, Pass, Traced, Workload};

/// Derivation tag of the traced run's point sample.
const TAG_SAMPLE: u64 = 0x5A;

/// An evolutionary search workload.
pub struct Dse {
    space: DesignSpace,
    seed: u64,
    workers: usize,
    budget: usize,
    searches: usize,
    /// Points the traced run evaluates one by one, cold then warm.
    sample: usize,
    /// CMP scenarios of that sample the traced run also runs through
    /// `flows::cmp::run_cmp`.
    cmp_runs: usize,
}

impl Dse {
    /// `dse_converge`: budget 2048 (about 10% of the space) per search, 16
    /// searches per pass.
    pub fn converge(cfg: &Config) -> Self {
        Dse {
            space: DesignSpace::full(),
            seed: cfg.seed,
            workers: cfg.workers,
            budget: if cfg.small { 256 } else { 2048 },
            searches: if cfg.small { 1 } else { 16 },
            sample: 64,
            cmp_runs: 0,
        }
    }

    /// `dse_cmp`: budget 512 per search over the CMP space, 16 searches
    /// per pass.
    pub fn cmp(cfg: &Config) -> Self {
        Dse {
            space: DesignSpace::cmp(),
            seed: cfg.seed,
            workers: cfg.workers,
            budget: if cfg.small { 64 } else { 512 },
            searches: if cfg.small { 1 } else { 16 },
            sample: if cfg.small { 16 } else { 64 },
            cmp_runs: if cfg.small { 2 } else { 8 },
        }
    }

    fn search_config(&self, k: usize) -> SearchConfig {
        // Seeded with the sweep grid's variant embeddings, as the explore
        // binary seeds every search.
        let seeds = [VariantSpec::default(), VariantSpec::tight()]
            .iter()
            .map(DesignPoint::from_variant)
            .filter(|p| self.space.contains(p))
            .collect();
        SearchConfig {
            budget: self.budget,
            seed: SplitMix64::derive(self.seed, &[k as u64]),
            workers: self.workers,
            seeds,
        }
    }

    /// Checks one search's outcome and folds it into the pass.
    fn account(
        &self,
        pass: &mut Pass,
        k: usize,
        out: Result<SearchOutcome, String>,
        jsonl: &mut String,
    ) {
        pass.items += self.budget as u64;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                pass.failed += self.budget as u64;
                pass.problems.push(format!("search {k}: {e}"));
                return;
            }
        };
        if out.evaluated != self.budget {
            pass.fail(format!(
                "search {k}: evaluated {} points, budget {}",
                out.evaluated, self.budget
            ));
        }
        let points = out.frontier.points();
        for a in points {
            if let Some(b) = points
                .iter()
                .find(|b| a.objectives.dominates(&b.objectives))
            {
                pass.fail(format!(
                    "search {k}: frontier member {} dominates {}",
                    a.point.key(),
                    b.point.key()
                ));
            }
        }
        let best = points
            .iter()
            .map(|p| p.objectives.energy_pj)
            .fold(f64::INFINITY, f64::min);
        pass.counters
            .insert(format!("search{k}.evaluated"), out.evaluated.to_string());
        pass.counters
            .insert(format!("search{k}.frontier"), points.len().to_string());
        pass.counters
            .insert(format!("search{k}.best_energy_pj"), format!("{best:?}"));
        jsonl.push_str(&out.frontier.to_jsonl());
    }

    /// `n` distinct points drawn uniformly from the space.
    fn sample_points(&self, n: usize) -> Vec<DesignPoint> {
        let mut rng = Rng::seed_from_u64(SplitMix64::derive(self.seed, &[TAG_SAMPLE]));
        let mut seen = HashSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n.min(self.space.len()) {
            let p = self.space.sample(&mut rng);
            if seen.insert(p.key()) {
                out.push(p);
            }
        }
        out
    }
}

fn evaluator() -> Result<Evaluator, String> {
    Evaluator::new(DseWorkload::default()).map_err(|e| e.to_string())
}

impl Workload for Dse {
    type Ready = Evaluator;

    fn setup(&self) -> Result<Evaluator, String> {
        evaluator()
    }

    fn setups_per_pass(&self) -> usize {
        self.searches
    }

    fn setup_span(&self) -> &'static str {
        "explore.setup"
    }

    fn pass(&self, ready: Vec<Evaluator>) -> Pass {
        let mut pass = Pass::default();
        let mut jsonl = String::new();
        // Each evaluator is dropped once its search is done, so its memo
        // does not add to the next search's memory.
        for (k, ev) in ready.into_iter().enumerate() {
            let out = Evolutionary::default().search(&self.space, &ev, &self.search_config(k));
            self.account(&mut pass, k, out.map_err(|e| e.to_string()), &mut jsonl);
        }
        pass.digest = Some(digest(jsonl.as_bytes()));
        pass
    }

    fn traced_pass(
        &self,
        ready: Vec<Evaluator>,
        main: &mut Recorder,
        probes: &mut Recorder,
    ) -> Traced {
        let mut pass = Pass::default();
        let mut jsonl = String::new();
        let mut first_frontier = String::new();
        let mut first_evaluator = None;
        let t = Instant::now();
        for (k, ev) in ready.into_iter().enumerate() {
            let cfg = self.search_config(k);
            let out = main.span("explore.search", k as u64, |_| {
                Evolutionary::default().search(&self.space, &ev, &cfg)
            });
            if let Ok(o) = &out {
                main.count("explore.evaluated", o.evaluated as u64);
                if k == 0 {
                    main.count("explore.frontier_size", o.frontier.len() as u64);
                    first_frontier = o.frontier.to_jsonl();
                }
            }
            self.account(&mut pass, k, out.map_err(|e| e.to_string()), &mut jsonl);
            if k == 0 {
                first_evaluator = Some(ev);
            }
        }
        pass.digest = Some(digest(jsonl.as_bytes()));
        let main_ns = elapsed_ns(t);

        // Probe 0: search 0 again on its evaluator, whose memo now holds
        // every sub-flow the search needs. What time is left is the
        // search's own: candidate generation, selection and batching.
        if let Some(ev) = first_evaluator {
            let cfg = self.search_config(0);
            match probes.span("explore.search_replay", 0, |_| {
                Evolutionary::default().search(&self.space, &ev, &cfg)
            }) {
                Ok(o) if o.frontier.to_jsonl() == first_frontier => {}
                Ok(_) => {
                    pass.fail("search 0 replayed on a warm evaluator changed its frontier".into())
                }
                Err(e) => pass.fail(format!("search 0 replay: {e}")),
            }
        }

        // Probe 1: the evaluation cost of as many points as a search
        // evaluates, without the search: Exhaustive over a uniform sample.
        let sample = self.sample_points(self.budget);
        match evaluator() {
            Ok(ev) => {
                let cfg = SearchConfig {
                    seeds: sample,
                    ..self.search_config(0)
                };
                if let Err(e) = probes.span("explore.exhaustive", 0, |_| {
                    Exhaustive.search(&self.space, &ev, &cfg)
                }) {
                    pass.fail(format!("exhaustive probe: {e}"));
                }
            }
            Err(e) => pass.fail(format!("exhaustive probe set-up: {e}")),
        }

        // Probe 2: single evaluations of a smaller sample, cold then warm.
        let sample = self.sample_points(self.sample);
        match evaluator() {
            Ok(ev) => {
                for phase in ["explore.eval_cold", "explore.eval_warm"] {
                    for (i, p) in sample.iter().enumerate() {
                        if let Err(e) = probes.span(phase, i as u64, |_| ev.evaluate(p)) {
                            pass.fail(format!("{phase} {}: {e}", p.key()));
                        }
                    }
                }
            }
            Err(e) => pass.fail(format!("evaluation probe set-up: {e}")),
        }

        // Probe 3: the sample's CMP scenarios through the CMP flow itself.
        let w = DseWorkload::default();
        let scenarios = sample
            .iter()
            .filter_map(|p| p.cmp.as_ref())
            .take(self.cmp_runs);
        for (i, spec) in scenarios.enumerate() {
            let out = probes.span("cmp.run_cmp", i as u64, |_| {
                run_cmp(
                    w.kernel,
                    w.scale,
                    w.seed,
                    w.tech,
                    &VariantSpec::default(),
                    &FaultSpec::off(),
                    spec,
                )
            });
            if let Err(e) = out {
                pass.fail(format!("run_cmp {}: {e}", spec.label()));
            }
        }

        Traced {
            pass,
            main_ns,
            threads: 1,
        }
    }
}
