//! Search strategies over a [`DesignSpace`]: exhaustive enumeration and a
//! seeded (μ+λ) evolutionary search, both behind [`SearchStrategy`].
//!
//! Determinism contract: the set of evaluated points — and therefore the
//! archive frontier — depends only on `(space, workload, SearchConfig)`,
//! never on thread scheduling. Candidate batches are fixed *before* they
//! are fanned across the worker pool; every random draw comes from
//! an [`Rng`] seeded by [`SplitMix64::derive`] on logical coordinates
//! (generation, offspring index), not on execution order. Frontier dumps
//! are byte-identical at any `workers` count.

use std::collections::HashSet;

use lpmem_core::FlowError;
use lpmem_util::{parallel_map, Rng, SplitMix64};

use crate::eval::{Evaluation, Evaluator};
use crate::frontier::{nsga_order, Frontier};
use crate::point::{DesignPoint, DesignSpace};

/// Shared knobs of every search strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Maximum number of evaluations (seeds included).
    pub budget: usize,
    /// Base seed of every random draw.
    pub seed: u64,
    /// Worker threads candidate evaluation fans across.
    pub workers: usize,
    /// Points evaluated first, before any enumeration or sampling —
    /// typically the sweep-grid embeddings, so the frontier provably
    /// covers the configurations the existing experiments run.
    pub seeds: Vec<DesignPoint>,
}

impl Default for SearchConfig {
    /// 256 evaluations, seed 2003, single worker, no seed points.
    fn default() -> Self {
        SearchConfig {
            budget: 256,
            seed: 2003,
            workers: 1,
            seeds: Vec::new(),
        }
    }
}

/// What a search hands back: the archive frontier over everything it
/// evaluated, plus the evaluation count actually spent.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Non-dominated archive over all evaluated points.
    pub frontier: Frontier,
    /// Evaluations performed (≤ budget).
    pub evaluated: usize,
}

/// A deterministic search strategy over a design space.
pub trait SearchStrategy {
    /// Strategy key used on the command line and in reports.
    fn name(&self) -> &'static str;

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (never expected for a validated
    /// space).
    fn search(
        &self,
        space: &DesignSpace,
        evaluator: &Evaluator,
        cfg: &SearchConfig,
    ) -> Result<SearchOutcome, FlowError>;
}

/// Evaluates a fixed batch on the pool, preserving batch order, and folds
/// every result into the frontier. The workers share the evaluator's memo,
/// so later batches and generations start warm; cached values are pure in
/// their keys, so the results — and the frontier built from them — are
/// byte-identical at any worker count.
fn evaluate_batch(
    batch: Vec<DesignPoint>,
    evaluator: &Evaluator,
    workers: usize,
    frontier: &mut Frontier,
) -> Result<Vec<Evaluation>, FlowError> {
    let results = parallel_map(batch, workers, |p| evaluator.evaluate(&p));
    let mut evals = Vec::with_capacity(results.len());
    for r in results {
        let e = r?;
        frontier.insert(e.clone());
        evals.push(e);
    }
    Ok(evals)
}

/// Every point a search has taken, by identity: an in-space point by its
/// mixed-radix index ([`DesignSpace::index_of`]), a seed from outside the
/// space by equality. Keys are formatted only at emission, never here.
///
/// `cursor` is the first in-space index not yet taken. Indices only join
/// the set, so the cursor never moves back and one search steps it over
/// at most `space.len()` indices in total: O(space) for the whole search,
/// not per fallback.
struct Seen<'a> {
    space: &'a DesignSpace,
    indices: HashSet<usize>,
    outside: Vec<DesignPoint>,
    cursor: usize,
    /// Indices the cursor has stepped over, counted apart from `cursor`
    /// so that a cursor that moved back would show in the bound test.
    scanned: usize,
}

impl<'a> Seen<'a> {
    fn new(space: &'a DesignSpace) -> Self {
        Seen {
            space,
            indices: HashSet::new(),
            outside: Vec::new(),
            cursor: 0,
            scanned: 0,
        }
    }

    /// Takes the in-space point `p`; `false` when it was taken before or
    /// is not on the axes.
    fn take(&mut self, p: &DesignPoint) -> bool {
        self.space
            .index_of(p)
            .is_some_and(|i| self.indices.insert(i))
    }

    /// Takes the seed `p`, which may lie off the axes; `false` when it was
    /// taken before.
    fn take_seed(&mut self, p: &DesignPoint) -> bool {
        match self.space.index_of(p) {
            Some(i) => self.indices.insert(i),
            None if self.outside.contains(p) => false,
            None => {
                self.outside.push(p.clone());
                true
            }
        }
    }

    /// `true` once every in-space point is taken; seeds off the axes do
    /// not count towards it.
    fn exhausted(&self) -> bool {
        self.indices.len() >= self.space.len()
    }

    /// Takes the first in-space point not yet taken, in enumeration
    /// order; `None` when the space is exhausted.
    fn take_first_unseen(&mut self) -> Option<DesignPoint> {
        while self.cursor < self.space.len() && self.indices.contains(&self.cursor) {
            self.cursor += 1;
            self.scanned += 1;
        }
        debug_assert!(self.scanned <= self.space.len());
        if self.cursor == self.space.len() {
            return None;
        }
        self.indices.insert(self.cursor);
        Some(self.space.point_at(self.cursor))
    }
}

/// Enumerates the space in axis order (after the seed points) until the
/// budget is spent — exact by construction whenever `budget ≥ space.len()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(
        &self,
        space: &DesignSpace,
        evaluator: &Evaluator,
        cfg: &SearchConfig,
    ) -> Result<SearchOutcome, FlowError> {
        let mut seen = Seen::new(space);
        let mut batch: Vec<DesignPoint> = Vec::new();
        for p in &cfg.seeds {
            if batch.len() >= cfg.budget {
                break;
            }
            if seen.take_seed(p) {
                batch.push(p.clone());
            }
        }
        while batch.len() < cfg.budget {
            match seen.take_first_unseen() {
                Some(p) => batch.push(p),
                None => break,
            }
        }
        let mut frontier = Frontier::new();
        let evaluated = batch.len();
        evaluate_batch(batch, evaluator, cfg.workers, &mut frontier)?;
        Ok(SearchOutcome {
            frontier,
            evaluated,
        })
    }
}

/// Seeded (μ+λ) evolutionary search with NSGA-II survivor selection.
///
/// Offspring are produced by per-axis crossover of tournament-selected
/// parents followed by one mutation. A candidate's identity is its
/// mixed-radix index in the space: one already evaluated is redrawn, and
/// after 16 collisions the search takes the first unseen point in
/// enumeration order from a cursor that never moves back. The fallbacks
/// of one search therefore scan at most `space.len()` indices in total,
/// and given budget the search provably exhausts small spaces (the DSE-2
/// agreement guarantee). Seeds off the axes are evaluated too, but they
/// do not count towards exhaustion, and an offspring off the axes (a
/// seed's value carried over) counts as a collision.
#[derive(Debug, Clone, Copy)]
pub struct Evolutionary {
    /// Survivor population size.
    pub mu: usize,
    /// Offspring per generation.
    pub lambda: usize,
}

impl Default for Evolutionary {
    /// μ = 16, λ = 32.
    fn default() -> Self {
        Evolutionary { mu: 16, lambda: 32 }
    }
}

impl Evolutionary {
    /// Takes a candidate not taken before: `propose` is tried a bounded
    /// number of times, then the first unseen point in enumeration order
    /// comes from the monotone cursor (`None` only when the space is
    /// exhausted).
    fn fresh(
        seen: &mut Seen<'_>,
        rng: &mut Rng,
        mut propose: impl FnMut(&mut Rng) -> DesignPoint,
    ) -> Option<DesignPoint> {
        for _ in 0..16 {
            let p = propose(rng);
            if seen.take(&p) {
                return Some(p);
            }
        }
        seen.take_first_unseen()
    }

    /// The search, also handing back what it took (for the tests of the
    /// cursor bound).
    fn run<'a>(
        &self,
        space: &'a DesignSpace,
        evaluator: &Evaluator,
        cfg: &SearchConfig,
    ) -> Result<(SearchOutcome, Seen<'a>), FlowError> {
        assert!(
            self.mu > 0 && self.lambda > 0,
            "population sizes must be positive"
        );
        let mut seen = Seen::new(space);
        let mut frontier = Frontier::new();
        let mut evaluated = 0usize;

        // Generation 0: seed points, then uniform samples up to μ.
        let mut rng = Rng::seed_from_u64(SplitMix64::derive(cfg.seed, &[0]));
        let mut init: Vec<DesignPoint> = Vec::new();
        for p in &cfg.seeds {
            if init.len() >= cfg.budget {
                break;
            }
            if seen.take_seed(p) {
                init.push(p.clone());
            }
        }
        while init.len() < self.mu.min(cfg.budget) {
            match Self::fresh(&mut seen, &mut rng, |r| space.sample(r)) {
                Some(p) => init.push(p),
                None => break,
            }
        }
        evaluated += init.len();
        let mut population = evaluate_batch(init, evaluator, cfg.workers, &mut frontier)?;

        let mut generation = 1u64;
        while evaluated < cfg.budget && !seen.exhausted() && !population.is_empty() {
            // Rank the survivors once; tournaments then compare positions
            // in this deterministic order (lower index = fitter).
            let order = nsga_order(&population);
            let ranked: Vec<&Evaluation> = order.iter().map(|&i| &population[i]).collect();

            let remaining = cfg.budget - evaluated;
            let mut batch: Vec<DesignPoint> = Vec::new();
            for i in 0..self.lambda.min(remaining) {
                if seen.exhausted() {
                    break;
                }
                let mut r =
                    Rng::seed_from_u64(SplitMix64::derive(cfg.seed, &[generation, i as u64]));
                let tournament = |r: &mut Rng| {
                    let a = r.bounded_u64(ranked.len() as u64) as usize;
                    let b = r.bounded_u64(ranked.len() as u64) as usize;
                    ranked[a.min(b)]
                };
                let p1 = tournament(&mut r).point.clone();
                let p2 = tournament(&mut r).point.clone();
                let child = Self::fresh(&mut seen, &mut r, |r| {
                    let c = space.crossover(&p1, &p2, r);
                    space.mutate(&c, r)
                });
                match child {
                    Some(p) => batch.push(p),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            evaluated += batch.len();
            let offspring = evaluate_batch(batch, evaluator, cfg.workers, &mut frontier)?;
            population.extend(offspring);
            // The survivors move out of the population instead of being
            // cloned, so the coordinating thread copies no evaluation the
            // worker threads built.
            let order = nsga_order(&population);
            let mut pool: Vec<Option<Evaluation>> = population.into_iter().map(Some).collect();
            population = order
                .into_iter()
                .take(self.mu)
                .map(|i| pool[i].take().expect("nsga_order returns a permutation"))
                .collect();
            generation += 1;
        }

        let outcome = SearchOutcome {
            frontier,
            evaluated,
        };
        Ok((outcome, seen))
    }
}

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn search(
        &self,
        space: &DesignSpace,
        evaluator: &Evaluator,
        cfg: &SearchConfig,
    ) -> Result<SearchOutcome, FlowError> {
        self.run(space, evaluator, cfg).map(|(outcome, _)| outcome)
    }
}

/// Parses a strategy key (`"exhaustive"` or `"evolutionary"`); `"auto"`
/// picks exhaustive when the space fits the budget and evolutionary
/// otherwise.
pub fn parse_strategy(
    name: &str,
    space: &DesignSpace,
    budget: usize,
) -> Option<Box<dyn SearchStrategy>> {
    match name.trim().to_ascii_lowercase().as_str() {
        "exhaustive" => Some(Box::new(Exhaustive)),
        "evolutionary" => Some(Box::new(Evolutionary::default())),
        "auto" => {
            if space.len() <= budget {
                Some(Box::new(Exhaustive))
            } else {
                Some(Box::new(Evolutionary::default()))
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Workload;
    use lpmem_core::flows::spec::VariantSpec;

    fn evaluator() -> Evaluator {
        Evaluator::new(Workload {
            scale: 16,
            iterations: 8,
            ..Workload::default()
        })
        .unwrap()
    }

    #[test]
    fn exhaustive_covers_the_small_space() {
        let space = DesignSpace::small();
        let eval = evaluator();
        let cfg = SearchConfig {
            budget: 64,
            ..Default::default()
        };
        let out = Exhaustive.search(&space, &eval, &cfg).unwrap();
        assert_eq!(
            out.evaluated, 32,
            "budget above |space| evaluates everything once"
        );
        assert!(!out.frontier.is_empty());
        // Frontier members are mutually non-dominated (archive invariant).
        for a in out.frontier.points() {
            assert!(!out.frontier.dominates(&a.objectives));
        }
    }

    #[test]
    fn budget_caps_exhaustive_enumeration() {
        let space = DesignSpace::small();
        let eval = evaluator();
        let cfg = SearchConfig {
            budget: 7,
            ..Default::default()
        };
        let out = Exhaustive.search(&space, &eval, &cfg).unwrap();
        assert_eq!(out.evaluated, 7);
    }

    #[test]
    fn evolutionary_exhausts_small_spaces_and_matches_exhaustive() {
        let space = DesignSpace::small();
        let eval = evaluator();
        let cfg = SearchConfig {
            budget: 64,
            ..Default::default()
        };
        let exhaustive = Exhaustive.search(&space, &eval, &cfg).unwrap();
        let evolved = Evolutionary { mu: 8, lambda: 8 }
            .search(&space, &eval, &cfg)
            .unwrap();
        assert_eq!(
            evolved.evaluated, 32,
            "dedup + fallback must exhaust the space"
        );
        assert_eq!(
            evolved.frontier.to_jsonl(),
            exhaustive.frontier.to_jsonl(),
            "archives over the same evaluated set are identical"
        );
    }

    #[test]
    fn a_seed_off_the_axes_does_not_cut_the_search_short() {
        // The seed's bank budget is not on the small space's bank axis.
        // It is evaluated like any seed, but only in-space points count
        // towards exhausting the space, so all 32 of them are reached too.
        let space = DesignSpace::small();
        let outsider = DesignPoint {
            banks: 64,
            ..space.point_at(0)
        };
        assert_eq!(space.index_of(&outsider), None);
        let eval = evaluator();
        let cfg = SearchConfig {
            budget: 64,
            seeds: vec![outsider.clone(), outsider],
            ..Default::default()
        };
        let exhaustive = Exhaustive.search(&space, &eval, &cfg).unwrap();
        let evolved = Evolutionary { mu: 8, lambda: 8 }
            .search(&space, &eval, &cfg)
            .unwrap();
        assert_eq!(
            exhaustive.evaluated, 33,
            "repeated seeds are evaluated once"
        );
        assert_eq!(evolved.evaluated, 33, "every in-space point is reached");
        assert_eq!(evolved.frontier.to_jsonl(), exhaustive.frontier.to_jsonl());
    }

    #[test]
    fn one_search_scans_at_most_the_space() {
        // The small space exhausted, and the full space at the budget of
        // the pinned frontier in `crates/bench/tests/explore.rs`, where
        // 1,084 proposals fall back to enumeration order.
        let seeds: Vec<DesignPoint> = [VariantSpec::default(), VariantSpec::tight()]
            .iter()
            .map(DesignPoint::from_variant)
            .collect();
        for (space, budget, seeds) in [
            (DesignSpace::small(), 64, Vec::new()),
            (DesignSpace::full(), 2048, seeds),
        ] {
            let cfg = SearchConfig {
                budget,
                workers: 2,
                seeds,
                ..Default::default()
            };
            let (out, seen) = Evolutionary::default()
                .run(&space, &evaluator(), &cfg)
                .unwrap();
            assert_eq!(out.evaluated, budget.min(space.len()));
            assert!(seen.scanned > 0, "the fallback fires on this search");
            assert!(
                seen.scanned <= space.len(),
                "one search scanned {} indices of a {}-point space",
                seen.scanned,
                space.len()
            );
        }
    }

    #[test]
    fn results_are_identical_at_any_worker_count() {
        let space = DesignSpace::small();
        let eval = evaluator();
        let mut dumps = Vec::new();
        for workers in [1usize, 2, 8] {
            let cfg = SearchConfig {
                budget: 20,
                workers,
                ..Default::default()
            };
            let out = Evolutionary { mu: 6, lambda: 6 }
                .search(&space, &eval, &cfg)
                .unwrap();
            dumps.push(out.frontier.to_jsonl());
        }
        assert_eq!(dumps[0], dumps[1]);
        assert_eq!(dumps[1], dumps[2]);
    }

    #[test]
    fn seeds_are_evaluated_first_and_protected_by_the_archive() {
        let space = DesignSpace::full();
        let eval = evaluator();
        let seeds = vec![
            DesignPoint::from_variant(&VariantSpec::default()),
            DesignPoint::from_variant(&VariantSpec::tight()),
        ];
        let cfg = SearchConfig {
            budget: 24,
            seeds: seeds.clone(),
            ..Default::default()
        };
        let out = Evolutionary { mu: 8, lambda: 8 }
            .search(&space, &eval, &cfg)
            .unwrap();
        // Every seed was scored; none can dominate the frontier from
        // outside it (it is either on the frontier or dominated by it).
        for s in &seeds {
            let e = eval.evaluate(s).unwrap();
            let on_frontier = out
                .frontier
                .points()
                .iter()
                .any(|p| p.point.key() == s.key());
            assert!(
                on_frontier || out.frontier.dominates(&e.objectives),
                "seed {} neither on nor dominated by the frontier",
                s.key()
            );
        }
    }

    #[test]
    fn strategy_parsing_and_auto_selection() {
        let small = DesignSpace::small();
        assert_eq!(
            parse_strategy("exhaustive", &small, 10).unwrap().name(),
            "exhaustive"
        );
        assert_eq!(
            parse_strategy("evolutionary", &small, 10).unwrap().name(),
            "evolutionary"
        );
        assert_eq!(
            parse_strategy("auto", &small, 64).unwrap().name(),
            "exhaustive"
        );
        assert_eq!(
            parse_strategy("auto", &small, 8).unwrap().name(),
            "evolutionary"
        );
        assert!(parse_strategy("nonsense", &small, 8).is_none());
    }
}
