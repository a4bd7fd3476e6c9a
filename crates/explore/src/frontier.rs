//! Pareto-frontier maintenance: archive insertion, non-dominated sorting,
//! and crowding distance.
//!
//! The [`Frontier`] is an archive: every evaluated point is offered to it,
//! dominated entries are evicted, and the survivors are kept in a
//! deterministic total order — `(energy, area, cycles, silent, key)`
//! ascending —
//! so two searches that evaluate the same points produce **byte-identical
//! frontiers** regardless of evaluation interleaving or worker count.
//! [`nsga_order`] ranks a whole population NSGA-II style (front rank, then
//! crowding distance, then key) for the evolutionary search's selection.

use std::cmp::Ordering;

use lpmem_util::JsonObject;

use crate::eval::{Evaluation, Objectives};

/// A non-dominated archive over evaluated design points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frontier {
    points: Vec<Evaluation>,
}

impl Frontier {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// Offers an evaluation to the archive. Returns `true` when it joins
    /// the frontier (evicting any members it dominates); `false` when an
    /// existing member dominates it or shares its key.
    ///
    /// Distinct points with **equal** objective vectors are collapsed to
    /// one representative — the lexicographically smallest key — so the
    /// archive holds one entry per Pareto-optimal objective vector and
    /// its contents never depend on insertion order.
    pub fn insert(&mut self, eval: Evaluation) -> bool {
        // The new point's key is formatted once; a member's only where its
        // objectives tie with the new point's.
        let key = eval.point.key();
        if self.points.iter().any(|p| {
            p.objectives.dominates(&eval.objectives)
                || (p.objectives == eval.objectives && p.point.key() <= key)
        }) {
            return false;
        }
        self.points.retain(|p| {
            !eval.objectives.dominates(&p.objectives) && p.objectives != eval.objectives
        });
        let at = self
            .points
            .binary_search_by(|p| order(p, &eval, &key))
            .unwrap_or_else(|i| i);
        self.points.insert(at, eval);
        true
    }

    /// The frontier members in deterministic order.
    pub fn points(&self) -> &[Evaluation] {
        &self.points
    }

    /// Number of frontier members.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// `true` when some member dominates `objectives`.
    pub fn dominates(&self, objectives: &Objectives) -> bool {
        self.points
            .iter()
            .any(|p| p.objectives.dominates(objectives))
    }

    /// One JSON object per member, in frontier order, newline-terminated —
    /// the byte-identical dump format of the `explore` binary.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            let mut row = JsonObject::new()
                .str("key", &p.point.key())
                .u64("banks", p.point.banks as u64)
                .u64("block", p.point.block)
                .u64("cache_bytes", p.point.cache.size)
                .u64("cache_line", u64::from(p.point.cache.line))
                .u64("cache_ways", u64::from(p.point.cache.ways))
                .str("codec", p.point.codec.name())
                .str("bus", &p.point.bus.name())
                .u64("l0", p.point.l0)
                .f64("energy_pj", p.objectives.energy_pj)
                .f64("area_mm2", p.objectives.area_mm2)
                .u64("cycles", p.objectives.cycles);
            // Reliability fields appear only for fault-scored evaluations,
            // so fault-free dumps keep their historical bytes.
            if let Some(r) = &p.reliability {
                row = r.json_fields(row);
            }
            // CMP fields likewise appear only on scenario points, so
            // single-core dumps keep their historical bytes.
            if let (Some(spec), Some(c)) = (&p.point.cmp, &p.cmp) {
                row = c
                    .json_fields()
                    .into_iter()
                    .fold(row.str("cmp", &spec.label()), |o, (k, v)| o.u64(k, v));
            }
            out.push_str(&row.finish());
            out.push('\n');
        }
        out
    }
}

/// The frontier's total order: objectives lexicographically, key as the
/// final tie-break (total over distinct points, since keys are unique).
/// `b_key` is `b`'s key, formatted once by the caller; `a`'s key is
/// formatted only when the objectives tie.
fn order(a: &Evaluation, b: &Evaluation, b_key: &str) -> Ordering {
    let (x, y) = (&a.objectives, &b.objectives);
    x.energy_pj
        .total_cmp(&y.energy_pj)
        .then_with(|| x.area_mm2.total_cmp(&y.area_mm2))
        .then_with(|| x.cycles.cmp(&y.cycles))
        .then_with(|| x.silent.cmp(&y.silent))
        .then_with(|| a.point.key().as_str().cmp(b_key))
}

/// Assigns each objective vector its non-dominated front rank (0 = the
/// Pareto front of the set, 1 = the front after removing rank 0, …).
pub fn non_dominated_ranks(objectives: &[Objectives]) -> Vec<usize> {
    let n = objectives.len();
    let mut rank = vec![usize::MAX; n];
    let mut assigned = 0;
    let mut current = 0;
    while assigned < n {
        // The front is computed against the remaining set as it stood at
        // the start of the pass; assignments land only once the scan is
        // complete, so members of the same front never mask one another.
        let front: Vec<usize> = (0..n)
            .filter(|&i| rank[i] == usize::MAX)
            .filter(|&i| {
                !(0..n).any(|j| {
                    j != i && rank[j] == usize::MAX && objectives[j].dominates(&objectives[i])
                })
            })
            .collect();
        assert!(!front.is_empty(), "every pass assigns at least one point");
        for &i in &front {
            rank[i] = current;
        }
        assigned += front.len();
        current += 1;
    }
    rank
}

/// NSGA-II crowding distance of each member **within its own front**.
/// Boundary points get `f64::INFINITY`.
pub fn crowding_distances(objectives: &[Objectives], ranks: &[usize]) -> Vec<f64> {
    assert_eq!(objectives.len(), ranks.len());
    let n = objectives.len();
    let mut dist = vec![0.0f64; n];
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for front in 0..=max_rank {
        let members: Vec<usize> = (0..n).filter(|&i| ranks[i] == front).collect();
        if members.is_empty() {
            continue;
        }
        // The silent axis joins only when some member actually corrupts:
        // a constant axis would re-crown its (index-order) boundary points
        // as infinitely uncrowded, perturbing fault-free searches that
        // must stay bit-for-bit on their historical trajectories.
        let axes: [fn(&Objectives) -> f64; 4] = [
            |o| o.energy_pj,
            |o| o.area_mm2,
            |o| o.cycles as f64,
            |o| o.silent as f64,
        ];
        let live = if objectives.iter().any(|o| o.silent > 0) {
            &axes[..]
        } else {
            &axes[..3]
        };
        for &extract in live {
            let mut sorted = members.clone();
            sorted.sort_by(|&a, &b| extract(&objectives[a]).total_cmp(&extract(&objectives[b])));
            let lo = extract(&objectives[sorted[0]]);
            let hi = extract(&objectives[*sorted.last().expect("non-empty front")]);
            dist[sorted[0]] = f64::INFINITY;
            dist[*sorted.last().expect("non-empty front")] = f64::INFINITY;
            if hi > lo {
                for w in sorted.windows(3) {
                    let gap = (extract(&objectives[w[2]]) - extract(&objectives[w[0]])) / (hi - lo);
                    dist[w[1]] += gap;
                }
            }
        }
    }
    dist
}

/// Orders a population NSGA-II style: front rank ascending, crowding
/// distance descending, point key ascending. The returned indices are a
/// permutation of `0..evals.len()`; taking a prefix selects the survivors.
pub fn nsga_order(evals: &[Evaluation]) -> Vec<usize> {
    let objectives: Vec<Objectives> = evals.iter().map(|e| e.objectives).collect();
    let ranks = non_dominated_ranks(&objectives);
    let dist = crowding_distances(&objectives, &ranks);
    let keys: Vec<String> = evals.iter().map(|e| e.point.key()).collect();
    let mut idx: Vec<usize> = (0..evals.len()).collect();
    idx.sort_by(|&a, &b| {
        ranks[a]
            .cmp(&ranks[b])
            .then_with(|| dist[b].total_cmp(&dist[a]))
            .then_with(|| keys[a].cmp(&keys[b]))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{CacheGeom, DesignPoint};
    use lpmem_buscode::BusChoice;
    use lpmem_compress::CodecKind;
    use lpmem_energy::AreaReport;

    fn eval(banks: usize, energy: f64, area: f64, cycles: u64) -> Evaluation {
        // Distinct `banks` gives distinct keys without touching the rest.
        let point = DesignPoint {
            banks,
            block: 2048,
            cache: CacheGeom {
                size: 4096,
                line: 64,
                ways: 2,
            },
            codec: CodecKind::Diff,
            bus: BusChoice::Xor(4),
            l0: 1024,
            cmp: None,
        };
        Evaluation {
            point,
            objectives: Objectives {
                energy_pj: energy,
                area_mm2: area,
                cycles,
                silent: 0,
            },
            area: AreaReport::new(),
            reliability: None,
            cmp: None,
        }
    }

    #[test]
    fn jsonl_rows_carry_cmp_fields_only_for_scenario_points() {
        use lpmem_cmp::{CmpReport, CmpSpec};
        let mut f = Frontier::new();
        f.insert(eval(1, 10.0, 1.0, 100));
        let mut chip = eval(2, 8.0, 2.0, 120);
        let spec = CmpSpec::quad();
        chip.point.cmp = Some(spec.clone());
        chip.cmp = Some(CmpReport {
            spec: spec.label(),
            cores: 4,
            llc_banks: 8,
            dark_banks: 2,
            llc_lookups: 1000,
            llc_hits: 700,
            llc_lines: 90,
            llc_compressed_lines: 40,
            offchip_beats: 300,
            cycles: 5000,
        });
        f.insert(chip);
        let jsonl = f.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let (solo, cmp_row) = if lines[0].contains("\"cmp\"") {
            (lines[1], lines[0])
        } else {
            (lines[0], lines[1])
        };
        assert!(!solo.contains("\"cmp\""));
        assert!(!solo.contains("llc_lookups"));
        assert!(cmp_row.contains(&format!("\"cmp\":\"{}\"", spec.label())));
        assert!(cmp_row.contains("\"dark_banks\":2"));
        assert!(cmp_row.contains("\"cmp_cycles\":5000"));
    }

    #[test]
    fn insert_rejects_dominated_and_evicts_dominated() {
        let mut f = Frontier::new();
        assert!(f.insert(eval(1, 10.0, 1.0, 100)));
        // Dominated by the member: rejected.
        assert!(!f.insert(eval(2, 11.0, 1.0, 100)));
        // Trade-off: joins.
        assert!(f.insert(eval(3, 12.0, 0.5, 100)));
        assert_eq!(f.len(), 2);
        // Dominates both: evicts both.
        assert!(f.insert(eval(4, 9.0, 0.4, 90)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].point.banks, 4);
    }

    #[test]
    fn insertion_order_does_not_change_the_frontier() {
        let evals = vec![
            eval(1, 10.0, 1.0, 100),
            eval(2, 8.0, 2.0, 100),
            eval(3, 12.0, 0.5, 90),
        ];
        let mut forward = Frontier::new();
        let mut backward = Frontier::new();
        for e in &evals {
            forward.insert(e.clone());
        }
        for e in evals.iter().rev() {
            backward.insert(e.clone());
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
    }

    #[test]
    fn equal_objectives_collapse_to_the_smallest_key() {
        // b8 arrives first but b4's key sorts lower; either insertion
        // order leaves exactly the b4 representative on the frontier.
        let mut f = Frontier::new();
        assert!(f.insert(eval(8, 10.0, 1.0, 100)));
        assert!(f.insert(eval(4, 10.0, 1.0, 100)));
        assert_eq!(f.len(), 1);
        assert_eq!(f.points()[0].point.banks, 4);
        let mut g = Frontier::new();
        assert!(g.insert(eval(4, 10.0, 1.0, 100)));
        assert!(!g.insert(eval(8, 10.0, 1.0, 100)));
        assert_eq!(f, g);
    }

    #[test]
    fn duplicate_keys_are_not_double_inserted() {
        let mut f = Frontier::new();
        assert!(f.insert(eval(1, 10.0, 1.0, 100)));
        assert!(!f.insert(eval(1, 10.0, 1.0, 100)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn no_member_dominates_another() {
        let mut f = Frontier::new();
        for i in 0..50 {
            let e = ((i * 7) % 13) as f64;
            let a = ((i * 5) % 11) as f64;
            let c = (i * 3) % 17;
            f.insert(eval(i + 1, e, a, c as u64));
        }
        for x in f.points() {
            for y in f.points() {
                assert!(!x.objectives.dominates(&y.objectives), "{:?} vs {:?}", x, y);
            }
        }
    }

    #[test]
    fn ranks_layer_the_set() {
        let objs = vec![
            Objectives {
                energy_pj: 1.0,
                area_mm2: 1.0,
                cycles: 1,
                silent: 0,
            },
            Objectives {
                energy_pj: 2.0,
                area_mm2: 2.0,
                cycles: 2,
                silent: 0,
            },
            Objectives {
                energy_pj: 3.0,
                area_mm2: 3.0,
                cycles: 3,
                silent: 0,
            },
            Objectives {
                energy_pj: 0.5,
                area_mm2: 3.0,
                cycles: 1,
                silent: 0,
            },
        ];
        let ranks = non_dominated_ranks(&objs);
        assert_eq!(ranks, vec![0, 1, 2, 0]);
    }

    #[test]
    fn crowding_favours_boundary_points() {
        let objs = vec![
            Objectives {
                energy_pj: 0.0,
                area_mm2: 10.0,
                cycles: 5,
                silent: 0,
            },
            Objectives {
                energy_pj: 1.0,
                area_mm2: 9.0,
                cycles: 5,
                silent: 0,
            },
            Objectives {
                energy_pj: 9.0,
                area_mm2: 1.0,
                cycles: 5,
                silent: 0,
            },
            Objectives {
                energy_pj: 10.0,
                area_mm2: 0.0,
                cycles: 5,
                silent: 0,
            },
        ];
        let ranks = non_dominated_ranks(&objs);
        assert!(ranks.iter().all(|&r| r == 0));
        let dist = crowding_distances(&objs, &ranks);
        assert!(dist[0].is_infinite() && dist[3].is_infinite());
        assert!(dist[1].is_finite() && dist[2].is_finite());
        // The middle points sit in uneven gaps: the one next to the wide
        // gap is more crowded-distant.
        assert!(dist[2] > 0.0 && dist[1] > 0.0);
    }

    #[test]
    fn nsga_order_is_a_deterministic_permutation() {
        let evals = vec![
            eval(1, 1.0, 1.0, 1),
            eval(2, 2.0, 2.0, 2),
            eval(3, 0.5, 3.0, 1),
            eval(4, 3.0, 0.2, 4),
        ];
        let a = nsga_order(&evals);
        let b = nsga_order(&evals);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Rank-0 members come first.
        let objs: Vec<Objectives> = evals.iter().map(|e| e.objectives).collect();
        let ranks = non_dominated_ranks(&objs);
        assert!(ranks[a[0]] <= ranks[*a.last().unwrap()]);
    }
}
